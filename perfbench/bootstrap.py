"""Process set-up shared by the benchmark's entry scripts.

Each entry script calls `pin_process()` before anything imports numpy, so
BLAS and OpenMP run one thread per process and numpy asks for no huge
pages, and `import_program()` to load `mixrank` from this checkout's `src/`
and nowhere else. Processes that run the program's code are started on
`PROGRAM_CPUS`; `run.py` itself runs on `DRIVER_CPUS`.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# numpy asks for transparent huge pages on arrays of 4 MB and more; whether one
# is granted depends on where the allocation lands, which made the service's
# peak RSS jump by 2 MB per KV-pool array from one run to the next.
PINNED = {**{var: "1" for var in THREAD_VARS}, "NUMPY_MADVISE_HUGEPAGE": "0"}


class ProgramMissing(RuntimeError):
    pass


def _cpu_split() -> tuple[set[int], set[int]]:
    """(CPUs of the process that runs the program, CPUs of the benchmark's driver).

    With two or more CPUs the program's process gets the last one to itself
    and the driver (the load generator) the first, so the generator never
    takes CPU from the service and the service's threads hand the GIL to each
    other on one CPU. With one CPU both share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[-1]}, {cpus[0]}) if len(cpus) > 1 else (set(cpus), set(cpus))


PROGRAM_CPUS, DRIVER_CPUS = _cpu_split()


def on_program_cpus() -> None:
    """`preexec_fn` of every child that runs the program's code."""
    os.sched_setaffinity(0, PROGRAM_CPUS)


def on_driver_cpus() -> None:
    os.sched_setaffinity(0, DRIVER_CPUS)


def pin_process() -> None:
    """Pin BLAS/OpenMP to one thread and turn off numpy's huge-page advice.

    Must run before numpy loads; a second call is a no-op. The allocator is
    left at glibc's defaults, so the program's own allocation behaviour stays
    in the measurement.
    """
    if all(os.environ.get(var) == value for var, value in PINNED.items()):
        return
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pins were set")
    os.environ.update(PINNED)


def child_env() -> dict:
    """Environment for a child process: pinned threads, the checkout's src first."""
    env = {**os.environ, **PINNED}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def import_program():
    if not (SRC / "mixrank" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'mixrank'}")
    sys.path.insert(0, str(SRC))
    import mixrank

    if Path(mixrank.__file__).resolve().parent != (SRC / "mixrank").resolve():
        raise ProgramMissing(f"mixrank imported from {mixrank.__file__}, not {SRC}")
    return mixrank


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
