"""Benchmark of the mixrank program in this checkout's `src/`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, sets up, runs the timed phase,
checks the outputs against `reference.py`, and prints one JSON object as the
last line of standard output: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. See README.md for the workloads.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.pin_process()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from common import WORKLOADS, Outcome  # noqa: E402

CHILD_TIMEOUT_S = 170.0
REFERENCE_SAMPLE = 24


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def run_offline(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path) -> Outcome:
    cmd = [sys.executable, str(bootstrap.ROOT / "perfbench" / "offline.py"),
           workload, str(seed), str(seconds), "1" if trace else "0", str(run_dir)]
    with open(run_dir / "child.stderr", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=bootstrap.child_env(), cwd=str(bootstrap.ROOT),
                                preexec_fn=bootstrap.on_program_cpus)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise RuntimeError(f"{workload} process exited {code}: "
                           + (run_dir / "child.stderr").read_text(errors="replace")[-2000:])
    res = json.loads((run_dir / "result.json").read_text())
    check = check_train if workload == "train_joint" else check_encode
    outcome = Outcome(attempted=res["attempted"], failed=res["failed"],
                      op_ends_s=res["op_ends"], op_items=res["op_items"],
                      latencies_s=[d for d, n in zip(res["op_seconds"], res["op_items"]) if n],
                      peak_rss_mb=res["peak_rss_mb"],
                      setup_s=res["setup_done"] - T_START,
                      failures=check(seed, res, run_dir))
    if trace:
        import probes
        from tracer import Trace

        dump = json.loads((run_dir / "trace.json").read_text())
        outcome.per_layer = probes.layer_metrics(
            Trace(dump), log_bytes_per_item=res.get("log_bytes_per_item", 0.0))
    return outcome


def check_train(seed: int, res: dict, run_dir: Path) -> list[str]:
    batch = np.load(run_dir / "first_batch.npz")
    ranker = reference.RefModel(run_dir / "init_ranker.ckpt")
    encoder = reference.RefModel(run_dir / "init_encoder.ckpt")
    probs = [reference.mixed_probs(ranker, reference.query_prefix(q),
                                   reference.encode_rows(encoder, items, 1))
             for q, items in zip(batch["q"], batch["items"])]
    failures = checks.scalar_matches("first-step loss_sft", res["loss_sft_first"],
                                     reference.kl(batch["p_star"], np.stack(probs)), 1e-9)

    ranker = reference.RefModel(run_dir / "final_ranker.ckpt")
    encoder = reference.RefModel(run_dir / "final_encoder.ckpt")
    per_query = []
    for q, items in json.loads((run_dir / "eval_queries.json").read_text()):
        scores = [reference.mixed_probs(ranker, reference.query_prefix(q),
                                        reference.encode_rows(encoder, t, 1))[0]
                  for t, _ in items]
        per_query.append(reference.ndcg10(scores, [g for _, g in items]))
    failures += checks.scalar_matches("NDCG@10", res["ndcg"], float(np.mean(per_query)), 1e-12)
    return failures


def check_encode(seed: int, res: dict, run_dir: Path) -> list[str]:
    rows = np.load(run_dir / "rows.npz")
    meta = json.loads((run_dir / "written.json").read_text())
    ids = [str(i) for i in rows["ids"]]
    live = dict(zip(ids, rows["live"]))
    reopened = {i: r for i, r, found in zip(ids, rows["reopened"], rows["found"]) if found}
    failures = [f"{res['failed']} refresh calls reported errors"] if res["failed"] else []
    failures += checks.cache_holds_exactly(meta["written"], meta["reopened_len"], live, reopened)

    pick = inputs.rng(seed, 11)
    updated = meta["updated"]
    fresh = sorted(set(ids) - set(updated))
    sample = [updated[int(i)] for i in pick.choice(len(updated), REFERENCE_SAMPLE // 2,
                                                   replace=False)]
    sample += [fresh[int(i)] for i in pick.choice(len(fresh), REFERENCE_SAMPLE // 2,
                                                  replace=False)]
    encoder = reference.RefModel(run_dir / "encoder.ckpt")
    want = {i: reference.encode_rows(encoder, meta["last_text"][i], 1) for i in sample}
    failures += checks.rows_match({i: reopened.get(i) for i in sample}, want)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    bootstrap.on_driver_cpus()

    try:
        bootstrap.import_program()
    except bootstrap.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run_dir = bootstrap.RUNS / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.workload.startswith("serve_"):
            import serve

            outcome = serve.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                run_dir, T_START)
        else:
            outcome = run_offline(args.workload, args.seed, args.seconds, bool(args.trace),
                                  run_dir)
    finally:
        keep = run_dir / "service_trace.json", run_dir / "trace.json"
        for path in keep:
            if path.exists():
                shutil.copy(path, bootstrap.RUNS / f"{args.workload}-s{args.seed}-{path.name}")
        shutil.rmtree(run_dir, ignore_errors=True)

    for failure in outcome.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print("perfbench: items/s per slice of the timed phase: "
          + " ".join(f"{s.items / s.seconds:.1f}" for s in outcome.slices()), file=sys.stderr)
    e2e = {name: {"value": v, "unit": u} for name, (v, u) in outcome.end_to_end().items()}
    if args.trace:
        import probes

        print(json.dumps({"traced_end_to_end": e2e}))
        metrics = {name: {"value": float(v), "unit": probes.UNITS[name]}
                   for name, v in outcome.per_layer.items()}
    else:
        metrics = e2e
    print(json.dumps({"correct": not outcome.failures, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
