"""Shapes, operation counts and metric formulas shared by the workloads."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("serve_mixlm", "serve_fulltext", "train_joint", "encode_catalog")

# Model shapes (the program's defaults at hidden 32); the serving ranker must
# admit a 60-token prefix plus one 766-row full-text item.
MODEL = dict(vocab_size=67, hidden=32, layers=2, heads=2, ffn_mult=4.0)
SERVE_MAX_SEQ = 1024
TRAIN_MAX_SEQ = 64
ENCODE_MAX_SEQ = 256
ENCODER_SEED_OFFSET = 1000  # StageConfig.encoder_seed_offset's default
# One connection: the service runs on one CPU (bootstrap.PROGRAM_CPUS), where a
# second connection added no throughput on the reference machine. It only made
# two requests share that CPU and the GIL, and the latency median then moved
# by a multiple of any change in speed: over ten serve_mixlm seeds its spread
# was 0.32, against 0.12 for items/s in the same runs.
CONNECTIONS = 1

# Timed operations of a run at REFERENCE_SECONDS, per workload, sized to take
# about that long on the reference machine; --seconds scales them, rounded up
# to whole rounds. The count is fixed by --seconds alone, never by the clock,
# so every run of a workload attempts the same operations and its tail
# percentile always has the same sample behind it.
REFERENCE_SECONDS = 20
OPS_AT_REFERENCE = {
    "serve_mixlm": 1000,     # requests, 20 rounds of 50 (980 answered: p98)
    "serve_fulltext": 48,    # requests, 6 rounds of 8 (p75)
    "train_joint": 280,      # training steps (p95)
    "encode_catalog": 440,   # refresh calls of 8 items (p95)
}
# Untimed operations of the timed kind before every timed phase, so first-touch
# costs (KV-pool pages, heap growth, the interpreter's specialised bytecode)
# fall outside it.
WARMUP_S = 1.0
MIN_OPS = 40                # fewer would leave no tail percentile to report
WINDOWS = 15                # consecutive slices of the timed phase, equal in operations
FAST_WINDOWS = 8            # the faster half of them, which the timing metrics read
TAIL_LADDER = (75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def rounds_for(workload: str, seconds: int, round_size: int) -> int:
    ops = max(MIN_OPS, OPS_AT_REFERENCE[workload] * seconds / REFERENCE_SECONDS)
    return max(1, math.ceil(ops / round_size - 1e-9))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of `n` samples above it."""
    fitting = [p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0]
    return fitting[-1] if fitting else 50.0


@dataclass
class Slice:
    """Consecutive operations of the timed phase, in the order they ended."""

    seconds: float          # from the previous slice's last end to this one's
    ops: int
    items: int
    ms: np.ndarray          # latencies of the successful operations


@dataclass
class Outcome:
    """What one run measured and checked, before it is printed."""

    attempted: int
    failed: int
    op_ends_s: list[float]    # end of every attempted operation, from the timed start
    op_items: list[int]       # items each operation completed (0 if it failed)
    latencies_s: list[float]  # successful operations only, in attempted order
    peak_rss_mb: float
    setup_s: float
    failures: list[str] = field(default_factory=list)
    per_layer: dict[str, float] = field(default_factory=dict)

    def slices(self) -> list[Slice]:
        """The timed phase cut at operation ends into WINDOWS slices that hold
        the same number of operations (to within one)."""
        ends = np.asarray(self.op_ends_s)
        items = np.asarray(self.op_items)
        ms = np.full(len(ends), np.nan)
        ms[items > 0] = np.asarray(self.latencies_s) * 1e3
        order = np.argsort(ends, kind="stable")
        cuts = np.linspace(0, len(order), WINDOWS + 1).round().astype(int)
        out, start = [], 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            if hi == lo:
                continue
            idx = order[lo:hi]
            lat = ms[idx]
            out.append(Slice(float(ends[idx[-1]] - start), len(idx), int(items[idx].sum()),
                             lat[~np.isnan(lat)]))
            start = float(ends[idx[-1]])
        return out

    def fast_slices(self) -> list[Slice]:
        """The FAST_WINDOWS slices that took the least time per operation.

        The machine's speed moves by up to 40% for seconds to minutes at a
        time, from load outside this VM: a fixed loop runs at 53-100% of its
        fastest second from one second to the next. Such load only ever slows
        the program, so the faster half of a run is the closer measure of what
        the program itself costs, and it varies less between runs than the
        whole run does. Every slice holds the same number of operations, so a
        cost the program adds to most operations shows in full.
        """
        return sorted(self.slices(), key=lambda s: s.seconds / s.ops)[:FAST_WINDOWS]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        fast = self.fast_slices()
        timed = [s for s in fast if len(s.ms)]
        tail = tail_percentile(sum(len(s.ms) for s in timed))

        def percentile_ms(q: float) -> float:
            return float(np.mean([np.percentile(s.ms, q) for s in timed]))

        return {
            "items_per_s": (sum(s.items for s in fast) / sum(s.seconds for s in fast),
                            "items/s"),
            "latency_p50_ms": (percentile_ms(50.0), "ms"),
            "latency_tail_ms": (percentile_ms(tail), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "setup_s": (self.setup_s, "s"),
        }
