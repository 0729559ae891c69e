"""The train_joint and encode_catalog workloads, run as the workload's own process.

    python3 perfbench/offline.py WORKLOAD SEED SECONDS TRACE RUN_DIR

Writes `result.json` with the timings, its own peak RSS and the outputs
the checks need into RUN_DIR; `run.py` reads them and checks them. Stamps
that `run.py` compares with its own clock are `time.monotonic()`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import bootstrap

bootstrap.pin_process()

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from common import (ENCODE_MAX_SEQ, ENCODER_SEED_OFFSET, MODEL, TRAIN_MAX_SEQ,  # noqa: E402
                    rounds_for)

TRAIN_EXAMPLES = 2048
TRAIN_BATCH = 32
EVAL_QUERIES = 16
# untimed operations before the timed phase
TRAIN_WARMUP_STEPS = 15  # about common.WARMUP_S of work
# A fresh encoding process spends 30-40% of its time in the kernel, faulting in
# pages for its large temporary arrays, until its heap has grown enough that
# glibc stops handing them back; on the reference machine that took 150-225
# refresh calls, varying with the seed. 300 untimed calls start the timed
# phase in the settled state a long-running nearline refresher is in; the
# transient itself is part of set-up.
ENCODE_WARMUP_CALLS = 300


class StepClock(list):
    """The `log` list of `train_stage3_joint`: stamps the end of every step.

    In a traced run it also closes the span of each step after the warm-up
    and opens the next, and stops recording after the last one.
    """

    def __init__(self, total_steps: int, tracer=None):
        super().__init__()
        self.total_steps = total_steps
        self.stamps: list[float] = []
        self.tracer = tracer

    def append(self, record) -> None:
        self.stamps.append(time.monotonic())
        super().append(record)
        if self.tracer is None:
            return
        if len(self) > TRAIN_WARMUP_STEPS:
            self.tracer.close_span("train.step")
        if TRAIN_WARMUP_STEPS <= len(self) < self.total_steps:
            self.tracer.on = True
            self.tracer.open_span()
        else:
            self.tracer.on = False


def train_joint(seed: int, seconds: int, tracer, run_dir: Path) -> dict:
    from mixrank.checkpoint import save_params
    from mixrank.data import as_batches, gen_dataset, gen_eval_queries
    from mixrank.losses import two_phase_schedule
    from mixrank.model import ModelConfig, init_params
    from mixrank.optim import OptimizerHyper
    from mixrank.train import StageConfig, train_stage3_joint

    timed_steps = rounds_for("train_joint", seconds, 1)
    total = TRAIN_WARMUP_STEPS + timed_steps
    cfg = ModelConfig(**MODEL, max_seq=TRAIN_MAX_SEQ)
    enc_cfg = ModelConfig(**{**cfg.to_dict(), "head_mode": "none"})
    dataset = gen_dataset(seed, TRAIN_EXAMPLES)
    teacher = init_params(cfg, seed=seed + 2000)
    stage = StageConfig(model=cfg, hyper=OptimizerHyper(peak_lr=1.5e-3, warmup_steps=40,
                                                        total_steps=total, weight_decay=0.01),
                        batch_size=TRAIN_BATCH, seed=seed, eval_seed=seed + 9999,
                        eval_queries=EVAL_QUERIES, t_s=1, encoder_seed_offset=ENCODER_SEED_OFFSET)
    # what step 0 starts from, for the reference loss
    save_params(run_dir / "init_ranker.ckpt", init_params(cfg, seed=seed))
    save_params(run_dir / "init_encoder.ckpt", init_params(enc_cfg, seed=seed + ENCODER_SEED_OFFSET))
    idx, q, items, p_star = next(as_batches(dataset, TRAIN_BATCH, np.random.default_rng(seed)))
    np.savez(run_dir / "first_batch.npz", q=q, items=items, p_star=p_star)

    clock = StepClock(total, tracer)
    result = train_stage3_joint(stage, dataset, teacher, schedule=two_phase_schedule(total),
                                log=clock)
    setup_done = clock.stamps[TRAIN_WARMUP_STEPS - 1]
    peak = bootstrap.peak_rss_mb()
    save_params(run_dir / "final_ranker.ckpt", result.params)
    save_params(run_dir / "final_encoder.ckpt", result.encoder)
    queries = gen_eval_queries(stage.eval_seed, stage.eval_queries)
    (run_dir / "eval_queries.json").write_text(json.dumps(
        [[list(qr.q_tokens), [[list(t), g] for t, g in qr.items]] for qr in queries]))
    stamps = clock.stamps[TRAIN_WARMUP_STEPS - 1:]
    return {
        "setup_done": setup_done,
        "op_seconds": [b - a for a, b in zip(stamps, stamps[1:])],
        "op_ends": [b - stamps[0] for b in stamps[1:]],
        "op_items": [TRAIN_BATCH] * timed_steps,
        "attempted": timed_steps,
        "failed": 0,
        "peak_rss_mb": peak,
        "loss_sft_first": clock[0]["loss_sft"],
        "ndcg": result.ndcg,
    }


def encode_catalog(seed: int, seconds: int, tracer, run_dir: Path) -> dict:
    from mixrank.cache import EmbeddingCache, refresh
    from mixrank.checkpoint import load_params, save_params
    from mixrank.model import ModelConfig, init_params

    calls = rounds_for("encode_catalog", seconds, 1)
    cfg = ModelConfig(**MODEL, max_seq=ENCODE_MAX_SEQ, head_mode="none")
    ckpt = run_dir / "encoder.ckpt"
    save_params(ckpt, init_params(cfg, seed=seed + ENCODER_SEED_OFFSET))
    encoder, meta = load_params(ckpt)
    version = meta["version"]
    log_path = run_dir / "nearline.log"
    store = EmbeddingCache(hidden=cfg.hidden, path=log_path)
    batches = inputs.encode_batches(seed, ENCODE_WARMUP_CALLS + calls)
    last_text: dict[str, list[int]] = {}
    written: list[str] = []

    def write(batch) -> bool:
        res = refresh(store, encoder, batch, t_s=1, model_version=version)
        return res.updated == len(batch) and not res.errors

    timed = batches[1 + ENCODE_WARMUP_CALLS:]
    for batch in batches[:1 + ENCODE_WARMUP_CALLS]:
        if not write(batch):
            raise RuntimeError("set-up refresh failed")
    setup_done = time.monotonic()
    if tracer is not None:
        tracer.on = True
    op_seconds, op_ends, op_items = [], [], []
    t_first = time.perf_counter()
    for batch in timed:
        t0 = time.perf_counter()
        ok = write(batch)
        t1 = time.perf_counter()
        op_seconds.append(t1 - t0)
        op_ends.append(t1 - t_first)
        op_items.append(len(batch) if ok else 0)
    peak = bootstrap.peak_rss_mb()
    for batch in batches:
        for item_id, tokens in batch:
            last_text[item_id] = list(tokens)
            written.append(item_id)

    if tracer is not None:
        # only the reopen replays a log; the empty open above is not timed
        tracer.wrap(EmbeddingCache, "__init__", "cache.open")
    reopened = EmbeddingCache(hidden=cfg.hidden, path=log_path)
    if tracer is not None:
        tracer.on = False
    ids = sorted(last_text)
    np.savez(run_dir / "rows.npz",
             ids=np.array(ids),
             live=np.stack([store.get(i, version) for i in ids]),
             reopened=np.stack([_or_nan(reopened.get(i, version), cfg.hidden) for i in ids]),
             found=np.array([reopened.get(i, version) is not None for i in ids]))
    (run_dir / "written.json").write_text(json.dumps(
        {"written": written, "last_text": last_text, "reopened_len": len(reopened),
         "updated": sorted(i for i, n in Counter(written).items() if n > 1)}))
    return {
        "setup_done": setup_done,
        "op_seconds": op_seconds,
        "op_ends": op_ends,
        "op_items": op_items,
        "attempted": len(timed),
        "failed": op_items.count(0),
        "peak_rss_mb": peak,
        "log_bytes_per_item": log_path.stat().st_size / len(written),
    }


def _or_nan(rows, hidden: int) -> np.ndarray:
    return np.full((1, hidden), np.nan) if rows is None else rows


def main() -> int:
    workload, seed, seconds, trace, run_dir = sys.argv[1:6]
    run_dir = Path(run_dir)
    bootstrap.import_program()
    tracer = None
    if trace == "1":
        import probes
        from tracer import Tracer

        tracer = Tracer()
        if workload == "train_joint":
            probes.install_training(tracer)
        else:
            probes.install_encoding(tracer)
    run = {"train_joint": train_joint, "encode_catalog": encode_catalog}[workload]
    result = run(int(seed), int(seconds), tracer, run_dir)
    if tracer is not None:
        (run_dir / "trace.json").write_text(json.dumps(tracer.dump()))
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
