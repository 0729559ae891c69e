"""Serving workloads: the generator side of serve_mixlm and serve_fulltext.

Set-up writes the ranker and encoder checkpoints, encodes the catalog into
the cache log through `cache.refresh` (serve_mixlm only), starts
`service_host.py` and sends untimed warm-up requests for `WARMUP_S`. The
timed phase is a closed loop over CONNECTIONS connections from this one
process: each connection sends its next request when the last one has
answered. A request that fails is counted, and its connection is opened
again.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import bootstrap
import checks
import inputs
import reference
from common import (CONNECTIONS, ENCODER_SEED_OFFSET, MODEL, SERVE_MAX_SEQ, WARMUP_S,
                    Outcome, rounds_for)

REFERENCE_SAMPLE = 6
HOST_TIMEOUT_S = 60.0


class ServiceProcess:
    """`service_host.py` as a child; closing its stdin ends it."""

    def __init__(self, run_dir: Path, ranker: Path, cache: Path, version: str, trace: bool):
        cmd = [sys.executable, str(bootstrap.ROOT / "perfbench" / "service_host.py"),
               "--ranker", str(ranker), "--cache", str(cache), "--version", version]
        if trace:
            cmd.append("--trace")
        self.stderr = open(run_dir / "service.stderr", "wb")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.stderr, env=bootstrap.child_env(),
                                     cwd=str(bootstrap.ROOT), text=True, bufsize=1,
                                     preexec_fn=bootstrap.on_program_cpus)
        try:
            address = json.loads(self._readline())
        except BaseException:
            self.close()
            raise
        self.host, self.port = address["host"], int(address["port"])

    def _readline(self) -> str:
        box: list[str] = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()),
                                  daemon=True)
        reader.start()
        reader.join(HOST_TIMEOUT_S)
        if not box or not box[0]:
            raise RuntimeError("service process did not answer; see service.stderr: "
                               + self.stderr_tail())
        return box[0]

    def stderr_tail(self) -> str:
        self.stderr.flush()
        return Path(self.stderr.name).read_text(errors="replace")[-2000:]

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if self._readline().strip() != "ok":
            raise RuntimeError(f"service process refused {text!r}")

    def close(self) -> None:
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def _model_configs():
    from mixrank.model import ModelConfig

    ranker = ModelConfig(**MODEL, max_seq=SERVE_MAX_SEQ)
    return ranker, ModelConfig(**{**ranker.to_dict(), "head_mode": "none"})


def _drive(host: str, port: int, jobs: list, results: list, counter) -> None:
    """One closed-loop connection: take the next job, wait for its answer, repeat."""
    from mixrank.service import Client

    client = Client(host, port)
    try:
        while True:
            i = next(counter)
            if i >= len(jobs):
                return
            items, request_id, prefix = jobs[i]
            t0 = time.perf_counter()
            try:
                response = client.score(prefix, items, request_id=request_id)
            except (ConnectionError, OSError, ValueError) as exc:
                results[i] = ("failed", repr(exc), time.perf_counter())
                client.close()
                client = Client(host, port)
                continue
            t1 = time.perf_counter()
            results[i] = ("ok", t1 - t0, response, t1)
    finally:
        client.close()


def _closed_loop(host: str, port: int, jobs: list) -> tuple[list, float]:
    """Run every job; returns the results and the start of the loop."""
    results: list = [None] * len(jobs)
    counter = itertools.count()
    threads = [threading.Thread(target=_drive, args=(host, port, jobs, results, counter))
               for _ in range(CONNECTIONS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if any(r is None for r in results):
        raise RuntimeError("a connection thread stopped before its jobs were done")
    return results, t0


def _warm_up(service, jobs: list) -> None:
    """Untimed requests, a few per connection at a time, for at least WARMUP_S."""
    end = time.perf_counter() + WARMUP_S
    chunk = 2 * CONNECTIONS
    for start in itertools.cycle(range(0, len(jobs), chunk)):
        results, _ = _closed_loop(service.host, service.port, jobs[start:start + chunk])
        if any(r[0] != "ok" for r in results):
            raise RuntimeError(f"warm-up request failed: {results}")
        if time.perf_counter() >= end:
            return


@dataclass
class Setup:
    """What set-up wrote and generated for one serving run."""

    mixlm: bool
    ranker_path: Path
    encoder_path: Path
    cache_path: Path
    version: str
    texts: dict
    requests: list          # the timed requests (inputs.Request)
    warm: list              # untimed warm-up requests
    item_rows: int          # rows one item takes in the ranker's sequence
    items_of: Callable      # Request -> the items sent for it

    def jobs(self, requests: list, tag: str) -> list:
        return [(self.items_of(r), f"{tag}{n}", r.prefix) for n, r in enumerate(requests)]


def prepare(workload: str, seed: int, seconds: int, run_dir: Path) -> Setup:
    """Checkpoints, the catalog (encoded into the cache log for serve_mixlm) and requests."""
    from mixrank.cache import EmbeddingCache, refresh
    from mixrank.checkpoint import save_params
    from mixrank.model import init_params
    from mixrank.service import CachedRef, InlineText

    mixlm = workload == "serve_mixlm"
    ranker_cfg, encoder_cfg = _model_configs()
    ranker_path, encoder_path = run_dir / "ranker.ckpt", run_dir / "encoder.ckpt"
    cache_path = run_dir / "catalog.log"
    save_params(ranker_path, init_params(ranker_cfg, seed=seed))
    encoder = init_params(encoder_cfg, seed=seed + ENCODER_SEED_OFFSET)
    version = save_params(encoder_path, encoder)
    texts = {inputs.catalog_id(i): inputs.catalog_text(seed, i)
             for i in range(inputs.CATALOG_SIZE)}
    if mixlm:
        store = EmbeddingCache(hidden=ranker_cfg.hidden, path=cache_path)
        written = refresh(store, encoder, texts.items(), t_s=1, model_version=version)
        if written.errors:
            raise RuntimeError(f"catalog encoding failed: {written.errors[:3]}")
        rounds = rounds_for(workload, seconds, inputs.MIXLM_ROUND)
        requests = inputs.mixlm_requests(seed, rounds)
        warm = [r for r in inputs.mixlm_requests(seed, 1, stream=20) if not r.planted]
        item_rows = 2  # t_s = 1 embedding row + [EOI]

        def items_of(req):
            return [CachedRef(i) for i in req.item_ids]
    else:
        rounds = rounds_for(workload, seconds, inputs.FULLTEXT_ROUND)
        requests = inputs.fulltext_requests(seed, rounds)
        warm = inputs.fulltext_requests(seed, 1, stream=20)
        item_rows = inputs.FULLTEXT_TOKENS + 1
        inline = {i: InlineText(t) for i, t in texts.items()}

        def items_of(req):
            return [inline[i] for i in req.item_ids]

    return Setup(mixlm, ranker_path, encoder_path, cache_path, version, texts,
                 requests, warm, item_rows, items_of)


def run(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path,
        t_start: float) -> Outcome:
    tracer = None
    if trace:
        import probes
        from tracer import Tracer

        tracer = Tracer()
        probes.install_encoding(tracer)
        probes.install_client(tracer)
        tracer.on = True
    setup = prepare(workload, seed, seconds, run_dir)
    if tracer is not None:
        tracer.on = False
    jobs = setup.jobs(setup.requests, "r")

    service = ServiceProcess(run_dir, setup.ranker_path, setup.cache_path, setup.version, trace)
    try:
        _warm_up(service, setup.jobs(setup.warm, "w"))
        if tracer is not None:
            service.command("on")
            tracer.on = True
        setup_s = time.monotonic() - t_start
        results, t0 = _closed_loop(service.host, service.port, jobs)
        if tracer is not None:
            tracer.on = False
            service.command("off")
            service.command(f"dump {run_dir / 'service_trace.json'}")
        peak_rss = bootstrap.peak_rss_mb(service.proc.pid)
        failures = check(seed, setup, service, setup.requests, results)
    finally:
        service.close()

    ok = [n for n, r in enumerate(results) if r[0] == "ok"]
    outcome = Outcome(attempted=len(jobs), failed=len(jobs) - len(ok),
                      op_ends_s=[r[-1] - t0 for r in results],
                      op_items=[sum(p is not None for p in r[2].p_yes) if r[0] == "ok" else 0
                                for r in results],
                      latencies_s=[results[n][1] for n in ok],
                      peak_rss_mb=peak_rss, setup_s=setup_s, failures=failures)
    if tracer is not None:
        import probes
        from tracer import Trace

        host_dump = json.loads((run_dir / "service_trace.json").read_text())
        log_bytes = (setup.cache_path.stat().st_size / inputs.CATALOG_SIZE
                     if setup.mixlm else 0.0)
        outcome.per_layer = probes.layer_metrics(
            Trace(tracer.dump(), host_dump),
            responses_report=[results[n][2].report for n in ok],
            log_bytes_per_item=log_bytes)
    return outcome


def check(seed: int, setup: Setup, service, requests: list, results: list) -> list[str]:
    """Every output check of a serving run; re-sends one request to the live service."""
    ok = [n for n, r in enumerate(results) if r[0] == "ok"]
    failures = _check(seed, setup.mixlm, requests, results, ok, setup.item_rows,
                      setup.texts, setup.ranker_path, setup.encoder_path)
    first = next((n for n in ok if not requests[n].planted), None)
    if first is None:
        return failures + ["no request without a missing id succeeded"]
    return failures + _check_permutation(service, requests[first], results[first][2],
                                         setup.items_of(requests[first]), seed)


def _check(seed, mixlm, requests, results, ok, item_rows, texts,
           ranker_path, encoder_path) -> list[str]:
    failures: list[str] = []
    planted = [r.planted for r in requests]
    failed = [res[0] != "ok" for res in results]
    errors = [res[2].errors if res[0] == "ok" else [] for res in results]
    missing = [r.item_ids.index(inputs.MISSING_ID) if r.planted else None for r in requests]
    failures += checks.only_planted_failed(planted, failed, errors, missing)
    failures += checks.scores_in_range([results[n][2].p_yes for n in ok])
    expected = []
    for n in ok:
        live = sum(e is None for e in results[n][2].errors)
        expected.append(reference.causal_counts(len(requests[n].prefix), [item_rows] * live))
    failures += checks.counters_match([results[n][2].report for n in ok], expected)

    # a deterministic sample of served items against the dense reference
    ranker = reference.RefModel(ranker_path)
    encoder = reference.RefModel(encoder_path) if mixlm else None
    pick = inputs.rng(seed, 9)
    sample = [n for n in ok if not requests[n].planted]
    served, ref = [], []
    for n in pick.choice(sample, min(REFERENCE_SAMPLE, len(sample)), replace=False):
        req = requests[int(n)]
        slot = int(pick.integers(0, len(req.item_ids)))
        text = texts[req.item_ids[slot]]
        if mixlm:
            probs = reference.mixed_probs(ranker, req.prefix,
                                          reference.encode_rows(encoder, text, 1))
        else:
            probs = reference.fulltext_probs(ranker, req.prefix, text)
        served.append(results[int(n)][2].p_yes[slot])
        ref.append(float(probs[0]))
    failures += checks.close_to_reference(served, ref, "served p_yes")
    return failures


def _check_permutation(service, request, response, items, seed) -> list[str]:
    """Re-send one answered request with its items permuted."""
    from mixrank.service import Client

    order = [int(i) for i in inputs.rng(seed, 10).permutation(len(items))]
    with Client(service.host, service.port) as client:
        again = client.score(request.prefix, [items[i] for i in order], request_id="perm")
    return checks.permutation_invariant(response.p_yes, again.p_yes, order)
