"""Where a traced run wraps the program, and how its spans become layer metrics.

Each `install_*` wraps public functions of one side of a workload; the
module globals patched (`mixrank.service.pack_body`, `mixrank.cache.encode_item`
and so on) are the names the calling module looks up at call time.
`layer_metrics` turns the merged dumps of every traced process into the
per-layer metrics of BENCHMARK.json. A layer the workload never calls reads 0.
"""

from __future__ import annotations

import threading
import time

from tracer import Trace, Tracer, median

US, MS = 1e6, 1e3

# (name, unit, better); the order is the order in BENCHMARK.json
PER_LAYER = [
    ("protocol.pack_us", "us", "lower"),
    ("protocol.parse_us", "us", "lower"),
    ("protocol.request_bytes", "bytes", "lower"),
    ("protocol.response_bytes", "bytes", "lower"),
    ("payload.encode_us", "us", "lower"),
    ("payload.decode_us", "us", "lower"),
    ("service.route_us", "us", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.resolve_items_us", "us", "lower"),
    ("service.execute_ms", "ms", "lower"),
    ("service.server_ms", "ms", "lower"),
    ("cache.get_us", "us", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.put_us", "us", "lower"),
    ("cache.log_bytes_per_item", "bytes", "lower"),
    ("cache.replay_ms", "ms", "lower"),
    ("engine.score_ms", "ms", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("engine.kv_write_ms", "ms", "lower"),
    ("engine.kv_gather_ms", "ms", "lower"),
    ("engine.kv_calls", "count", "lower"),
    ("engine.embed_ms", "ms", "lower"),
    ("engine.rope_tables_ms", "ms", "lower"),
    ("engine.head_ms", "ms", "lower"),
    ("engine.attention_pairs", "count", "lower"),
    ("engine.linear_rows", "count", "lower"),
    ("engine.lease_pages", "count", "lower"),
    ("mix.encode_item_ms", "ms", "lower"),
    ("model.forward_hidden_ms", "ms", "lower"),
    ("train.step_ms", "ms", "lower"),
    ("train.mixed_forward_ms", "ms", "lower"),
    ("train.fulltext_forward_ms", "ms", "lower"),
    ("autodiff.backward_ms", "ms", "lower"),
    ("losses.kl_ms", "ms", "lower"),
    ("losses.hidden_align_ms", "ms", "lower"),
    ("optim.step_ms", "ms", "lower"),
    ("train.self_ms", "ms", "lower"),
    ("train.teacher_predictions_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _record_len(tracer: Tracer, name: str, of_result: bool):
    def hook(args, result):
        tracer.values[name].append(len(result) if of_result else len(args[0]))
    return hook


def install_encoding(tracer: Tracer) -> None:
    """Catalog encoding and nearline writes: `cache.refresh` and what it calls."""
    import mixrank.cache as cache
    import mixrank.mix as mix

    tracer.wrap(cache, "encode_item", "mix.encode_item")
    tracer.wrap(mix, "forward_hidden", "model.forward_hidden")
    tracer.wrap(cache.EmbeddingCache, "put", "cache.put")
    tracer.wrap(cache, "encode_payload", "payload.encode")
    tracer.wrap(cache, "decode_payload", "payload.decode")


def install_client(tracer: Tracer) -> None:
    """The generator's end of the wire: `Client.score` framing and codec."""
    import mixrank.service as service

    tracer.wrap(service, "pack_body", "client.pack",
                after=_record_len(tracer, "protocol.request_bytes", of_result=True))
    tracer.wrap(service, "parse_body", "client.parse",
                after=_record_len(tracer, "protocol.response_bytes", of_result=False))
    tracer.wrap(service, "decode_payload", "payload.decode")


def install_server(tracer: Tracer, svc) -> None:
    """The service process: routing, queueing, workers, cache reads, engine."""
    import mixrank.cache as cache
    import mixrank.engine as engine
    import mixrank.service as service

    local = threading.local()  # per connection thread: when its last frame arrived
    queued: dict[int, float] = {}  # id(request) -> when it was put on a worker queue

    def note_recv(args, result):
        local.recv_end = time.perf_counter()

    def note_send(args):
        tracer.values["service.server"].append(time.perf_counter() - local.recv_end)

    def note_get(args, result):
        tracer.counts["cache.hits" if result is not None else "cache.misses"] += 1

    def note_start(args):
        tracer.values["service.queue_wait"].append(
            time.perf_counter() - queued.pop(id(args[2]), time.perf_counter()))

    def note_lease(args, result):
        tracer.values["engine.lease_pages"].append(len(args[0].lease_pages(args[1])))

    tracer.wrap(service, "recv_frame", "server.recv", after=note_recv)
    tracer.wrap(service, "send_frame", "server.send", before=note_send)
    tracer.wrap(service, "pack_body", "server.pack")
    tracer.wrap(service, "parse_body", "server.parse")
    tracer.wrap(service, "encode_payload", "payload.encode")
    tracer.wrap(service, "route", "service.route")
    for q in svc._queues:
        original_put = q.put

        def put(job, *rest, _put=original_put):
            if tracer.on and job is not None:
                queued[id(job[0])] = time.perf_counter()
            return _put(job, *rest)

        q.put = put
    tracer.wrap(service.ScoringService, "execute", "service.execute", before=note_start)
    tracer.wrap(service.ScoringService, "resolve_items", "service.resolve_items")
    tracer.wrap(cache.EmbeddingCache, "get", "cache.get", after=note_get)
    for mode in list(engine.MODES):
        tracer.wrap(engine.MODES, mode, "engine.score", keep_spans=True)
    # called once per segment (and layer) of a request: span totals only
    tracer.wrap(engine.KVPool, "write", "engine.kv_write", keep_calls=False)
    tracer.wrap(engine.KVPool, "gather", "engine.kv_gather", keep_calls=False)
    tracer.wrap(engine.KVPool, "alloc_rows", "engine.alloc", after=note_lease)
    tracer.wrap(engine.EngineModel, "embed", "engine.embed", keep_calls=False)
    tracer.wrap(engine.EngineModel, "head_probs", "engine.head", keep_calls=False)
    tracer.wrap(engine, "rope_tables", "engine.rope_tables", keep_calls=False)


def install_training(tracer: Tracer) -> None:
    """Stage-III steps: the forwards, losses, backward and optimizer step."""
    import mixrank.autodiff as autodiff
    import mixrank.mix as mix
    import mixrank.optim as optim
    import mixrank.train as train

    tracer.wrap(train, "teacher_predictions", "train.teacher_predictions", always=True)
    tracer.wrap(train, "mixed_outputs_batch", "train.mixed_forward")
    tracer.wrap(train, "fulltext_outputs_batch", "train.fulltext_forward")
    tracer.wrap(train, "kl", "losses.kl")
    tracer.wrap(train, "loss_hidden_align", "losses.hidden_align")
    tracer.wrap(autodiff.Tensor, "backward", "autodiff.backward")
    tracer.wrap(optim.AdamW, "step", "optim.step")
    tracer.wrap(mix, "forward_hidden", "model.forward_hidden")


def layer_metrics(trace: Trace, responses_report: list[dict] | None = None,
                  log_bytes_per_item: float = 0.0) -> dict[str, float]:
    t = trace
    reports = responses_report or []
    steps = "train.step"
    score = "engine.score"
    m = {
        "protocol.pack_us": (t.call_median("client.pack", US)
                             + t.call_median("server.pack", US)),
        "protocol.parse_us": (t.call_median("client.parse", US)
                              + t.call_median("server.parse", US)),
        "protocol.request_bytes": median(t.values("protocol.request_bytes")),
        "protocol.response_bytes": median(t.values("protocol.response_bytes")),
        "payload.encode_us": t.call_median("payload.encode", US),
        "payload.decode_us": t.call_median("payload.decode", US),
        "service.route_us": t.call_median("service.route", US),
        "service.queue_wait_ms": median(t.values("service.queue_wait")) * MS,
        "service.resolve_items_us": t.call_median("service.resolve_items", US),
        "service.execute_ms": t.call_median("service.execute", MS),
        "service.server_ms": median(t.values("service.server")) * MS,
        "cache.get_us": t.call_median("cache.get", US),
        "cache.hits": float(t.count("cache.hits")),
        "cache.misses": float(t.count("cache.misses")),
        "cache.put_us": t.call_median("cache.put", US),
        "cache.log_bytes_per_item": float(log_bytes_per_item),
        "cache.replay_ms": t.call_median("cache.open", MS),
        "engine.score_ms": t.call_median(score, MS),
        "engine.self_ms": t.self_median(score, MS),
        "engine.kv_write_ms": t.child_median(score, ("engine.kv_write",), MS),
        "engine.kv_gather_ms": t.child_median(score, ("engine.kv_gather",), MS),
        "engine.kv_calls": t.child_count_median(score, ("engine.kv_write", "engine.kv_gather")),
        "engine.embed_ms": t.child_median(score, ("engine.embed",), MS),
        "engine.rope_tables_ms": t.child_median(score, ("engine.rope_tables",), MS),
        "engine.head_ms": t.child_median(score, ("engine.head",), MS),
        "engine.attention_pairs": median([r["attention_pairs"] for r in reports]),
        "engine.linear_rows": median([r["linear_rows"] for r in reports]),
        "engine.lease_pages": median(t.values("engine.lease_pages")),
        "mix.encode_item_ms": t.call_median("mix.encode_item", MS),
        "model.forward_hidden_ms": t.call_median("model.forward_hidden", MS),
        "train.step_ms": median([s[""] for s in t.spans(steps)]) * MS,
        "train.mixed_forward_ms": t.child_median(steps, ("train.mixed_forward",), MS),
        "train.fulltext_forward_ms": t.child_median(steps, ("train.fulltext_forward",), MS),
        "autodiff.backward_ms": t.child_median(steps, ("autodiff.backward",), MS),
        "losses.kl_ms": t.child_median(steps, ("losses.kl",), MS),
        "losses.hidden_align_ms": t.child_median(steps, ("losses.hidden_align",), MS),
        "optim.step_ms": t.child_median(steps, ("optim.step",), MS),
        "train.self_ms": t.self_median(steps, MS),
        "train.teacher_predictions_s": t.call_median("train.teacher_predictions", 1.0),
    }
    if list(m) != [name for name, _, _ in PER_LAYER]:
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return m
