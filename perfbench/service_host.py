"""The scoring service as its own process, for the serving workloads.

    python3 perfbench/service_host.py --ranker R.ckpt --cache C.log --version V [--trace]

Opens the cache log (replaying it), starts `ScoringService` on an ephemeral
port and prints one JSON line with the port. It then reads commands from
stdin, one per line, and answers each with "ok": `on` / `off` switch span
recording, `dump PATH` writes the spans as JSON. End of stdin stops the
service and the process, so the service cannot outlive the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys

import bootstrap

bootstrap.pin_process()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ranker", required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--version", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    bootstrap.import_program()
    from mixrank.cache import EmbeddingCache
    from mixrank.checkpoint import load_params
    from mixrank.service import ScoringService

    tracer = None
    if args.trace:
        import probes
        from tracer import Tracer

        tracer = Tracer()
        tracer.wrap(EmbeddingCache, "__init__", "cache.open", always=True)
    ranker, _ = load_params(args.ranker)
    cache = EmbeddingCache(hidden=ranker.config.hidden, path=args.cache)
    service = ScoringService(ranker, cache, model_version=args.version)
    if tracer is not None:
        probes.install_server(tracer, service)
    host, port = service.start()
    print(json.dumps({"host": host, "port": port}), flush=True)
    try:
        for line in sys.stdin:
            command, _, rest = line.strip().partition(" ")
            if tracer is not None and command in ("on", "off"):
                tracer.on = command == "on"
            elif tracer is not None and command == "dump":
                with open(rest, "w") as fh:
                    json.dump(tracer.dump(), fh)
            print("ok", flush=True)
    finally:
        service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
