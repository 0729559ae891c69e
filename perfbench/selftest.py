"""Shows that the benchmark's output checks pass on the program's real outputs
and fail on corrupted copies of them.

    python3 perfbench/selftest.py

Runs each workload's own set-up and check code on a short run (about a
minute in all): `serve.prepare` and `serve.check` against a live service,
and `run.run_offline` with `run.check_train` / `run.check_encode` on the
run directory it leaves. Each corruption must be rejected by the check it
targets, named by a phrase of that check's failure message. Exits 0 only if
every real output was accepted and every corruption rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys

import bootstrap

bootstrap.pin_process()

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402

SEED = 5
RESULTS: list[tuple[str, bool]] = []


def expect(name: str, failures: list[str], mention: str | None = None) -> None:
    """`mention=None`: the output must be accepted; otherwise rejected with a
    failure that contains `mention`."""
    if mention is None:
        ok = not failures
    else:
        ok = any(mention in f for f in failures)
    RESULTS.append((name, ok))
    verdict = "rejected" if failures else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
          + (f" ({failures[0]})" if failures else ""), flush=True)


def _with_response(results: list, n: int, **changes) -> list:
    """A copy of `results` whose n-th response has the given fields replaced."""
    out = list(results)
    status, seconds, response, end = out[n]
    out[n] = (status, seconds, dataclasses.replace(response, **changes), end)
    return out


def serving(workload: str, tmp) -> None:
    import serve

    run_dir = tmp / workload
    run_dir.mkdir()
    setup = serve.prepare(workload, SEED, 1, run_dir)
    requests = setup.requests[:inputs.MIXLM_ROUND if setup.mixlm else inputs.FULLTEXT_ROUND]
    service = serve.ServiceProcess(run_dir, setup.ranker_path, setup.cache_path,
                                   setup.version, trace=False)
    try:
        results, _ = serve._closed_loop(service.host, service.port,
                                        setup.jobs(requests, "s"))

        def check(res: list) -> list[str]:
            return serve.check(SEED, setup, service, requests, res)

        expect(f"{workload}: real outputs", check(results))
        ok = [n for n, r in enumerate(results) if r[0] == "ok"]
        n = ok[0]
        p_yes = results[n][2].p_yes
        report = results[n][2].report
        bumped = results
        for k in ok:
            bumped = _with_response(bumped, k, p_yes=[None if p is None else p + 1e-8
                                                      for p in results[k][2].p_yes])
        expect(f"{workload}: every score perturbed by 1e-8", check(bumped), "served p_yes")
        if not setup.mixlm:
            return
        expect(f"{workload}: a score of 1.0",
               check(_with_response(results, n, p_yes=[*p_yes[:-1], 1.0])), "outside (0, 1)")
        expect(f"{workload}: a NaN score",
               check(_with_response(results, n, p_yes=[math.nan, *p_yes[1:]])),
               "outside (0, 1)")
        expect(f"{workload}: attention_pairs off by one",
               check(_with_response(results, n, report={
                   **report, "attention_pairs": report["attention_pairs"] + 1})),
               "closed form")
        expect(f"{workload}: linear_rows off by one",
               check(_with_response(results, n, report={
                   **report, "linear_rows": report["linear_rows"] - 1})),
               "closed form")
        first = next(k for k in ok if not requests[k].planted)
        scores = results[first][2].p_yes
        expect(f"{workload}: one score one ulp off the permuted re-send",
               check(_with_response(results, first, p_yes=[
                   float(np.nextafter(scores[0], 1.0)), *scores[1:]])),
               "permuted")
        unplanted = next(k for k in ok if not requests[k].planted and k != first)
        failed = list(results)
        failed[unplanted] = ("failed", "ConnectionError()", results[unplanted][-1])
        expect(f"{workload}: an unplanted request failed", check(failed),
               "names no missing item")
        planted = next(k for k, r in enumerate(requests) if r.planted)
        answered = list(results)
        answered[planted] = results[unplanted]
        expect(f"{workload}: a planted request answered without an item error",
               check(answered), "expected [")
    finally:
        service.close()


def training(tmp) -> None:
    import run

    run_dir = tmp / "train_joint"
    run_dir.mkdir()
    outcome = run.run_offline("train_joint", SEED, 1, False, run_dir)
    expect("train_joint: real outputs", outcome.failures)
    res = json.loads((run_dir / "result.json").read_text())
    expect("train_joint: first-step loss_sft off by 1e-6",
           run.check_train(SEED, {**res, "loss_sft_first": res["loss_sft_first"] * (1 + 1e-6)},
                           run_dir), "loss_sft")
    expect("train_joint: NDCG@10 off by 1e-9",
           run.check_train(SEED, {**res, "ndcg": res["ndcg"] + 1e-9}, run_dir), "NDCG@10")


def nearline(tmp) -> None:
    import offline
    import run
    from common import rounds_for

    run_dir = tmp / "encode_catalog"
    run_dir.mkdir()
    outcome = run.run_offline("encode_catalog", SEED, 1, False, run_dir)
    expect("encode_catalog: real outputs", outcome.failures)
    res = json.loads((run_dir / "result.json").read_text())
    expect("encode_catalog: a refresh call reported an error",
           run.check_encode(SEED, {**res, "failed": 1}, run_dir), "reported errors")

    rows = dict(np.load(run_dir / "rows.npz"))
    meta = json.loads((run_dir / "written.json").read_text())
    ids = [str(i) for i in rows["ids"]]
    stale_id = meta["updated"][0]
    batches = inputs.encode_batches(SEED, offline.ENCODE_WARMUP_CALLS
                                    + rounds_for("encode_catalog", 1, 1))
    first_text = next(t for b in batches for i, t in b if i == stale_id)
    stale_row = reference.encode_rows(reference.RefModel(run_dir / "encoder.ckpt"),
                                      first_text, 1)
    k = ids.index(stale_id)

    def corrupted(name: str, mention: str, *, rows_changes=None, meta_changes=None) -> None:
        bad = tmp / "encode_catalog-bad"
        shutil.copytree(run_dir, bad)
        try:
            if rows_changes:
                np.savez(bad / "rows.npz", **{**rows, **rows_changes})
            if meta_changes:
                (bad / "written.json").write_text(json.dumps({**meta, **meta_changes}))
            expect(f"encode_catalog: {name}", run.check_encode(SEED, res, bad), mention)
        finally:
            shutil.rmtree(bad)

    stale = rows["reopened"].copy()
    stale[k] = stale_row
    corrupted("the reopened cache holds a stale row", "differ from the last write",
              rows_changes={"reopened": stale})
    found = rows["found"].copy()
    found[k] = False
    corrupted("an id missing after reopen", "missing after reopen",
              rows_changes={"found": found})
    corrupted("an extra entry in the reopened cache", "entries",
              meta_changes={"reopened_len": meta["reopened_len"] + 1})
    corrupted("every row 2e-9 off the reference encoder", "reference encoding",
              rows_changes={"live": rows["live"] + 2e-9, "reopened": rows["reopened"] + 2e-9})


def main() -> int:
    bootstrap.import_program()
    tmp = bootstrap.RUNS / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        serving("serve_mixlm", tmp)
        serving("serve_fulltext", tmp)
        training(tmp)
        nearline(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    bad = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)}/{len(RESULTS)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
