"""Output checks. Each takes plain outputs and returns a list of failures.

The checks compare what the program produced with what `reference` computes
on its own, or with an invariant that holds whatever the program's internals.
`selftest.py` feeds each one a corrupted output and expects a failure.
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-9


def scores_in_range(responses: list[list[float | None]]) -> list[str]:
    """Every score returned is a finite number strictly inside (0, 1)."""
    bad = []
    for r, scores in enumerate(responses):
        for i, p in enumerate(scores):
            if p is not None and not (math.isfinite(p) and 0.0 < p < 1.0):
                bad.append(f"request {r} item {i}: score {p!r} outside (0, 1)")
    return bad[:5]


def counters_match(reports: list[dict], expected: list[tuple[int, int]]) -> list[str]:
    """Each response's (attention_pairs, linear_rows) equals the closed-form count."""
    bad = []
    for r, (report, (pairs, rows)) in enumerate(zip(reports, expected, strict=True)):
        got = (report["attention_pairs"], report["linear_rows"])
        if got != (pairs, rows):
            bad.append(f"request {r}: counters {got} != closed form {(pairs, rows)}")
    return bad[:5]


def close_to_reference(served: list[float], reference: list[float],
                       what: str, tol: float = TOLERANCE) -> list[str]:
    bad = []
    for i, (got, want) in enumerate(zip(served, reference, strict=True)):
        if not abs(got - want) <= tol:
            bad.append(f"{what} {i}: program {got!r} vs reference {want!r}")
    return bad


def permutation_invariant(original: list[float], permuted: list[float],
                          order: list[int]) -> list[str]:
    """`permuted[k]` scored item `order[k]`; scores must be bitwise equal per item."""
    bad = []
    for k, i in enumerate(order):
        if permuted[k] != original[i]:
            bad.append(f"item {i}: {original[i]!r} in order, {permuted[k]!r} permuted")
    return bad


def only_planted_failed(planted: list[bool], failed: list[bool],
                        item_errors: list[list[str | None]],
                        missing_slots: list[int | None]) -> list[str]:
    """Unplanted requests all succeed with no item errors; a planted request either
    fails whole or answers with an error on exactly its missing item."""
    bad = []
    for r, (is_planted, did_fail) in enumerate(zip(planted, failed, strict=True)):
        if did_fail:
            if not is_planted:
                bad.append(f"request {r} failed but names no missing item")
            continue
        errored = [i for i, e in enumerate(item_errors[r]) if e is not None]
        want = [missing_slots[r]] if is_planted else []
        if errored != want:
            bad.append(f"request {r}: item errors at {errored}, expected {want}")
    return bad[:5]


def rows_match(program: dict[str, np.ndarray], reference: dict[str, np.ndarray],
               tol: float = TOLERANCE) -> list[str]:
    bad = []
    for item_id, want in reference.items():
        got = program.get(item_id)
        if got is None or got.shape != want.shape or not np.all(np.abs(got - want) <= tol):
            bad.append(f"{item_id}: rows read back differ from the reference encoding")
    return bad[:5]


def cache_holds_exactly(written: list[str], reopened_len: int,
                        live: dict[str, np.ndarray], reopened: dict[str, np.ndarray]
                        ) -> list[str]:
    """The reopened log holds each distinct id written once, with its last write."""
    distinct = set(written)
    bad = []
    if reopened_len != len(distinct):
        bad.append(f"reopened cache holds {reopened_len} entries, {len(distinct)} ids written")
    for item_id in sorted(distinct):
        got = reopened.get(item_id)
        if got is None:
            bad.append(f"{item_id} missing after reopen")
        elif not np.array_equal(got, live[item_id]):
            bad.append(f"{item_id}: reopened rows differ from the last write")
    return bad[:5]


def scalar_matches(name: str, program: float, reference: float,
                   tol: float) -> list[str]:
    if not abs(program - reference) <= tol * max(1.0, abs(reference)):
        return [f"{name}: program {program!r} vs reference {reference!r}"]
    return []
