"""Seeded inputs for every workload: catalog texts, queries and request rounds.

Every stream draws from ``numpy.random.default_rng([seed, stream, ...])`` so
the same seed always gives the same inputs, and no stream shifts another.
Token ids are body tokens in [0, 64); the query prefix is
``[BOS] query [SEP]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reference import query_prefix

DATA_VOCAB = 64
CATALOG_SIZE = 64          # served catalog; ids "item-000" .. "item-063"
FULLTEXT_TOKENS = 765      # + [EOI] = the 766-row full-text footprint of `mixrank.bench`
QUERY_TOKENS = 58          # + [BOS], [SEP] = a 60-token prefix
MISSING_ID = "item-posted-not-encoded"

# serve_mixlm: one round is 50 requests of 50 cached ids; 15 of them reuse one
# of 3 popular queries, and 1 names an id that is not in the cache. The repeat
# share is a placeholder, not taken from any query log (README.md).
MIXLM_ROUND = 50
MIXLM_ITEMS = 50
MIXLM_POPULAR_QUERIES = 3
MIXLM_POPULAR_PER_ROUND = 15
MIXLM_PLANTED_PER_ROUND = 1

# serve_fulltext: one round is 8 requests of 10 inline catalog texts, no repeats.
FULLTEXT_ROUND = 8
FULLTEXT_ITEMS = 10

# encode_catalog: one refresh call is 8 items of 200 tokens, 2 of them new
# texts for ids already written.
ENCODE_TOKENS = 200
ENCODE_BATCH = 8
ENCODE_UPDATES = 2
ENCODE_INITIAL = 16


def rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def tokens(gen: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(t) for t in gen.integers(0, DATA_VOCAB, n))


def catalog_id(index: int) -> str:
    return f"item-{index:03d}"


def catalog_text(seed: int, index: int) -> tuple[int, ...]:
    return tokens(rng(seed, 1, index), FULLTEXT_TOKENS)


@dataclass(frozen=True)
class Request:
    prefix: tuple[int, ...]
    item_ids: tuple[str, ...]  # catalog ids (serve_mixlm) or catalog ids whose text is sent
    planted: bool = False


def mixlm_requests(seed: int, rounds: int, stream: int = 2) -> list[Request]:
    popular = [query_prefix(tokens(rng(seed, stream, 0, p), QUERY_TOKENS))
               for p in range(MIXLM_POPULAR_QUERIES)]
    out = []
    for r in range(rounds):
        gen = rng(seed, stream, 1, r)
        slots = gen.permutation(MIXLM_ROUND)
        popular_slots = set(slots[:MIXLM_POPULAR_PER_ROUND].tolist())
        planted_slots = set(slots[MIXLM_POPULAR_PER_ROUND:MIXLM_POPULAR_PER_ROUND
                                  + MIXLM_PLANTED_PER_ROUND].tolist())
        for i in range(MIXLM_ROUND):
            if i in popular_slots:
                prefix = popular[int(gen.integers(0, MIXLM_POPULAR_QUERIES))]
            else:
                prefix = query_prefix(tokens(gen, QUERY_TOKENS))
            ids = [catalog_id(int(j)) for j in gen.choice(CATALOG_SIZE, MIXLM_ITEMS,
                                                          replace=False)]
            planted = i in planted_slots
            if planted:
                ids[int(gen.integers(0, MIXLM_ITEMS))] = MISSING_ID
            out.append(Request(prefix=tuple(prefix), item_ids=tuple(ids), planted=planted))
    return out


def fulltext_requests(seed: int, rounds: int, stream: int = 3) -> list[Request]:
    out = []
    for r in range(rounds):
        gen = rng(seed, stream, r)
        for _ in range(FULLTEXT_ROUND):
            prefix = query_prefix(tokens(gen, QUERY_TOKENS))
            ids = [catalog_id(int(j)) for j in gen.choice(CATALOG_SIZE, FULLTEXT_ITEMS,
                                                          replace=False)]
            out.append(Request(prefix=tuple(prefix), item_ids=tuple(ids)))
    return out


def encode_batches(seed: int, calls: int, stream: int = 4):
    """Refresh micro-batches: a list of [(item_id, tokens)] per call.

    The first batch is the initial catalog; every later one mixes fresh ids
    with new texts for ids already written.
    """
    gen = rng(seed, stream)
    written: list[str] = []
    batches = [[(f"enc-{i:05d}", tokens(gen, ENCODE_TOKENS)) for i in range(ENCODE_INITIAL)]]
    written.extend(item_id for item_id, _ in batches[0])
    for _ in range(calls):
        updates = gen.choice(len(written), ENCODE_UPDATES, replace=False)
        batch = [(written[int(u)], tokens(gen, ENCODE_TOKENS)) for u in updates]
        for _ in range(ENCODE_BATCH - ENCODE_UPDATES):
            item_id = f"enc-{len(written):05d}"
            written.append(item_id)
            batch.append((item_id, tokens(gen, ENCODE_TOKENS)))
        order = gen.permutation(ENCODE_BATCH)
        batches.append([batch[int(i)] for i in order])
    return batches
