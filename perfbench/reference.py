"""Plain dense numpy reference for the benchmark's output checks.

Nothing here imports the program. Weights come from the checkpoint files the
benchmark wrote, read with this file's own parser of the checkpoint layout
(records of ``u32 name_len | name | u8 dtype | u8 ndim | u32 dims | data``).
The forward is the textbook decoder block: RMS norm, rotary positions in the
split-half layout, causal softmax attention, SwiGLU, a final RMS norm and a
two-class softmax head.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

BOS, SEP, EOI = 64, 65, 66
RMS_EPS = 1e-6
ROPE_BASE = 10000.0
PROB_FLOOR = 1e-12
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1")}
_LAYER_FIELDS = ("wq", "wk", "wv", "wo", "attn_norm", "ffn_norm", "w_gate", "w_up", "w_down")


class RefModel:
    """Weights of one checkpoint as plain arrays."""

    def __init__(self, path: str | Path):
        blob = Path(path).read_bytes()
        tensors: dict[str, np.ndarray] = {}
        pos = 0
        while pos < len(blob):
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            name = blob[pos:pos + name_len].decode("utf-8")
            pos += name_len
            code, ndim = struct.unpack_from("<BB", blob, pos)
            pos += 2
            dims = struct.unpack_from(f"<{ndim}I", blob, pos)
            pos += 4 * ndim
            dtype = _DTYPES[code]
            size = math.prod(dims) * dtype.itemsize
            tensors[name] = np.frombuffer(blob[pos:pos + size], dtype=dtype).reshape(dims)
            pos += size
        meta = json.loads(tensors.pop("__meta__").tobytes().decode("utf-8"))
        cfg = meta["config"]
        self.heads = int(cfg["heads"])
        self.hidden = int(cfg["hidden"])
        self.head_dim = self.hidden // self.heads
        self.embedding = tensors["token_embedding"]
        self.final_norm = tensors["final_norm"]
        self.head = tensors.get("head_weight")
        self.layers = [{f: tensors[f"layers.{i}.{f}"] for f in _LAYER_FIELDS}
                       for i in range(int(cfg["layers"]))]


def _rms(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS) * gain


def _rope(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """x: (L, heads, head_dim); dims i and i + d/2 rotate together."""
    half = x.shape[-1] // 2
    freq = ROPE_BASE ** (-2.0 * np.arange(half) / x.shape[-1])
    angle = positions[:, None].astype(np.float64) * freq[None, :]
    cos, sin = np.cos(angle)[:, None, :], np.sin(angle)[:, None, :]
    a, b = x[..., :half], x[..., half:]
    return np.concatenate([a * cos - b * sin, b * cos + a * sin], axis=-1)


def forward(model: RefModel, x: np.ndarray) -> np.ndarray:
    """Causal forward over (L, hidden) input rows at positions 0..L-1."""
    n = x.shape[0]
    positions = np.arange(n)
    causal = np.tril(np.ones((n, n), dtype=bool))
    h = np.array(x, dtype=np.float64)
    for layer in model.layers:
        a = _rms(h, layer["attn_norm"])
        q = _rope((a @ layer["wq"]).reshape(n, model.heads, model.head_dim), positions)
        k = _rope((a @ layer["wk"]).reshape(n, model.heads, model.head_dim), positions)
        v = (a @ layer["wv"]).reshape(n, model.heads, model.head_dim)
        scores = np.einsum("qhd,khd->hqk", q, k) / math.sqrt(model.head_dim)
        scores = np.where(causal[None], scores, -np.inf)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        h = h + np.einsum("hqk,khd->qhd", weights, v).reshape(n, model.hidden) @ layer["wo"]
        f = _rms(h, layer["ffn_norm"])
        gate = f @ layer["w_gate"]
        h = h + (gate / (1.0 + np.exp(-gate)) * (f @ layer["w_up"])) @ layer["w_down"]
    return _rms(h, model.final_norm)


def head_probs(model: RefModel, h_last: np.ndarray) -> np.ndarray:
    logits = h_last @ model.head
    e = np.exp(logits - logits.max())
    return e / e.sum()


def encode_rows(encoder: RefModel, item_tokens, t_s: int) -> np.ndarray:
    """Last `t_s` encoder rows of [BOS] + item text."""
    ids = np.asarray([BOS, *item_tokens])
    return forward(encoder, encoder.embedding[ids])[-t_s:]


def mixed_probs(ranker: RefModel, prefix_tokens, item_rows: np.ndarray) -> np.ndarray:
    """(p_yes, p_no) of prefix tokens + item rows + [EOI]."""
    x = np.concatenate([ranker.embedding[np.asarray(prefix_tokens)], item_rows,
                        ranker.embedding[[EOI]]], axis=0)
    return head_probs(ranker, forward(ranker, x)[-1])


def fulltext_probs(ranker: RefModel, prefix_tokens, item_tokens) -> np.ndarray:
    ids = np.asarray([*prefix_tokens, *item_tokens, EOI])
    return head_probs(ranker, forward(ranker, ranker.embedding[ids])[-1])


def query_prefix(q_tokens) -> list[int]:
    return [BOS, *q_tokens, SEP]


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """Mean over rows of sum p ln(p / q), both floored at 1e-12 inside the log."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    terms = p * (np.log(np.maximum(p, PROB_FLOOR)) - np.log(np.maximum(q, PROB_FLOOR)))
    return float(np.mean(np.sum(terms, axis=-1)))


def ndcg10(scores, grades) -> float:
    """NDCG@10 with linear gains of the grades ranked by descending score."""
    order = sorted(range(len(grades)), key=lambda i: -scores[i])

    def dcg(gs):
        return sum(g / math.log2(rank + 2) for rank, g in enumerate(gs[:10]))

    ideal = dcg(sorted(grades, reverse=True))
    return 1.0 if ideal == 0 else dcg([grades[i] for i in order]) / ideal


def causal_counts(t_q: int, item_rows: list[int]) -> tuple[int, int]:
    """(attention_pairs, linear_rows) of one prefix-cached request.

    The prefix attends causally to itself; each item row attends to the whole
    prefix and causally within its own item.
    """
    pairs = t_q * (t_q + 1) // 2 + sum(n * t_q + n * (n + 1) // 2 for n in item_rows)
    return pairs, t_q + sum(item_rows)
