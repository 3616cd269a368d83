"""Miniature pre-norm encoder-decoder transformer with bottleneck adapters.

Parameters live in a ``ParamStore`` where every array carries a partition
tag: ``backbone`` (frozen after pretraining), ``adapter`` or ``norm`` (the
trainable set during meta-training and fine-tuning). Adapters are bottleneck
feed-forward layers with a residual connection, initialized so that they are
an exact identity map; enabling them changes nothing until they are trained.

Training runs ``forward_batch``, which builds an autodiff graph for the
teacher-forced NLL. Decoding runs the same encoder and decoder-layer code
one position at a time (``encode_source`` then ``decoder_step``), normally
inside ``autodiff.no_graph()``: the encoder memory's per-head keys and
values are projected once per source, and each layer's self-attention keys
and values grow by one position per step (``KVCache``). A cache holds one
row per hypothesis, so hypotheses of several equal-length sources decode in
one step; each row carries its own source's memory. Parameters may be
passed either as a ParamStore or as a name -> Node mapping, which is how
adapted (inner-loop updated) parameters flow through without touching the
store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Node

PARTITIONS = ("backbone", "adapter", "norm")

ADAPTER_SITES = ("enc_attn", "enc_ffn", "dec_attn", "dec_cross", "dec_ffn")

# One adapter after the self-attention sublayer and one after the
# feed-forward sublayer of every layer; none after decoder cross-attention.
DEFAULT_PLACEMENT = frozenset({"enc_attn", "enc_ffn", "dec_attn", "dec_ffn"})

NEG_FILL = -1e9


@dataclass(frozen=True)
class ModelConfig:
    d_model: int
    n_heads: int
    n_enc_layers: int
    n_dec_layers: int
    d_ff: int
    vocab_size: int
    max_len: int
    adapter_hidden: int = 128
    adapter_placement: frozenset = DEFAULT_PLACEMENT
    tie_embeddings: bool = True
    ln_eps: float = 1e-5

    def __post_init__(self):
        extents = (
            self.d_model,
            self.n_heads,
            self.n_enc_layers,
            self.n_dec_layers,
            self.d_ff,
            self.vocab_size,
            self.max_len,
        )
        if any(e <= 0 for e in extents):
            raise ValueError(f"all extents must be positive, got {extents}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.adapter_hidden < 0:
            raise ValueError("adapter_hidden must be >= 0")
        unknown = set(self.adapter_placement) - set(ADAPTER_SITES)
        if unknown:
            raise ValueError(f"unknown adapter sites: {sorted(unknown)}")
        if self.adapter_placement and self.adapter_hidden == 0:
            raise ValueError("adapter_hidden must be positive when adapters are placed")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


class ParamStore:
    """Named float64 parameter arrays, each tagged with a partition."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}
        self._partitions: dict[str, str] = {}

    def add(self, name: str, values: np.ndarray, partition: str) -> None:
        if name in self._arrays:
            raise ValueError(f"duplicate parameter {name!r}")
        if partition not in PARTITIONS:
            raise ValueError(f"unknown partition {partition!r} for {name!r}")
        self._arrays[name] = np.asarray(values, dtype=np.float64)
        self._partitions[name] = partition

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def set(self, name: str, values: np.ndarray) -> None:
        old = self._arrays[name]
        values = np.asarray(values, dtype=np.float64)
        if values.shape != old.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: {values.shape} vs {old.shape}"
            )
        self._arrays[name] = values

    def names(self) -> list[str]:
        return list(self._arrays)

    def partition(self, name: str) -> str:
        return self._partitions[name]

    def items(self):
        return self._arrays.items()

    def leaves(self) -> dict[str, Node]:
        return {name: ad.leaf(name, arr) for name, arr in self._arrays.items()}

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, arr in self._arrays.items():
            out.add(name, arr.copy(), self._partitions[name])
        return out


def partition_params(store: ParamStore) -> tuple[list[str], list[str]]:
    """Split names into (theta, phi): backbone vs adapters + normalization."""
    theta, phi = [], []
    for name in store.names():
        part = store.partition(name)
        if part == "backbone":
            theta.append(name)
        else:
            phi.append(name)
    return theta, phi


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

_INIT_STD = 0.02


def _adapter_prefixes(config: ModelConfig) -> list[str]:
    out = []
    for i in range(config.n_enc_layers):
        if "enc_attn" in config.adapter_placement:
            out.append(f"enc.{i}.adapter_attn")
        if "enc_ffn" in config.adapter_placement:
            out.append(f"enc.{i}.adapter_ffn")
    for i in range(config.n_dec_layers):
        if "dec_attn" in config.adapter_placement:
            out.append(f"dec.{i}.adapter_attn")
        if "dec_cross" in config.adapter_placement:
            out.append(f"dec.{i}.adapter_cross")
        if "dec_ffn" in config.adapter_placement:
            out.append(f"dec.{i}.adapter_ffn")
    return out


def param_layout(config: ModelConfig) -> list[tuple[str, tuple, str]]:
    """(name, shape, partition) for every parameter, without allocating.

    Single source of truth for initialization, checkpoint validation and
    accounting: ``build_model`` and ``insert_adapters`` create exactly these
    names and shapes, in this order.
    """
    d, dff = config.d_model, config.d_ff
    out: list[tuple[str, tuple, str]] = [
        ("tok_embed", (config.vocab_size, d), "backbone"),
        ("pos_enc", (config.max_len, d), "backbone"),
        ("pos_dec", (config.max_len, d), "backbone"),
    ]

    def linear(prefix, n_in, n_out):
        out.append((f"{prefix}.w", (n_in, n_out), "backbone"))
        out.append((f"{prefix}.b", (n_out,), "backbone"))

    def norm(prefix):
        out.append((f"{prefix}.gain", (d,), "norm"))
        out.append((f"{prefix}.bias", (d,), "norm"))

    for i in range(config.n_enc_layers):
        p = f"enc.{i}"
        norm(f"{p}.ln1")
        for proj in ("wq", "wk", "wv", "wo"):
            linear(f"{p}.attn.{proj}", d, d)
        norm(f"{p}.ln2")
        linear(f"{p}.ffn.w1", d, dff)
        linear(f"{p}.ffn.w2", dff, d)
    norm("enc.final_ln")

    for i in range(config.n_dec_layers):
        p = f"dec.{i}"
        norm(f"{p}.ln1")
        for proj in ("wq", "wk", "wv", "wo"):
            linear(f"{p}.self.{proj}", d, d)
        norm(f"{p}.ln2")
        for proj in ("wq", "wk", "wv", "wo"):
            linear(f"{p}.cross.{proj}", d, d)
        norm(f"{p}.ln3")
        linear(f"{p}.ffn.w1", d, dff)
        linear(f"{p}.ffn.w2", dff, d)
    norm("dec.final_ln")

    if not config.tie_embeddings:
        out.append(("out_proj", (d, config.vocab_size), "backbone"))

    for prefix in _adapter_prefixes(config):
        h = config.adapter_hidden
        out.append((f"{prefix}.wd", (d, h), "adapter"))
        out.append((f"{prefix}.bd", (h,), "adapter"))
        out.append((f"{prefix}.wu", (h, d), "adapter"))
        out.append((f"{prefix}.bu", (d,), "adapter"))
    return out


def _init_value(name: str, shape: tuple, rng: np.random.Generator,
                rng_adapter: np.random.Generator) -> np.ndarray:
    """Initial array for one parameter, keyed on the last name component.

    W_u and both adapter biases start at zero so the residual makes each
    adapter an exact identity at insertion; layer norms start at unit gain.
    """
    kind = name.rsplit(".", 1)[-1]
    if kind == "gain":
        return np.ones(shape)
    if kind == "wd":
        bound = 1.0 / np.sqrt(shape[0])
        return rng_adapter.uniform(-bound, bound, shape)
    if kind in ("b", "bias", "bd", "wu", "bu"):
        return np.zeros(shape)
    return rng.normal(0.0, _INIT_STD, shape)


def _init_into(store: ParamStore, config: ModelConfig, seed: int, partitions) -> ParamStore:
    """Add every missing ``param_layout`` entry of the given partitions, in layout order.

    Backbone weights draw from the stream ``[seed, 0]`` and adapter
    down-projections from ``[seed, 1]``.
    """
    rng = np.random.default_rng([int(seed), 0])
    rng_adapter = np.random.default_rng([int(seed), 1])
    for name, shape, partition in param_layout(config):
        if partition in partitions and name not in store:
            store.add(name, _init_value(name, shape, rng, rng_adapter), partition)
    return store


def build_model(config: ModelConfig, seed: int) -> ParamStore:
    """Deterministically initialize a ParamStore from (config, seed).

    Backbone and adapter parameters draw from independent seeded streams, so
    the backbone is bit-identical whether or not adapters are placed.
    """
    return _init_into(ParamStore(), config, seed, PARTITIONS)


def insert_adapters(store: ParamStore, config: ModelConfig, seed: int) -> ParamStore:
    """Return a copy of the store with identity-initialized adapters added.

    Used when a checkpoint was trained without adapters (stage a) and the
    next stage needs them. Existing arrays are copied bit-exactly.
    """
    return _init_into(store.copy(), config, seed, ("adapter",))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


@dataclass
class AdapterLayer:
    """Bottleneck adapter: up(relu(down(z))) + z, biases on both projections."""

    w_down: Node
    b_down: Node
    w_up: Node
    b_up: Node


def adapter_apply(adapter: AdapterLayer, z: Node) -> Node:
    hidden = ad.relu(ad.add(ad.matmul(z, adapter.w_down), adapter.b_down))
    return ad.add(ad.add(ad.matmul(hidden, adapter.w_up), adapter.b_up), z)


def as_nodes(params) -> Mapping[str, Node]:
    """Parameter leaves of a ParamStore; a name -> Node mapping passes through."""
    if isinstance(params, ParamStore):
        return params.leaves()
    return params


def _linear(p, prefix, x):
    return ad.add(ad.matmul(x, p[f"{prefix}.w"]), p[f"{prefix}.b"])


def _norm(p, prefix, x, eps):
    return ad.layer_norm(x, p[f"{prefix}.gain"], p[f"{prefix}.bias"], eps=eps)


def _maybe_adapter(p, prefix, x):
    if f"{prefix}.wd" not in p:
        return x
    layer = AdapterLayer(p[f"{prefix}.wd"], p[f"{prefix}.bd"], p[f"{prefix}.wu"], p[f"{prefix}.bu"])
    return adapter_apply(layer, x)


def _project_kv(p, prefix, keys):
    """One attention block's key and value projections, full width."""
    return _linear(p, f"{prefix}.wk", keys), _linear(p, f"{prefix}.wv", keys)


def _split_heads(config, k, v):
    """Per-head (transposed keys, values): heads are slices of the width."""
    dh = config.d_head
    return [
        (ad.transpose_last2(ad.slice_axis(k, -1, h * dh, (h + 1) * dh)),
         ad.slice_axis(v, -1, h * dh, (h + 1) * dh))
        for h in range(config.n_heads)
    ]


def _attend(p, prefix, config, queries, kv, mask, trace):
    """Multi-head attention of the queries over per-head (K^T, V)."""
    q = _linear(p, f"{prefix}.wq", queries)
    dh = config.d_head
    heads = []
    for h, (kt, vh) in enumerate(kv):
        qh = ad.slice_axis(q, -1, h * dh, (h + 1) * dh)
        scores = ad.scale(ad.matmul(qh, kt), 1.0 / np.sqrt(dh))
        if mask is not None:
            scores = ad.mask_fill(scores, mask, NEG_FILL)
        probs = ad.softmax_lastdim(scores)
        if trace is not None:
            trace.setdefault("attention", []).append(probs)
        heads.append(ad.matmul(probs, vh))
    merged = heads[0] if len(heads) == 1 else ad.concat(heads, axis=-1)
    return _linear(p, f"{prefix}.wo", merged)


def _embed(p, table_name, ids, pos_name, config, start=0):
    """Token plus position embeddings; ``ids`` sit at positions start, start+1, ..."""
    end = start + ids.shape[-1]
    if end > config.max_len:
        raise ValueError(f"sequence length {end} exceeds max_len {config.max_len}")
    if ids.size and ids.max() >= config.vocab_size:
        raise ValueError(f"token id {ids.max()} out of range for vocab {config.vocab_size}")
    tok = ad.embed_lookup(p[table_name], ids)
    pos = ad.embed_lookup(p[pos_name], np.arange(start, end))
    return ad.add(tok, pos)


def _encode(p, config, src, src_mask, trace):
    x = _embed(p, "tok_embed", src, "pos_enc", config)
    key_mask = None
    if src_mask is not None and not src_mask.all():
        key_mask = ~src_mask[:, None, :]  # (B, 1, S): hide pad keys
    for i in range(config.n_enc_layers):
        prefix = f"enc.{i}"
        h = _norm(p, f"{prefix}.ln1", x, config.ln_eps)
        kv = _split_heads(config, *_project_kv(p, f"{prefix}.attn", h))
        attn = _attend(p, f"{prefix}.attn", config, h, kv, key_mask, trace)
        x = ad.add(x, _maybe_adapter(p, f"{prefix}.adapter_attn", attn))
        h = _norm(p, f"{prefix}.ln2", x, config.ln_eps)
        ff = _linear(p, f"{prefix}.ffn.w2", ad.gelu(_linear(p, f"{prefix}.ffn.w1", h)))
        x = ad.add(x, _maybe_adapter(p, f"{prefix}.adapter_ffn", ff))
    return _norm(p, "enc.final_ln", x, config.ln_eps)


def _decoder_layer(p, config, i, x, past_kv, memory_kv, self_mask, cross_mask, trace):
    """One pre-norm decoder layer; returns (output, self-attention (K, V)).

    ``past_kv`` is the full-width self-attention (K, V) of earlier positions
    that ``x`` does not contain (incremental decoding), or None when ``x``
    spans the whole prefix. ``memory_kv`` is the cross-attention's per-head
    (K^T, V) of the encoder memory.
    """
    prefix = f"dec.{i}"
    h = _norm(p, f"{prefix}.ln1", x, config.ln_eps)
    k, v = _project_kv(p, f"{prefix}.self", h)
    if past_kv is not None:
        k = ad.concat([past_kv[0], k], axis=-2)
        v = ad.concat([past_kv[1], v], axis=-2)
    attn = _attend(p, f"{prefix}.self", config, h, _split_heads(config, k, v), self_mask, trace)
    x = ad.add(x, _maybe_adapter(p, f"{prefix}.adapter_attn", attn))
    h = _norm(p, f"{prefix}.ln2", x, config.ln_eps)
    cross = _attend(p, f"{prefix}.cross", config, h, memory_kv, cross_mask, trace)
    x = ad.add(x, _maybe_adapter(p, f"{prefix}.adapter_cross", cross))
    h = _norm(p, f"{prefix}.ln3", x, config.ln_eps)
    ff = _linear(p, f"{prefix}.ffn.w2", ad.gelu(_linear(p, f"{prefix}.ffn.w1", h)))
    x = ad.add(x, _maybe_adapter(p, f"{prefix}.adapter_ffn", ff))
    return x, (k, v)


def _output_logits(p, config, x):
    x = _norm(p, "dec.final_ln", x, config.ln_eps)
    if config.tie_embeddings:
        return ad.matmul(x, ad.transpose_last2(p["tok_embed"]))
    return ad.matmul(x, p["out_proj"])


def forward_batch(params, config: ModelConfig, src, tgt, src_mask=None, tgt_mask=None, trace=None) -> Node:
    """Teacher-forced decoder logits, shape (batch, prefix_len, vocab).

    ``src``/``tgt`` are int arrays (batch, len); the boolean masks flag real
    (non-pad) positions. Causal masking applies in decoder self-attention.
    """
    p = as_nodes(params)
    src = np.asarray(src, dtype=np.int64)
    tgt = np.asarray(tgt, dtype=np.int64)
    if src.ndim != 2 or tgt.ndim != 2:
        raise ValueError("forward_batch expects (batch, len) token arrays")

    memory = _encode(p, config, src, src_mask, trace)
    x = _embed(p, "tok_embed", tgt, "pos_dec", config)

    t = tgt.shape[1]
    causal = np.triu(np.ones((t, t), dtype=bool), k=1)
    self_mask = causal
    if tgt_mask is not None and not tgt_mask.all():
        self_mask = causal[None, :, :] | (~tgt_mask[:, None, :])
    cross_mask = None
    if src_mask is not None and not src_mask.all():
        cross_mask = ~src_mask[:, None, :]

    for i in range(config.n_dec_layers):
        memory_kv = _split_heads(config, *_project_kv(p, f"dec.{i}.cross", memory))
        x, _ = _decoder_layer(p, config, i, x, None, memory_kv, self_mask, cross_mask, trace)
    return _output_logits(p, config, x)


def forward(params, config: ModelConfig, src_tokens, tgt_prefix_tokens, trace=None) -> Node:
    """Single-example logits, shape (prefix_len, vocab)."""
    src = np.asarray(src_tokens, dtype=np.int64)[None, :]
    tgt = np.asarray(tgt_prefix_tokens, dtype=np.int64)[None, :]
    logits = forward_batch(params, config, src, tgt, trace=trace)
    return ad.reshape(logits, logits.value.shape[1:])


# ---------------------------------------------------------------------------
# incremental decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KVCache:
    """Attention keys and values for decoding, one row per hypothesis.

    ``memory[i]`` is decoder layer i's cross-attention per-head (K^T, V),
    projected from the encoder memory of each row's source. ``prefix[i]`` is
    its full-width self-attention (K, V) over the ``length`` positions
    decoded so far (None before the first step). Every row sits at the same
    position, and no row is broadcast over others.
    """

    memory: list
    prefix: list
    length: int

    def select(self, rows) -> "KVCache":
        """The cache with its rows reordered (or repeated) by ``rows``.

        Memory rows move together with prefix rows, so each hypothesis keeps
        its own source.
        """
        rows = np.asarray(rows, dtype=np.int64)
        memory = [_take_rows(heads, rows) for heads in self.memory]
        return KVCache(memory, _take_rows(self.prefix, rows), self.length)


def _take_rows(pairs, rows):
    return [(ad.constant(a.value[rows]), ad.constant(b.value[rows])) for a, b in pairs]


def encode_source(params, config: ModelConfig, src_tokens) -> KVCache:
    """Encode (B, S) equal-length sources into a cache of B rows.

    Each row gets its source's cross-attention keys and values; the sources
    carry no padding, so no mask is needed.
    """
    p = as_nodes(params)
    src = np.asarray(src_tokens, dtype=np.int64)
    memory = _encode(p, config, src, None, None)
    kv = [
        _split_heads(config, *_project_kv(p, f"dec.{i}.cross", memory))
        for i in range(config.n_dec_layers)
    ]
    return KVCache(kv, [None] * config.n_dec_layers, 0)


def decoder_step(params, config: ModelConfig, cache: KVCache, tokens) -> tuple[Node, KVCache]:
    """Logits (B, 1, vocab) for the position after ``tokens``, and the grown cache.

    ``tokens`` (B,) are the rows' last tokens, at position ``cache.length``;
    the cache holds the positions before it. Runs the same layer code as
    ``forward_batch``: no mask is needed, since a cache holds only earlier
    positions and the sources have no padding.
    """
    p = as_nodes(params)
    x = _embed(p, "tok_embed", np.asarray(tokens, dtype=np.int64)[:, None], "pos_dec",
               config, start=cache.length)
    prefix = []
    for i in range(config.n_dec_layers):
        x, kv = _decoder_layer(p, config, i, x, cache.prefix[i], cache.memory[i], None, None, None)
        prefix.append(kv)
    return _output_logits(p, config, x), KVCache(cache.memory, prefix, cache.length + 1)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def nll_loss(logits: Node, target_tokens, mean: bool = False) -> Node:
    """Negative log-likelihood of the targets, summed over positions.

    ``mean=True`` divides by the number of positions (optimizer scaling).
    """
    targets = np.asarray(target_tokens, dtype=np.int64)
    per_pos = ad.cross_entropy_with_logits(logits, targets)
    return ad.mean_all(per_pos) if mean else ad.sum_all(per_pos)


def batch_nll(logits: Node, targets, target_mask) -> Node:
    """Masked NLL over a padded batch: sum per pair, averaged over pairs."""
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(target_mask, dtype=np.float64)
    per_pos = ad.cross_entropy_with_logits(logits, targets)
    total = ad.sum_all(ad.mul(per_pos, ad.constant(mask)))
    return ad.scale(total, 1.0 / targets.shape[0])


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------


def param_counts(config: ModelConfig) -> tuple[int, int, float]:
    """(total, trainable, ratio) for a config, summed over ``param_layout``."""
    sizes = [(math.prod(shape), part) for _, shape, part in param_layout(config)]
    total = sum(n for n, _ in sizes)
    trainable = sum(n for n, part in sizes if part != "backbone")
    return total, trainable, trainable / total


def bart_large_config() -> ModelConfig:
    """BART-large-shaped dimensions for parameter accounting."""
    return ModelConfig(
        d_model=1024,
        n_heads=16,
        n_enc_layers=12,
        n_dec_layers=12,
        d_ff=4096,
        vocab_size=50265,
        max_len=1024,
        adapter_hidden=128,
    )
