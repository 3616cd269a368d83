"""Miniature pre-norm encoder-decoder transformer with bottleneck adapters.

Parameters live in a ``ParamStore`` where every array carries a partition
tag: ``backbone`` (frozen after pretraining), ``adapter`` or ``norm`` (the
trainable set during meta-training and fine-tuning). Adapters are bottleneck
feed-forward layers with a residual connection, initialized so that they are
an exact identity map; enabling them changes nothing until they are trained.

There is one encoder (``_encode``, which ends in each decoder layer's
cross-attention keys and values) and one decoder stack (``_decode``:
embedding, decoder layers, output head). Training runs ``forward_batch``,
one ``_decode`` of the whole teacher-forced prefix, which builds an autodiff
graph for the NLL. It is rank-generic: token arrays are (batch, len), or
(n_tasks, batch, len) for a MAML meta-batch whose tasks are stacked on a
leading axis. A stacked forward takes parameters that carry the same task
axis, such as an adapter down-projection of shape (n_tasks, 1, d, h) against
activations (n_tasks, batch, len, d); frozen weights stay unstacked and
broadcast. Masks and ``batch_nll`` follow the leading axes, so each task's
rows see only their own values. Decoding runs the same two functions
(``encode_source`` is ``_encode``, ``decoder_step`` a one-position
``_decode``), normally inside ``autodiff.no_graph()``: the encoder memory's
per-head keys and values are projected once per source, and each layer's
self-attention keys and values grow by one position per step
(``KVCache``). A cache holds one row per hypothesis, so hypotheses of
several equal-length sources decode in one step; each row carries its own
source's memory.

Parameters may be passed either as a ParamStore or as a name -> Node
mapping, which is how adapted (inner-loop updated) parameters flow through
without touching the store. ``as_nodes`` is the one leaf rule: a store
enters the model frozen, every leaf without the requires-gradient bit
unless named trainable, so a forward on a store marks no value for a
backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Node

PARTITIONS = ("backbone", "adapter", "norm")

ADAPTER_SITES = ("enc_attn", "enc_ffn", "dec_attn", "dec_cross", "dec_ffn")

# One adapter after the self-attention sublayer and one after the
# feed-forward sublayer of every layer; none after decoder cross-attention.
DEFAULT_PLACEMENT = frozenset({"enc_attn", "enc_ffn", "dec_attn", "dec_ffn"})

NEG_FILL = -1e9


def check_count(name: str, value, low: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an int, not a bool, and >= ``low``.

    The one check of every integer config field: a NaN, an infinity or 2.5
    fails here instead of later, in ``range`` or an array shape.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


def finite_number(value) -> bool:
    """Whether ``value`` is an int or a finite float, not a bool (a real config field's test)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)


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
        for name in ("d_model", "n_heads", "n_enc_layers", "n_dec_layers", "d_ff",
                     "vocab_size", "max_len"):
            check_count(name, getattr(self, name), 1)
        check_count("adapter_hidden", self.adapter_hidden, 0)
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not (finite_number(self.ln_eps) and self.ln_eps > 0):
            raise ValueError(f"ln_eps must be finite and positive, got {self.ln_eps!r}")
        if not isinstance(self.tie_embeddings, bool):
            raise ValueError(f"tie_embeddings must be a bool, got {self.tie_embeddings!r}")
        try:
            unknown = set(self.adapter_placement) - set(ADAPTER_SITES)
        except TypeError:
            raise ValueError(f"adapter_placement must be a set of adapter sites, "
                             f"got {self.adapter_placement!r}") from None
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

    def leaves(self, trainable: Iterable[str] | None = None) -> dict[str, Node]:
        """One leaf per parameter: each trainable, or only the names in ``trainable``.

        A frozen leaf takes no gradient, so no value is kept for one.
        """
        keep = None if trainable is None else set(trainable)
        return {name: ad.leaf(name, arr, keep is None or name in keep)
                for name, arr in self._arrays.items()}

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

    def attention(prefix):
        linear(f"{prefix}.wq", d, d)
        # No key bias: it shifts all of a query's scores alike, which softmax ignores.
        out.append((f"{prefix}.wk.w", (d, d), "backbone"))
        linear(f"{prefix}.wv", d, d)
        linear(f"{prefix}.wo", d, d)

    for i in range(config.n_enc_layers):
        p = f"enc.{i}"
        norm(f"{p}.ln1")
        attention(f"{p}.attn")
        norm(f"{p}.ln2")
        linear(f"{p}.ffn.w1", d, dff)
        linear(f"{p}.ffn.w2", dff, d)
    norm("enc.final_ln")

    for i in range(config.n_dec_layers):
        p = f"dec.{i}"
        norm(f"{p}.ln1")
        attention(f"{p}.self")
        norm(f"{p}.ln2")
        attention(f"{p}.cross")
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


def adapter_apply(p, prefix: str, z: Node) -> Node:
    """Bottleneck adapter ``prefix``: up(relu(down(z))) + z, biases on both projections."""
    hidden = ad.relu(ad.add(ad.matmul(z, p[f"{prefix}.wd"]), p[f"{prefix}.bd"]))
    return ad.add(ad.add(ad.matmul(hidden, p[f"{prefix}.wu"]), p[f"{prefix}.bu"]), z)


def as_nodes(params, trainable: Iterable[str] = ()) -> dict[str, Node]:
    """The one leaf rule: a ParamStore's leaves, or a copy of a name -> Node mapping.

    Of a store's leaves only the names in ``trainable`` take gradients, none
    by default, so a forward on a store (validation, scoring, decoding)
    marks no value for a ``backward`` that cannot reach it. A mapping's
    nodes keep their own requires-gradient bits.
    """
    if isinstance(params, ParamStore):
        return params.leaves(trainable)
    return dict(params)


def _linear(p, prefix, x):
    return ad.add(ad.matmul(x, p[f"{prefix}.w"]), p[f"{prefix}.b"])


def _norm(p, prefix, x, eps):
    return ad.layer_norm(x, p[f"{prefix}.gain"], p[f"{prefix}.bias"], eps=eps)


def _maybe_adapter(p, prefix, x):
    if f"{prefix}.wd" not in p:
        return x
    return adapter_apply(p, prefix, x)


def _project_kv(p, prefix, keys):
    """One attention block's key and value projections, full width; keys take no bias."""
    return ad.matmul(keys, p[f"{prefix}.wk.w"]), _linear(p, f"{prefix}.wv", keys)


def _split_heads(config, k, v):
    """Per-head (keys, values): heads are slices of the width."""
    dh = config.d_head
    return [
        (ad.slice_axis(k, -1, h * dh, (h + 1) * dh), ad.slice_axis(v, -1, h * dh, (h + 1) * dh))
        for h in range(config.n_heads)
    ]


def _attend(p, prefix, config, queries, kv, mask):
    """Multi-head attention of the queries over per-head (K, V)."""
    q = _linear(p, f"{prefix}.wq", queries)
    dh = config.d_head
    heads = []
    for h, (kh, vh) in enumerate(kv):
        qh = ad.slice_axis(q, -1, h * dh, (h + 1) * dh)
        scores = ad.scale(ad.matmul(qh, kh, trans_b=True), 1.0 / np.sqrt(dh))
        if mask is not None:
            scores = ad.mask_fill(scores, mask, NEG_FILL)
        heads.append(ad.matmul(ad.softmax_lastdim(scores), vh))
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


def _encode(p, config, src, key_mask):
    """Each decoder layer's cross-attention per-head (K, V) of the encoded ``src``.

    ``key_mask`` hides pad keys, (..., B, 1, S), or is None when no source
    position is padding.
    """
    x = _embed(p, "tok_embed", src, "pos_enc", config)
    for i in range(config.n_enc_layers):
        prefix = f"enc.{i}"
        h = _norm(p, f"{prefix}.ln1", x, config.ln_eps)
        kv = _split_heads(config, *_project_kv(p, f"{prefix}.attn", h))
        attn = _attend(p, f"{prefix}.attn", config, h, kv, key_mask)
        x = ad.add(x, _maybe_adapter(p, f"{prefix}.adapter_attn", attn))
        h = _norm(p, f"{prefix}.ln2", x, config.ln_eps)
        ff = _linear(p, f"{prefix}.ffn.w2", ad.gelu(_linear(p, f"{prefix}.ffn.w1", h)))
        x = ad.add(x, _maybe_adapter(p, f"{prefix}.adapter_ffn", ff))
    memory = _norm(p, "enc.final_ln", x, config.ln_eps)
    return [_split_heads(config, *_project_kv(p, f"dec.{i}.cross", memory))
            for i in range(config.n_dec_layers)]


def _decoder_layer(p, config, i, x, past_kv, memory_kv, self_mask, cross_mask):
    """One pre-norm decoder layer; returns (output, self-attention (K, V)).

    ``past_kv`` is the full-width self-attention (K, V) of earlier positions
    that ``x`` does not contain (incremental decoding), or None when ``x``
    starts at position 0. ``memory_kv`` is the cross-attention's per-head
    (K, V) of the encoder memory.
    """
    prefix = f"dec.{i}"
    h = _norm(p, f"{prefix}.ln1", x, config.ln_eps)
    k, v = _project_kv(p, f"{prefix}.self", h)
    if past_kv is not None:
        k = ad.concat([past_kv[0], k], axis=-2)
        v = ad.concat([past_kv[1], v], axis=-2)
    attn = _attend(p, f"{prefix}.self", config, h, _split_heads(config, k, v), self_mask)
    x = ad.add(x, _maybe_adapter(p, f"{prefix}.adapter_attn", attn))
    h = _norm(p, f"{prefix}.ln2", x, config.ln_eps)
    cross = _attend(p, f"{prefix}.cross", config, h, memory_kv, cross_mask)
    x = ad.add(x, _maybe_adapter(p, f"{prefix}.adapter_cross", cross))
    h = _norm(p, f"{prefix}.ln3", x, config.ln_eps)
    ff = _linear(p, f"{prefix}.ffn.w2", ad.gelu(_linear(p, f"{prefix}.ffn.w1", h)))
    x = ad.add(x, _maybe_adapter(p, f"{prefix}.adapter_ffn", ff))
    return x, (k, v)


def _decode(p, config, memory, past, start, tokens, self_mask, cross_mask):
    """(logits, each layer's self-attention (K, V)) for ``tokens`` at positions start, ...

    The one decoder stack: embedding, the decoder layers and the output
    head. ``memory`` and ``past`` hold one entry per decoder layer, the
    cross-attention per-head (K, V) from ``_encode`` and the self-attention
    (K, V) of the positions before ``start`` (None when ``start`` is 0).
    """
    x = _embed(p, "tok_embed", tokens, "pos_dec", config, start)
    kv = []
    for i in range(config.n_dec_layers):
        x, layer_kv = _decoder_layer(p, config, i, x, past[i], memory[i], self_mask, cross_mask)
        kv.append(layer_kv)
    x = _norm(p, "dec.final_ln", x, config.ln_eps)
    if config.tie_embeddings:
        return ad.matmul(x, p["tok_embed"], trans_b=True), kv
    return ad.matmul(x, p["out_proj"]), kv


def forward_batch(params, config: ModelConfig, src, tgt, src_mask=None, tgt_mask=None) -> Node:
    """Teacher-forced decoder logits, shape (..., batch, prefix_len, vocab).

    ``src``/``tgt`` are int arrays (batch, len), or (n_tasks, batch, len) for
    stacked tasks; the boolean masks flag real (non-pad) positions. One
    ``_decode`` of the whole prefix from an empty cache, with causal masking
    in decoder self-attention; pad source keys are hidden from both the
    encoder and the cross-attention by one key mask. A ParamStore enters
    frozen (see ``as_nodes``).
    """
    p = as_nodes(params)
    src = np.asarray(src, dtype=np.int64)
    tgt = np.asarray(tgt, dtype=np.int64)
    if src.ndim < 2 or src.shape[:-1] != tgt.shape[:-1]:
        raise ValueError(
            "forward_batch expects (..., batch, len) token arrays with equal leading axes, "
            f"got {src.shape} and {tgt.shape}"
        )
    key_mask = None
    if src_mask is not None and not src_mask.all():
        key_mask = ~src_mask[..., None, :]  # (..., B, 1, S): hide pad keys
    t = tgt.shape[-1]
    self_mask = np.triu(np.ones((t, t), dtype=bool), k=1)
    if tgt_mask is not None and not tgt_mask.all():
        self_mask = self_mask | ~tgt_mask[..., None, :]
    memory = _encode(p, config, src, key_mask)
    logits, _ = _decode(p, config, memory, [None] * config.n_dec_layers, 0, tgt, self_mask,
                        key_mask)
    return logits


# ---------------------------------------------------------------------------
# incremental decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KVCache:
    """Attention keys and values for decoding, one row per hypothesis.

    ``memory[i]`` is decoder layer i's cross-attention per-head (K, V),
    projected from the encoder memory of each row's source. ``prefix[i]`` is
    its full-width self-attention (K, V) over the ``length`` positions
    decoded so far (None before the first step). Every row sits at the same
    position, and no row is broadcast over others. A row is one hypothesis
    of any search: greedy rows and beam hypotheses of many sources share
    one cache.
    """

    memory: list
    prefix: list
    length: int

    def select(self, rows) -> "KVCache":
        """The cache with its rows reordered (or repeated) by ``rows``.

        Memory rows move together with prefix rows, so each hypothesis keeps
        its own source. A fresh cache (no position decoded) keeps its empty
        prefix, so one source can start several hypotheses.
        """
        rows = np.asarray(rows, dtype=np.int64)
        memory = [_take_rows(heads, rows) for heads in self.memory]
        prefix = self.prefix if self.length == 0 else _take_rows(self.prefix, rows)
        return KVCache(memory, prefix, self.length)


def _take_rows(pairs, rows):
    return [(ad.constant(a.value[rows]), ad.constant(b.value[rows])) for a, b in pairs]


def encode_source(params, config: ModelConfig, src_tokens) -> KVCache:
    """Encode (B, S) equal-length sources into a cache of B rows: ``_encode``, unmasked.

    Each row gets its source's cross-attention keys and values; the sources
    carry no padding, so no mask is needed.
    """
    p = as_nodes(params)
    memory = _encode(p, config, np.asarray(src_tokens, dtype=np.int64), None)
    return KVCache(memory, [None] * config.n_dec_layers, 0)


def decoder_step(params, config: ModelConfig, cache: KVCache, tokens) -> tuple[Node, KVCache]:
    """Logits (B, 1, vocab) for the position after ``tokens``, and the grown cache.

    ``tokens`` (B,) are the rows' last tokens, at position ``cache.length``;
    the cache holds the positions before it. A one-position ``_decode``, the
    decoder stack of ``forward_batch``: no mask is needed, since a cache
    holds only earlier positions and the sources have no padding.
    """
    p = as_nodes(params)
    tokens = np.asarray(tokens, dtype=np.int64)[:, None]
    logits, prefix = _decode(p, config, cache.memory, cache.prefix, cache.length, tokens,
                             None, None)
    return logits, KVCache(cache.memory, prefix, cache.length + 1)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def batch_nll(logits: Node, targets, target_mask) -> Node:
    """Masked NLL over a padded batch: sum per pair, averaged over pairs.

    A scalar for (batch, len) targets; for stacked (n_tasks, batch, len)
    targets, one such loss per task, shape (n_tasks, 1, 1).
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(target_mask, dtype=np.float64)
    per_pos = ad.cross_entropy_with_logits(logits, targets)
    masked = ad.mul(per_pos, ad.constant(mask))
    lead = targets.shape[:-2]
    total = ad.sum_to(masked, lead + (1, 1)) if lead else ad.sum_all(masked)
    return ad.scale(total, 1.0 / targets.shape[-2])


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
