"""Three-stage training pipeline and checkpointing.

Stage (a) pretrains the backbone on a token-denoising objective (mask +
delete corruption, reconstruct the original). Stage (b) inserts identity
adapters and meta-trains them on labeled source domains with the backbone
frozen. Stage (c) fine-tunes the adapters on the target domain, either by
re-running the meta algorithm over target-sampled tasks or by plain NLL
minimization.

Checkpoints are a small binary format (magic ``LAPA``): bit-exact roundtrip,
float32 payloads, a provenance chain of parent-file hashes that enforces the
stage ordering, and an embedded vocabulary so decoding needs nothing else.
Each stage returns its store rounded to the float32 grid, exactly the values
that a reload of its checkpoint gives, so a chain run in memory and the same
chain resumed from disk are bit-identical.

A checkpoint has one byte form: ``checkpoint_from_bytes`` accepts config
text only as ``_config_text`` renders the parsed checkpoint, and records only
in strictly increasing name order, so a loaded checkpoint's
``content_hash()`` is its file's sha256. There is no checksum, so a flipped
payload bit loads as another value: adding one would change every
checkpoint's bytes, and so every pinned chain hash.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import data as dt
from . import meta as mt
from . import model as mm

MAGIC = b"LAPA"
FORMAT_VERSION = 1

STAGES = ("pretrained", "meta_trained", "finetuned")

_PARTITION_CODE = {"backbone": 0, "adapter": 1, "norm": 2}
_PARTITION_NAME = {v: k for k, v in _PARTITION_CODE.items()}


class CheckpointError(ValueError):
    """Corrupt file, version mismatch, or config/parameter inconsistency."""


class StageOrderError(ValueError):
    """A stage received a checkpoint from the wrong point in the chain."""


def derive_seed(seed: int, name: str) -> int:
    """Stable sub-seed: first 4 little-endian bytes of sha256('seed/name')."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


# ---------------------------------------------------------------------------
# denoising corruption
# ---------------------------------------------------------------------------


@dataclass
class NoiseConfig:
    mask_prob: float = 0.3
    delete_prob: float = 0.1

    def __post_init__(self):
        for p in (self.mask_prob, self.delete_prob):
            if not (mm.finite_number(p) and 0.0 <= p <= 1.0):
                raise ValueError(f"corruption probabilities must be in [0, 1], got {p!r}")


def corrupt(tokens, noise: NoiseConfig, rng: np.random.Generator) -> np.ndarray:
    """Mask then delete non-marker tokens, independently per position.

    Masked tokens become ``data.MASK``. The pattern is a pure function of
    (tokens, noise, rng state).
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    marker = (tokens == dt.BOS) | (tokens == dt.EOS)
    masked = np.where(~marker & (rng.random(tokens.shape) < noise.mask_prob), dt.MASK, tokens)
    keep = marker | (rng.random(tokens.shape) >= noise.delete_prob)
    return masked[keep]


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    config: mm.ModelConfig
    stage: str
    seeds: dict[str, int]
    provenance: list[str]
    store: mm.ParamStore
    vocab: dt.Vocab | None = None

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        wanted = {"pretrained": (0,), "meta_trained": (1,), "finetuned": (1, 2)}
        if len(self.provenance) not in wanted[self.stage]:
            raise ValueError(
                f"stage {self.stage!r} cannot have {len(self.provenance)} parents"
            )
        if self.vocab is not None and len(self.vocab) != self.config.vocab_size:
            raise ValueError(
                f"embedded vocab has {len(self.vocab)} tokens, "
                f"model vocab_size is {self.config.vocab_size}"
            )

    def content_hash(self) -> str:
        return hashlib.sha256(checkpoint_bytes(self)).hexdigest()


def _encode_field(value) -> str:
    if isinstance(value, frozenset):
        return " ".join(sorted(value))
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _decode_field(text: str, kind: str):
    """Inverse of ``_encode_field`` for a ModelConfig field annotated ``kind``."""
    if kind == "frozenset":
        return frozenset(text.split())
    if kind == "bool":
        return bool(int(text))
    return {"int": int, "float": float}[kind](text)


def _config_text(ckpt: Checkpoint) -> str:
    lines = [
        f"stage = {ckpt.stage}",
        f"provenance = {' '.join(ckpt.provenance)}",
    ]
    for name in sorted(ckpt.seeds):
        lines.append(f"seed.{name} = {ckpt.seeds[name]}")
    for f in fields(mm.ModelConfig):
        lines.append(f"model.{f.name} = {_encode_field(getattr(ckpt.config, f.name))}")
    if ckpt.vocab is not None:
        lines.append(f"vocab = {' '.join(ckpt.vocab.tokens())}")
    return "\n".join(lines) + "\n"


def _parse_config_text(text: str) -> tuple[mm.ModelConfig, str, dict, list, dt.Vocab | None]:
    entries: dict[str, str] = {}
    for line in text.splitlines():
        if "=" not in line:
            raise CheckpointError(f"malformed config line {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = value

    try:
        config = mm.ModelConfig(**{
            f.name: _decode_field(entries[f"model.{f.name}"], f.type)
            for f in fields(mm.ModelConfig)
        })
        stage = entries["stage"]
        provenance = entries["provenance"].split()
    except KeyError as exc:
        raise CheckpointError(f"config text missing field {exc}") from exc

    seeds = {
        key[len("seed."):]: int(value)
        for key, value in entries.items()
        if key.startswith("seed.")
    }
    vocab = None
    if "vocab" in entries:  # one without the reserved tokens fails the canonical check
        vocab = dt.Vocab(entries["vocab"].split()[len(dt.RESERVED):])
    return config, stage, seeds, provenance, vocab


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    config_blob = _config_text(ckpt).encode("utf-8")
    buf.write(struct.pack("<I", len(config_blob)))
    buf.write(config_blob)
    for name in sorted(ckpt.store.names()):
        arr = ckpt.store[name]
        name_blob = name.encode("utf-8")
        buf.write(struct.pack("<I", len(name_blob)))
        buf.write(name_blob)
        buf.write(struct.pack("<B", _PARTITION_CODE[ckpt.store.partition(name)]))
        buf.write(struct.pack("<B", arr.ndim))
        for extent in arr.shape:
            buf.write(struct.pack("<Q", extent))
        buf.write(_float32(name, arr).tobytes())
    return buf.getvalue()


def _float32(name: str, arr: np.ndarray) -> np.ndarray:
    """The ``<f4`` payload of a parameter; one that overflows float32 is rejected."""
    with np.errstate(over="ignore"):
        payload = arr.astype("<f4")
    if not np.isfinite(payload).all():
        raise CheckpointError(f"parameter {name!r} is not finite as float32")
    return payload


def _on_float32_grid(store: mm.ParamStore) -> mm.ParamStore:
    """Round a stage's store in place to the values its checkpoint reloads as."""
    for name in store.names():
        store.set(name, _float32(name, store[name]))
    return store


def _read_exact(buf: io.BytesIO, n: int, what: str) -> bytes:
    # Bounded before reading: buf.read raises OverflowError for n past the index range.
    if n > len(buf.getbuffer()) - buf.tell():
        raise CheckpointError(f"corrupt checkpoint: truncated while reading {what}")
    return buf.read(n)


def checkpoint_from_bytes(blob: bytes) -> Checkpoint:
    """Parse checkpoint bytes; any malformed content raises ``CheckpointError``."""
    try:
        return _parse_checkpoint(io.BytesIO(blob))
    except CheckpointError:
        raise
    except ValueError as exc:  # a bad config value, a bad stage, non-UTF-8 text
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc


def _parse_checkpoint(buf: io.BytesIO) -> Checkpoint:
    if _read_exact(buf, 4, "magic") != MAGIC:
        raise CheckpointError("corrupt checkpoint: bad magic bytes")
    (version,) = struct.unpack("<I", _read_exact(buf, 4, "version"))
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
        )
    (config_len,) = struct.unpack("<I", _read_exact(buf, 4, "config length"))
    config_text = _read_exact(buf, config_len, "config text").decode("utf-8")
    config, stage, seeds, provenance, vocab = _parse_config_text(config_text)

    store = mm.ParamStore()
    name = ""
    while True:
        head = buf.read(4)
        if not head:
            break
        if len(head) != 4:
            raise CheckpointError("corrupt checkpoint: truncated record header")
        (name_len,) = struct.unpack("<I", head)
        previous, name = name, _read_exact(buf, name_len, "record name").decode("utf-8")
        if name <= previous:
            raise CheckpointError(f"corrupt checkpoint: record {name!r} is out of name order")
        (part_code,) = struct.unpack("<B", _read_exact(buf, 1, f"{name} partition"))
        if part_code not in _PARTITION_NAME:
            raise CheckpointError(f"corrupt checkpoint: bad partition tag for {name!r}")
        (rank,) = struct.unpack("<B", _read_exact(buf, 1, f"{name} rank"))
        shape = tuple(
            struct.unpack("<Q", _read_exact(buf, 8, f"{name} extent"))[0]
            for _ in range(rank)
        )
        payload = _read_exact(buf, 4 * math.prod(shape), f"{name} payload")
        with np.errstate(invalid="ignore"):  # a signalling NaN is rejected just below
            values = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)
        if not np.isfinite(values).all():
            raise CheckpointError(f"corrupt checkpoint: non-finite values in {name!r}")
        store.add(name, values, _PARTITION_NAME[part_code])

    expected = {(n, s, p) for n, s, p in mm.param_layout(config)}
    actual = {(n, store[n].shape, store.partition(n)) for n in store.names()}
    if expected != actual:
        missing = {n for n, _, _ in expected - actual}
        extra = {n for n, _, _ in actual - expected}
        raise CheckpointError(
            "checkpoint parameters do not match the embedded config "
            f"(missing/mismatched: {sorted(missing)[:3]}, unexpected: {sorted(extra)[:3]})"
        )
    ckpt = Checkpoint(
        config=config, stage=stage, seeds=seeds, provenance=provenance,
        store=store, vocab=vocab,
    )
    if _config_text(ckpt) != config_text:
        raise CheckpointError("corrupt checkpoint: config text is not in canonical form")
    return ckpt


def save_checkpoint(ckpt: Checkpoint, path) -> str:
    """Atomic write; returns the content hash.

    The bytes go to a uniquely named temp file in the target directory,
    which is flushed and fsynced before it replaces ``path``. A failed write
    removes the temp file and leaves any existing checkpoint untouched.
    """
    blob = checkpoint_bytes(ckpt)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp",
        dir=os.path.dirname(path) or ".",
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return hashlib.sha256(blob).hexdigest()


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())


# ---------------------------------------------------------------------------
# training steps shared by the stages
# ---------------------------------------------------------------------------
# Every stage trains with ``meta.train_loop``. Pretraining and plain adapter
# training run it through ``_train_on_pairs`` over their own batch sampler;
# MAML adapter training goes through ``meta.meta_train``. Stages (b) and (c)
# both train their adapters with ``_train_adapters``.


def make_pair_loss(config: mm.ModelConfig):
    """Teacher-forced NLL over a list of pairs (summed per pair, pair-mean).

    Given a ``meta.TaskBatches`` of pair lists, the tasks are padded to common
    widths and run as one stacked forward; the loss is then per task, shape
    (n_tasks, 1, 1).
    """

    def loss_fn(params, batch):
        if isinstance(batch, mt.TaskBatches):
            def pad(side):
                return dt.pad_tasks([[side(p) for p in task] for task in batch])
        else:
            def pad(side):
                return dt.pad_batch([side(p) for p in batch])
        src_ids, src_mask = pad(lambda p: p.src)
        dec_ids, dec_mask = pad(lambda p: p.tgt[:-1])
        label_ids, label_mask = pad(lambda p: p.tgt[1:])
        logits = mm.forward_batch(params, config, src_ids, dec_ids, src_mask, dec_mask)
        return mm.batch_nll(logits, label_ids, label_mask)

    return loss_fn


@dataclass
class StageResult:
    checkpoint: Checkpoint
    history: list = field(default_factory=list)


def _train_on_pairs(store, names, loss_fn, sample_batch, hyper, stop,
                    validation=()) -> list[mt.HistoryRow]:
    """Minimize the NLL of ``names`` on sampled pair batches, best-val kept.

    ``sample_batch()`` returns one batch of pairs; a non-empty
    ``validation`` pair list is scored on the stop criteria's cadence.
    """

    def step_fn():
        leaves = mm.as_nodes(store, names)
        loss = loss_fn(leaves, sample_batch())
        grads = ad.gradient_values(loss, {n: leaves[n] for n in names})
        value = float(loss.value)
        return grads, value, value

    validate = None
    if validation:
        def validate():
            return float(loss_fn(store, validation).value)

    return mt.train_loop(store, names, step_fn, hyper, stop, validate)


def _train_adapters(store, config, corpus, hyper, stop, mode, rng,
                    validation) -> list[mt.HistoryRow]:
    """Train the adapters of ``store`` on ``corpus``, the backbone frozen.

    ``mode='maml'`` meta-trains on tasks sampled from the corpus and
    validates on ``validation``, a list of tasks; ``mode='plain'`` minimizes
    the NLL of the corpus's train pairs, pooled in sorted-domain order, and
    validates on ``validation``, a list of pairs. An empty ``validation``
    means no validation.
    """
    train_pairs = [p for label in sorted(corpus.domains) for p in corpus.domains[label].train]
    if not train_pairs:
        raise ValueError(f"the {corpus.role!r} corpus has no train pairs")
    _, phi_names = mm.partition_params(store)
    loss_fn = make_pair_loss(config)
    if mode == "maml":
        sampler = lambda n: [dt.sample_meta_task(corpus, hyper, rng) for _ in range(n)]
        return mt.meta_train(store, phi_names, sampler, hyper, stop, loss_fn, validation)

    def sample_batch():
        size = min(hyper.task_batch_size, len(train_pairs))
        return [train_pairs[int(i)] for i in rng.choice(len(train_pairs), size=size, replace=False)]

    return _train_on_pairs(store, phi_names, loss_fn, sample_batch, hyper, stop, validation)


def _with_adapters(parent: Checkpoint, seed: int) -> tuple[mm.ModelConfig, mm.ParamStore]:
    """The parent's config and store with identity adapters at the standard placement."""
    config = replace(parent.config, adapter_placement=mm.DEFAULT_PLACEMENT)
    return config, mm.insert_adapters(parent.store, config, seed=derive_seed(seed, "adapter"))


def _child(parent: Checkpoint, stage: str, config: mm.ModelConfig, store: mm.ParamStore,
           history, **seeds) -> StageResult:
    """The stage's result: its store on the float32 grid, chained to the parent."""
    ckpt = Checkpoint(
        config=config, stage=stage, seeds=dict(parent.seeds, **seeds),
        provenance=parent.provenance + [parent.content_hash()],
        store=_on_float32_grid(store), vocab=parent.vocab,
    )
    return StageResult(ckpt, history)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _names_stage(fn):
    """A ``NonFiniteError`` raised inside the stage function names the stage."""

    @functools.wraps(fn)
    def stage(*args, **kwargs):
        with ad.non_finite_context(f"in {fn.__name__}"):
            return fn(*args, **kwargs)

    return stage


@_names_stage
def pretrain_stage(config: mm.ModelConfig, corpus: Sequence[np.ndarray],
                   noise: NoiseConfig, steps: int, seed: int,
                   batch_size: int = 16, lr: float = 1e-3,
                   vocab: dt.Vocab | None = None,
                   clean_frac: float = 0.5) -> StageResult:
    """Stage (a): train the backbone to reconstruct corrupted sentences.

    Adapters are withheld here (they enter at stage b); every backbone and
    normalization parameter trains. A ``clean_frac`` share of examples skips
    corruption entirely: plain copying anchors the encoder-decoder alignment
    that greedy decoding relies on, while the corrupted share carries the
    denoising objective.
    """
    base_config = replace(config, adapter_placement=frozenset())
    store = mm.build_model(base_config, seed=derive_seed(seed, "init"))
    rng = np.random.default_rng(derive_seed(seed, "pretrain_data"))
    noise_rng = np.random.default_rng(derive_seed(seed, "noise"))

    def sample_batch():
        idx = rng.choice(len(corpus), size=min(batch_size, len(corpus)), replace=False)
        batch = []
        for i in idx:
            tokens = corpus[int(i)]
            keep_clean = noise_rng.random() < clean_frac
            src = tokens if keep_clean else corrupt(tokens, noise, noise_rng)
            batch.append(dt.ParaphrasePair(src=src, tgt=tokens))
        return batch

    # stage (a) trains everything present
    history = _train_on_pairs(store, store.names(), make_pair_loss(base_config), sample_batch,
                              mt.TrainHyper(beta=lr), mt.StopCriteria(steps))
    ckpt = Checkpoint(
        config=base_config, stage="pretrained",
        seeds={"bundle": seed}, provenance=[], store=_on_float32_grid(store), vocab=vocab,
    )
    return StageResult(ckpt, history)


@_names_stage
def meta_train_stage(pretrained: Checkpoint, source: dt.CorpusSet,
                     hyper: mt.TrainHyper, stop: mt.StopCriteria, seed: int,
                     validation: dt.CorpusSet | None = None, mode: str = "maml") -> StageResult:
    """Stage (b): insert identity adapters and train them on the source domains.

    ``mode='maml'`` meta-trains over sampled tasks, validating on 4 tasks
    sampled from ``validation``; ``mode='plain'`` minimizes pooled NLL (the
    source-data-only ablation), validating on the first 64 source-valid and
    ``validation`` pairs. The backbone stays bit-identical. The adapters
    take the standard placement, whatever the parent config's.
    """
    if pretrained.stage != "pretrained":
        raise StageOrderError(
            f"meta_train_stage needs a pretrained checkpoint, got {pretrained.stage!r}"
        )
    if mode not in ("maml", "plain"):
        raise ValueError(f"unknown mode {mode!r}")
    if source.role != "src":
        raise ValueError("meta_train_stage needs the source corpus set")
    config, store = _with_adapters(pretrained, seed)
    rng = np.random.default_rng(derive_seed(seed, "tasks"))

    held_out: list = []
    if mode == "maml" and validation is not None:
        val_rng = np.random.default_rng(derive_seed(seed, "validation"))
        held_out = [dt.sample_meta_task(validation, hyper, val_rng) for _ in range(4)]
    elif mode == "plain":
        held_out = [p for label in sorted(source.domains) for p in source.domains[label].valid]
        if validation is not None:
            held_out += [p for label in sorted(validation.domains)
                         for p in validation.domains[label].valid
                         + validation.domains[label].train]
        held_out = held_out[:64]

    history = _train_adapters(store, config, source, hyper, stop, mode, rng, held_out)
    return _child(pretrained, "meta_trained", config, store, history, stage_b=seed)


@_names_stage
def finetune_stage(parent: Checkpoint, target: dt.CorpusSet, hyper: mt.TrainHyper,
                   stop: mt.StopCriteria, seed: int, mode: str = "maml",
                   allow_pretrained: bool = False) -> StageResult:
    """Stage (c): train the adapters on the (possibly tiny or empty) target domain.

    ``mode='maml'`` meta-trains over target-sampled tasks, validating on one
    task split from the valid pairs, then takes a deployment step: the
    inner adaptation on the whole target train set. A task splits its pairs
    into support and query, so ``maml`` needs at least 2 train pairs; a
    one-pair target raises ``data.TaskSizeError`` before any training.
    ``mode='plain'`` minimizes NLL on any number of pairs, validating on the
    valid pairs. An empty target train set is the unsupervised
    configuration: phi passes through unchanged.
    ``allow_pretrained`` admits a stage-(a) checkpoint for the backbone-only
    ablation; adapters are inserted at identity then.
    """
    if parent.stage == "pretrained":
        if not allow_pretrained:
            raise StageOrderError(
                "finetune_stage needs a meta_trained checkpoint "
                "(pass allow_pretrained=True for the ablation)"
            )
        config, store = _with_adapters(parent, seed)
    elif parent.stage == "meta_trained":
        config, store = parent.config, parent.store.copy()
    else:
        raise StageOrderError(f"cannot fine-tune from stage {parent.stage!r}")
    if mode not in ("maml", "plain"):
        raise ValueError(f"unknown mode {mode!r}")
    if target.role != "tgt":
        raise ValueError("finetune_stage needs the target corpus set")

    (label,) = list(target.domains)
    splits = target.domains[label]
    history: list[mt.HistoryRow] = []

    if mode == "maml" and len(splits.train) == 1:
        raise dt.TaskSizeError(
            f"finetune_stage: the target {label!r} has 1 train pair, but a MAML task needs 2 "
            "to split support from query; use mode='plain'")
    if splits.train:
        rng = np.random.default_rng(derive_seed(seed, "finetune"))
        if hyper.task_batch_size > len(splits.train):
            hyper = replace(hyper, task_batch_size=len(splits.train))
        held_out = splits.valid
        if mode == "maml":
            half = len(splits.valid) // 2
            held_out = [dt.MetaTask(support=splits.valid[:half], query=splits.valid[half:],
                                    domain=label)] if half else []
        history = _train_adapters(store, config, target, hyper, stop, mode, rng, held_out)
        if mode == "maml":
            # Deployment step: the meta-trained phi is optimized for its
            # post-adaptation loss, so adapt it on the target train set
            # before freezing the checkpoint.
            _, phi_names = mm.partition_params(store)
            adapted, _ = mt.inner_adapt(store, phi_names, [splits.train],
                                        replace(hyper, order_mode="first"),
                                        make_pair_loss(config))
            for n in phi_names:
                store.set(n, adapted[n].value.reshape(store[n].shape))

    return _child(parent, "finetuned", config, store, history, stage_c=seed)
