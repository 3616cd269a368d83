"""Synthetic multi-domain experiment harness.

Builds the on-disk world (pair TSVs, unlabeled corpus, vocab),
loads it back, runs the three training variants that make up the ablation
ladder from one pretrained backbone, and scores target-dev generations.
``LADDER_VARIANTS`` gives each variant's stage-(b) and stage-(c) modes:

* ``baseline``: no stage (b), then a plain fine-tune on the target pairs.
* ``plain_source``: plain adapter training on pooled source pairs, then a
  plain fine-tune.
* ``meta``: meta-train adapters on source tasks, then fine-tune them by
  MAML over target tasks.

Domain roles inside a family of n: the last domain is the target, the
second-to-last is the meta-validation domain, the rest are sources.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

from . import data as dt
from . import decoding as dec
from . import meta as mt
from . import metrics as mx
from . import model as mm
from . import pipeline as pl

# Seed of the world's domain family (``data.domain_family``).
SYNTH_SEED = 1234


@dataclass
class DataSettings:
    n_domains: int = 6
    pairs_per_domain: int = 2000
    target_train: int = 64
    target_valid: int = 48
    target_test: int = 48
    source_valid: int = 64
    pre_cap: int = 4000  # unlabeled sentences kept for stage (a); 0 keeps all

    def __post_init__(self):
        # n_domains: one source, one validation and one target domain at least.
        # target_valid: run_ladder scores the target dev split.
        for name, low in (("n_domains", 3), ("pairs_per_domain", 1), ("target_train", 0),
                          ("target_valid", 1), ("target_test", 0), ("source_valid", 1),
                          ("pre_cap", 0)):
            mm.check_count(name, getattr(self, name), low)
        if self.source_valid >= self.pairs_per_domain:
            raise ValueError(
                f"source_valid ({self.source_valid}) must be below pairs_per_domain "
                f"({self.pairs_per_domain}), or every source train split is empty")
        labeled = self.target_train + self.target_valid + self.target_test
        if labeled > self.pairs_per_domain:
            raise ValueError(
                f"target_train + target_valid + target_test ({labeled}) exceeds "
                f"pairs_per_domain ({self.pairs_per_domain})")


@dataclass
class World:
    vocab: dt.Vocab
    pre_corpus: list
    source: dt.CorpusSet
    validation: dt.CorpusSet
    target: dt.CorpusSet
    dev_src_path: str  # the target dev split's sources, one per line
    dev_ref_path: str  # and their references


def _write_pairs_tsv(path, texts):
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in texts:
            fh.write(f"{a}\t{b}\n")


def build_world_files(settings: DataSettings, out_dir) -> None:
    """Materialize the synthetic world under out_dir (synth-data command)."""
    os.makedirs(os.path.join(out_dir, "pairs"), exist_ok=True)

    specs = dt.domain_family(settings.n_domains, seed=SYNTH_SEED)
    unlabeled: list[str] = []

    for role_idx, spec in enumerate(specs):
        texts, _ = dt.synth_domain(spec, settings.pairs_per_domain)
        if role_idx == settings.n_domains - 1:  # target
            n_train, n_valid, n_test = settings.target_train, settings.target_valid, settings.target_test
            labeled = texts[: n_train + n_valid + n_test]
            leftover = texts[n_train + n_valid + n_test :]
            dev = labeled[n_train : n_train + n_valid]
            splits = {"train": labeled[:n_train], "valid": dev, "test": labeled[n_train + n_valid :]}
            for split, pairs in splits.items():
                path = os.path.join(out_dir, "pairs", f"target.{split}.tsv")
                if pairs:
                    _write_pairs_tsv(path, pairs)
                elif os.path.exists(path):  # load_world reads a missing split as empty
                    os.remove(path)
            for a, b in leftover:
                unlabeled += [a, b]
        else:
            prefix = "validation" if role_idx == settings.n_domains - 2 else "source"
            train = texts[: -settings.source_valid]
            valid = texts[-settings.source_valid :]
            _write_pairs_tsv(
                os.path.join(out_dir, "pairs", f"{prefix}_{spec.name}.train.tsv"), train
            )
            _write_pairs_tsv(
                os.path.join(out_dir, "pairs", f"{prefix}_{spec.name}.valid.tsv"), valid
            )
            for a, b in train:
                unlabeled += [a, b]

    # Cap the unlabeled pool with an even stride so every domain stays
    # represented; vocabulary is built before capping so coverage is full.
    vocab = dt.Vocab.build([unlabeled])
    vocab.save(os.path.join(out_dir, "vocab.txt"))
    if settings.pre_cap and len(unlabeled) > settings.pre_cap:
        stride = len(unlabeled) / settings.pre_cap
        unlabeled = [unlabeled[int(i * stride)] for i in range(settings.pre_cap)]
    with open(os.path.join(out_dir, "pre_corpus.txt"), "w", encoding="utf-8") as fh:
        for line in unlabeled:
            fh.write(line + "\n")

    # Convenience evaluation inputs for the target dev split.
    with open(os.path.join(out_dir, "target_dev.src.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(a + "\n" for a, _ in dev)
    with open(os.path.join(out_dir, "target_dev.ref.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(b + "\n" for _, b in dev)


def load_world(data_dir) -> World:
    vocab = dt.Vocab.load(os.path.join(data_dir, "vocab.txt"))
    pre_corpus = dt.load_sentences(os.path.join(data_dir, "pre_corpus.txt"), vocab)

    pairs_dir = os.path.join(data_dir, "pairs")
    source_domains, validation_domains = {}, {}
    for name in sorted(os.listdir(pairs_dir)):
        if not name.endswith(".train.tsv") or name.startswith("target"):
            continue
        prefix, _, domain = name[: -len(".train.tsv")].partition("_")
        if prefix not in ("source", "validation") or not domain:
            raise dt.CorpusFormatError(
                f"{os.path.join(pairs_dir, name)}: a pairs file name is "
                "source_<domain>.train.tsv or validation_<domain>.train.tsv"
            )
        train = dt.load_pairs(os.path.join(pairs_dir, name), vocab)
        valid_path = os.path.join(pairs_dir, f"{prefix}_{domain}.valid.tsv")
        valid = dt.load_pairs(valid_path, vocab) if os.path.exists(valid_path) else []
        splits = dt.SplitPairs(train=train, valid=valid)
        (source_domains if prefix == "source" else validation_domains)[domain] = splits

    if not source_domains:
        raise dt.CorpusFormatError(f"{pairs_dir}: no source_<domain>.train.tsv file")

    def target_split(split):
        path = os.path.join(pairs_dir, f"target.{split}.tsv")
        return dt.load_pairs(path, vocab) if os.path.exists(path) else []

    target = dt.CorpusSet(
        role="tgt",
        domains={
            "target": dt.SplitPairs(
                train=target_split("train"), valid=target_split("valid"),
                test=target_split("test"),
            )
        },
    )
    return World(
        vocab=vocab,
        pre_corpus=pre_corpus,
        source=dt.CorpusSet(role="src", domains=source_domains),
        validation=dt.CorpusSet(role="src", domains=validation_domains),
        target=target,
        dev_src_path=os.path.join(data_dir, "target_dev.src.txt"),
        dev_ref_path=os.path.join(data_dir, "target_dev.ref.txt"),
    )


# ---------------------------------------------------------------------------
# variant runs
# ---------------------------------------------------------------------------


@dataclass
class RunSettings:
    pretrain_steps: int = 2000
    pretrain_batch: int = 16
    pretrain_lr: float = 3e-3
    pretrain_clean_frac: float = 0.5
    meta_steps: int = 200
    finetune_steps: int = 200
    eval_every: int = 20

    def __post_init__(self):
        for name, low in (("pretrain_steps", 0), ("pretrain_batch", 1), ("meta_steps", 0),
                          ("finetune_steps", 0), ("eval_every", 1)):
            mm.check_count(name, getattr(self, name), low)
        if not (mm.finite_number(self.pretrain_lr) and self.pretrain_lr > 0):
            raise ValueError(f"pretrain_lr must be finite and positive, got {self.pretrain_lr!r}")
        if not (mm.finite_number(self.pretrain_clean_frac)
                and 0.0 <= self.pretrain_clean_frac <= 1.0):
            raise ValueError(f"pretrain_clean_frac must be in [0, 1], "
                             f"got {self.pretrain_clean_frac!r}")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def evaluate_checkpoint(ckpt_path, world: World, decode_cfg: dec.DecodeConfig,
                        out_dir) -> mx.MetricReport:
    """Decode the world's target dev sources and score them, as ``dev.*`` files in out_dir."""
    gen_path = os.path.join(out_dir, "dev.gen.txt")
    dec.generate_file(ckpt_path, world.dev_src_path, gen_path, decode_cfg)
    report = mx.evaluate_corpus(gen_path, world.dev_ref_path, world.dev_src_path)
    with open(os.path.join(out_dir, "dev.metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    return report


def _save(result: pl.StageResult, out_dir, ckpt_name: str, history_name: str) -> str:
    """Save a stage's checkpoint and history CSV under out_dir; return the checkpoint's path."""
    path = os.path.join(out_dir, ckpt_name)
    pl.save_checkpoint(result.checkpoint, path)
    mt.write_history_csv(result.history, os.path.join(out_dir, history_name))
    return path


def run_pretrain(world: World, config: mm.ModelConfig, noise: pl.NoiseConfig,
                 run: RunSettings, seed: int, out_dir) -> str:
    result = pl.pretrain_stage(
        config, world.pre_corpus, noise, steps=run.pretrain_steps,
        seed=pl.derive_seed(seed, "pretrain"), batch_size=run.pretrain_batch,
        lr=run.pretrain_lr, vocab=world.vocab, clean_frac=run.pretrain_clean_frac,
    )
    return _save(result, out_dir, "pretrained.ckpt", "pretrain_history.csv")


# Each variant's (stage-(b) mode, or None for no stage (b); stage-(c) mode).
LADDER_VARIANTS = {
    "baseline": (None, "plain"),
    "plain_source": ("plain", "plain"),
    "meta": ("maml", "maml"),
}


def run_variant(variant: str, pretrained_path: str, world: World,
                hyper: mt.TrainHyper, run: RunSettings, seed: int, out_dir) -> str:
    """Run one ladder variant from a shared pretrained checkpoint.

    Returns the path of the fine-tuned checkpoint.
    """
    if variant not in LADDER_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    mode_b, mode_c = LADDER_VARIANTS[variant]
    os.makedirs(out_dir, exist_ok=True)
    parent = pl.load_checkpoint(pretrained_path)
    if mode_b is not None:
        steps = run.meta_steps
        if mode_b == "plain":
            # Match the meta variant's stage-(b) data exposure: one meta
            # step visits meta_batch_tasks batches, a plain step visits one.
            steps *= hyper.meta_batch_tasks
        stage_b = pl.meta_train_stage(
            parent, world.source, hyper,
            mt.StopCriteria(max_steps=steps, eval_every=run.eval_every),
            seed=pl.derive_seed(seed, f"{variant}-stage-b"),
            validation=world.validation, mode=mode_b,
        )
        _save(stage_b, out_dir, "meta_trained.ckpt", "stage_b_history.csv")
        parent = stage_b.checkpoint
    stage_c = pl.finetune_stage(
        parent, world.target, hyper,
        mt.StopCriteria(max_steps=run.finetune_steps, eval_every=run.eval_every),
        seed=pl.derive_seed(seed, f"{variant}-stage-c"),
        mode=mode_c, allow_pretrained=mode_b is None,
    )
    return _save(stage_c, out_dir, "finetuned.ckpt", "stage_c_history.csv")


def run_ladder(world: World, config: mm.ModelConfig, noise: pl.NoiseConfig,
               hyper: mt.TrainHyper, run: RunSettings, seed: int,
               out_dir) -> dict[str, mx.MetricReport]:
    """Pretrain once, run all three variants, greedy-score target dev; one seed."""
    decode_cfg = dec.DecodeConfig(strategy="greedy", max_decode_len=config.max_len)
    os.makedirs(out_dir, exist_ok=True)
    log(f"[seed {seed}] pretraining ({run.pretrain_steps} steps)")
    pretrained_path = run_pretrain(world, config, noise, run, seed, out_dir)

    reports = {}
    for variant in LADDER_VARIANTS:
        log(f"[seed {seed}] variant {variant}")
        variant_dir = os.path.join(out_dir, variant)
        ft_path = run_variant(variant, pretrained_path, world, hyper, run, seed, variant_dir)
        reports[variant] = evaluate_checkpoint(ft_path, world, decode_cfg, variant_dir)
        log(f"[seed {seed}] {variant}: BLEU-2 {reports[variant].scores['BLEU-2']:.2f}")
    return reports
