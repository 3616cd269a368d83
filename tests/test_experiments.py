"""End-to-end smoke test of the ablation ladder over a tiny on-disk world."""

import csv

import numpy as np
import pytest

from metaphrase import data as dt
from metaphrase import experiments as ex
from metaphrase import meta as mt
from metaphrase import model as mm
from metaphrase import pipeline as pl


# The tests' tiny world: three domains of 40 pairs each.
TINY_WORLD = dict(n_domains=3, pairs_per_domain=40, target_train=3, target_valid=6,
                  target_test=2, source_valid=8, pre_cap=60)


def history_steps(path):
    with open(path, newline="") as fh:
        return [int(row["step"]) for row in csv.DictReader(fh)]


def test_run_ladder_all_variants(tmp_path):
    settings = ex.DataSettings(**TINY_WORLD)
    ex.build_world_files(settings, tmp_path / "world")
    world = ex.load_world(tmp_path / "world")
    config = mm.ModelConfig(d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=32,
                            vocab_size=len(world.vocab), max_len=24, adapter_hidden=4)
    # task_batch_size above the 3 target pairs exercises the fine-tune clamp;
    # second order with the maml fine-tune covers every gradient path.
    hyper = mt.TrainHyper(inner_steps=1, meta_batch_tasks=2, task_batch_size=4)
    run = ex.RunSettings(pretrain_steps=3, pretrain_batch=8, meta_steps=2, finetune_steps=2,
                         eval_every=1)
    out = tmp_path / "ladder"

    reports = ex.run_ladder(world, config, pl.NoiseConfig(), hyper, run, seed=5, out_dir=out)

    assert set(reports) == set(ex.LADDER_VARIANTS)
    for variant, report in reports.items():
        assert np.isfinite(report.scores["BLEU-2"]), variant
        assert (out / variant / "dev.metrics.csv").is_file()
        ckpt = pl.load_checkpoint(out / variant / "finetuned.ckpt")
        assert ckpt.stage == "finetuned"
        assert history_steps(out / variant / "stage_c_history.csv") == [1, 2]
    pretrained = pl.load_checkpoint(out / "pretrained.ckpt")
    assert pretrained.stage == "pretrained"
    assert history_steps(out / "pretrain_history.csv") == [1, 2, 3]
    assert not (out / "baseline" / "meta_trained.ckpt").exists()
    assert not (out / "baseline" / "stage_b_history.csv").exists()
    assert pl.load_checkpoint(out / "baseline" / "finetuned.ckpt").provenance == [
        pretrained.content_hash()]
    assert history_steps(out / "meta" / "stage_b_history.csv") == [1, 2]
    assert len(history_steps(out / "plain_source" / "stage_b_history.csv")) == 4
    for variant in ("plain_source", "meta"):
        stage_b = pl.load_checkpoint(out / variant / "meta_trained.ckpt")
        assert stage_b.stage == "meta_trained"
        assert pl.load_checkpoint(out / variant / "finetuned.ckpt").provenance[-1] == (
            stage_b.content_hash())


@pytest.mark.parametrize("fields, message", [
    (dict(target_valid=0), "target_valid must be an int >= 1"),
    (dict(source_valid=40), r"source_valid \(40\) must be below pairs_per_domain \(40\)"),
    (dict(target_train=30, target_valid=6, target_test=5),
     r"target_train \+ target_valid \+ target_test \(41\) exceeds pairs_per_domain \(40\)"),
], ids=["no_target_dev", "empty_source_train", "target_splits_overflow"])
def test_data_settings_reject_a_world_that_cannot_load(fields, message):
    with pytest.raises(ValueError, match=message):
        ex.DataSettings(**{**TINY_WORLD, **fields})


def test_world_without_target_train_pairs_loads_unsupervised(tmp_path):
    ex.build_world_files(ex.DataSettings(**TINY_WORLD), tmp_path)  # rebuilt in place below
    ex.build_world_files(ex.DataSettings(**{**TINY_WORLD, "target_train": 0}), tmp_path)
    assert not (tmp_path / "pairs" / "target.train.tsv").exists()
    target = ex.load_world(tmp_path).target.domains["target"]
    assert (len(target.train), len(target.valid), len(target.test)) == (0, 6, 2)


def test_target_splits_may_take_every_pair(tmp_path):
    fields = dict(target_train=20, target_valid=10, target_test=10)
    ex.build_world_files(ex.DataSettings(**{**TINY_WORLD, **fields}), tmp_path)
    target = ex.load_world(tmp_path).target.domains["target"]
    assert (len(target.train), len(target.valid), len(target.test)) == (20, 10, 10)


@pytest.mark.parametrize("old, new, message", [
    ("source_domain0.train.tsv", "src_domain0.train.tsv", "src_domain0.train.tsv"),
    ("source_domain0.train.tsv", "sourcedomain0.train.tsv", "sourcedomain0.train.tsv"),
    ("source_domain0.train.tsv", "target_domain0.train.ignored", "no source_"),
], ids=["unknown_prefix", "no_underscore", "no_source_domain"])
def test_load_world_rejects_bad_pair_file_names(tmp_path, old, new, message):
    settings = ex.DataSettings(**TINY_WORLD)
    ex.build_world_files(settings, tmp_path)
    pairs = tmp_path / "pairs"
    (pairs / old).rename(pairs / new)
    with pytest.raises(dt.CorpusFormatError, match=message):
        ex.load_world(tmp_path)


def test_world_without_validation_domain_fails_meta_training_by_name(tmp_path):
    settings = ex.DataSettings(**TINY_WORLD)
    ex.build_world_files(settings, tmp_path)
    for path in (tmp_path / "pairs").glob("validation_*"):
        path.unlink()
    world = ex.load_world(tmp_path)
    assert world.validation.domains == {}
    config = mm.ModelConfig(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16,
                            vocab_size=len(world.vocab), max_len=24, adapter_hidden=4,
                            adapter_placement=frozenset())
    pretrained = pl.Checkpoint(config=config, stage="pretrained", seeds={}, provenance=[],
                               store=mm.build_model(config, seed=0), vocab=world.vocab)
    with pytest.raises(dt.TaskSizeError, match="'src' corpus has no domain"):
        pl.meta_train_stage(pretrained, world.source, mt.TrainHyper(task_batch_size=4),
                            mt.StopCriteria(max_steps=1), seed=0, validation=world.validation)
