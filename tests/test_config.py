"""Config fields: each bad value raises ``ValueError``, never a later bare error."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaphrase import decoding as dec
from metaphrase import experiments as ex
from metaphrase import meta as mt
from metaphrase import metrics as mx
from metaphrase import model as mm
from metaphrase import pipeline as pl

MODEL = dict(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16, vocab_size=20,
             max_len=10, adapter_hidden=4)

# class -> keyword arguments that construct it
BASE = {
    mm.ModelConfig: MODEL,
    mt.TrainHyper: {},
    pl.NoiseConfig: {},
    mt.StopCriteria: dict(max_steps=3),
    dec.DecodeConfig: {},
    ex.DataSettings: {},
    ex.RunSettings: {},
    mx.EvalConfig: {},
}

# (class, integer field, smallest value it takes)
COUNTS = [
    (mt.TrainHyper, "inner_steps", 1),
    (mt.TrainHyper, "meta_batch_tasks", 1),
    (mt.TrainHyper, "task_batch_size", 1),
    (mt.StopCriteria, "max_steps", 0),
    (mt.StopCriteria, "eval_every", 1),
    (dec.DecodeConfig, "beam_width", 1),
    (dec.DecodeConfig, "max_decode_len", 2),
    (mm.ModelConfig, "vocab_size", 1),
    (mm.ModelConfig, "max_len", 1),
    (mm.ModelConfig, "adapter_hidden", 0),
    (mm.ModelConfig, "d_ff", 1),
    (mm.ModelConfig, "d_model", 1),
    (mm.ModelConfig, "n_heads", 1),
    (mm.ModelConfig, "n_enc_layers", 1),
    (mm.ModelConfig, "n_dec_layers", 1),
]


@pytest.mark.parametrize("value", [0, -1, math.nan, math.inf, 2.5, True], ids=repr)
@pytest.mark.parametrize("cls,field,low", COUNTS, ids=[f"{c.__name__}.{f}" for c, f, _ in COUNTS])
def test_integer_fields_take_only_ints_in_range(cls, field, low, value):
    kwargs = dict(BASE[cls], **{field: value})
    if field == "adapter_hidden":
        kwargs["adapter_placement"] = frozenset()  # 0 hidden units places no adapter
    if value == 0 and low == 0 and type(value) is int:
        assert getattr(cls(**kwargs), field) == 0
        return
    with pytest.raises(ValueError, match=field):
        cls(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0], ids=repr)
def test_pretrain_lr_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match="pretrain_lr"):
        ex.RunSettings(pretrain_lr=value)


@pytest.mark.parametrize("value", [3, None, [["enc_attn"]]], ids=repr)
def test_adapter_placement_must_be_a_set_of_sites(value):
    with pytest.raises(ValueError, match="adapter_placement"):
        mm.ModelConfig(**MODEL, adapter_placement=value)


@pytest.mark.parametrize("knob, value", [("tie_embeddings", False), ("ln_eps", 1e-6)])
def test_deleted_model_knobs_are_not_keywords(knob, value):
    # The output head is always tied to the token embeddings and the layer-norm
    # eps is a module constant; neither is a setting any more.
    with pytest.raises(TypeError, match=knob):
        mm.ModelConfig(**MODEL, **{knob: value})


# Anything a caller might pass: right and wrong types, NaN, infinities, huge
# ints, text, sets of sites and an unhashable list.
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-3, 300),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from(["greedy", "beam", "second", "first", "sgd", "adamw"]),
    st.frozensets(st.sampled_from(mm.ADAPTER_SITES)), st.lists(st.lists(st.integers()), max_size=2),
)


def _overrides(cls):
    """Each field kept from ``BASE`` or replaced by any value."""
    names = [f.name for f in dataclasses.fields(cls)]
    return st.dictionaries(st.sampled_from(names), ANY_VALUE, max_size=len(names))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_every_config_value_constructs_or_raises_value_error(data):
    for cls, base in BASE.items():
        kwargs = dict(base, **data.draw(_overrides(cls), label=cls.__name__))
        try:
            cls(**kwargs)
        except ValueError:
            pass
