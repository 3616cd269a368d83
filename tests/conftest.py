"""Shared fixtures: a tiny transformer with its teacher-forced pair loss."""

from types import SimpleNamespace

import numpy as np
import pytest

from metaphrase import data as dt
from metaphrase import model as mm
from metaphrase import pipeline as pl


@pytest.fixture
def tiny_transformer(request):
    """Config, parameters, pair loss and eight random pairs at the tests' tiny config.

    The adapters' up-projections are drawn away from zero, so every adapter
    parameter has a non-zero gradient and a non-trivial second derivative.
    Adapters take the default placement, or the sites passed by indirect
    parametrization.
    """
    placement = getattr(request, "param", mm.DEFAULT_PLACEMENT)
    config = mm.ModelConfig(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16,
                            vocab_size=20, max_len=10, adapter_hidden=4,
                            adapter_placement=placement)
    store = mm.build_model(config, seed=3)
    rng = np.random.default_rng(8)
    for name in store.names():
        if name.endswith(".wu"):
            store.set(name, 0.3 * rng.standard_normal(store[name].shape))

    def sentence():
        body = rng.integers(len(dt.RESERVED), config.vocab_size, size=rng.integers(1, 5))
        return np.concatenate([[dt.BOS], body, [dt.EOS]])

    pairs = [dt.ParaphrasePair(sentence(), sentence()) for _ in range(8)]
    return SimpleNamespace(config=config, store=store, loss_fn=pl.make_pair_loss(config),
                           pairs=pairs)
