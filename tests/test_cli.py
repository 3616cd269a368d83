"""The ``metaphrase`` console script: synth-data and decode."""

import pytest

from metaphrase import cli
from metaphrase import decoding as dec
from metaphrase import experiments as ex
from metaphrase import model as mm
from metaphrase import pipeline as pl


def test_synth_data_then_decode(tmp_path, capsys):
    world_dir = tmp_path / "world"
    assert cli.main(["synth-data", str(world_dir)]) == 0
    world = ex.load_world(world_dir)
    assert len(world.target_dev_src) == ex.DataSettings().target_valid

    config = mm.ModelConfig(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16,
                            vocab_size=len(world.vocab), max_len=24, adapter_hidden=4)
    ckpt = pl.Checkpoint(config=config, stage="pretrained", seeds={"bundle": 0},
                         provenance=[], store=mm.build_model(config, seed=0), vocab=world.vocab)
    ckpt_path = tmp_path / "model.ckpt"
    pl.save_checkpoint(ckpt, ckpt_path)
    inp = tmp_path / "in.txt"
    inp.write_text("\n".join(world.target_dev_src[:5]) + "\n")
    out = tmp_path / "out.txt"
    assert cli.main(["decode", str(ckpt_path), str(inp), str(out), "--strategy", "beam",
                     "--beam-width", "3", "--max-len", "9", "--length-penalty", "0.5"]) == 0
    assert "decoded 5 lines" in capsys.readouterr().out

    expected = tmp_path / "expected.txt"
    dc = dec.DecodeConfig(strategy="beam", beam_width=3, max_decode_len=9, length_penalty=0.5)
    assert dec.generate_file(ckpt_path, inp, expected, dc) == 5
    assert out.read_text() == expected.read_text()


def test_unknown_strategy_rejected():
    with pytest.raises(SystemExit):
        cli.main(["decode", "a", "b", "c", "--strategy", "sampling"])
