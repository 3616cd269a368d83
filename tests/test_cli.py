"""The ``metaphrase`` console script: synth-data and decode."""

import numpy as np
import pytest

from metaphrase import cli
from metaphrase import data as dt
from metaphrase import decoding as dec
from metaphrase import experiments as ex
from metaphrase import model as mm
from metaphrase import pipeline as pl


def test_synth_data_then_decode(tmp_path, capsys):
    world_dir = tmp_path / "world"
    assert cli.main(["synth-data", str(world_dir)]) == 0
    world = ex.load_world(world_dir)
    assert len(dt.read_lines(world.dev_src_path)) == ex.DataSettings().target_valid

    config = mm.ModelConfig(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16,
                            vocab_size=len(world.vocab), max_len=24, adapter_hidden=4)
    ckpt = pl.Checkpoint(config=config, stage="pretrained", seeds={"bundle": 0},
                         provenance=[], store=mm.build_model(config, seed=0), vocab=world.vocab)
    ckpt_path = tmp_path / "model.ckpt"
    pl.save_checkpoint(ckpt, ckpt_path)
    inp = tmp_path / "in.txt"
    inp.write_text("\n".join(dt.read_lines(world.dev_src_path)[:5]) + "\n")
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


@pytest.mark.parametrize("option, value, field", [
    ("--beam-width", "0", "beam_width"),
    ("--max-len", "1", "max_decode_len"),
    ("--length-penalty", "nan", "length_penalty"),
])
def test_bad_decode_settings_are_usage_errors(option, value, field, capsys):
    # DecodeConfig's rule, reported by the decode subparser under the option typed.
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode", "a", "b", "c", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: metaphrase decode")
    assert f"error: argument {option}: {field} " in err


@pytest.mark.parametrize("option, value", [
    ("--beam-width", "two"),
    ("--max-len", "1.5"),
    ("--length-penalty", "x"),
])
def test_decode_settings_that_are_not_numbers_are_usage_errors(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode", "a", "b", "c", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: metaphrase decode")
    assert f"error: argument {option}: " in err


def test_good_decode_settings_parse_to_their_values():
    args = cli._parser().parse_args(["decode", "a", "b", "c", "--beam-width", "3",
                                     "--max-len", "9", "--length-penalty", "0.5"])
    assert (args.beam_width, args.max_len, args.length_penalty) == (3, 9, 0.5)


def small_checkpoint(path, max_len=24):
    vocab = dt.Vocab(["cat", "dog", "runs"])
    config = mm.ModelConfig(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16,
                            vocab_size=len(vocab), max_len=max_len, adapter_hidden=4)
    pl.save_checkpoint(pl.Checkpoint(config=config, stage="pretrained", seeds={"bundle": 0},
                                     provenance=[], store=mm.build_model(config, seed=0),
                                     vocab=vocab), path)
    return path


@pytest.mark.parametrize("case, named", [
    ("missing_checkpoint", "none.ckpt"),
    ("corrupt_checkpoint", "junk.ckpt: corrupt checkpoint: bad magic bytes"),
    ("missing_input", "none.txt"),
    ("non_utf8_input", "bad.txt:2: not UTF-8 text"),
    ("decode_len_above_max_len", "max_decode_len exceeds the model's max_len (20 > 12)"),
    ("over_long_line", "in.txt:2: source length 18 exceeds max_len 12"),
])
def test_decode_input_errors_are_one_usage_error_line(case, named, tmp_path, capsys):
    ckpt, inp = small_checkpoint(tmp_path / "model.ckpt", max_len=12), tmp_path / "in.txt"
    inp.write_text("cat runs\n")
    args = [str(ckpt), str(inp), str(tmp_path / "out.txt"), "--max-len", "9"]
    if case == "missing_checkpoint":
        args[0] = str(tmp_path / "none.ckpt")
    elif case == "corrupt_checkpoint":
        args[0] = str(tmp_path / "junk.ckpt")
        (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint at all")
    elif case == "missing_input":
        args[1] = str(tmp_path / "none.txt")
    elif case == "non_utf8_input":
        args[1] = str(tmp_path / "bad.txt")
        (tmp_path / "bad.txt").write_bytes(b"cat runs\ndog \xff runs\n")
    elif case == "over_long_line":
        inp.write_text("cat runs\n" + "dog " * 16 + "\n")
    else:
        args[-1] = "20"
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode", *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: metaphrase decode") and "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert line.startswith("metaphrase decode: error: ") and named in line
    assert not (tmp_path / "out.txt").exists()


def test_an_over_long_line_fails_before_any_decoder_step(tmp_path, capsys, monkeypatch):
    ckpt, inp = small_checkpoint(tmp_path / "model.ckpt", max_len=12), tmp_path / "in.txt"
    inp.write_text("cat runs\n\n" + "dog " * 16 + "\ncat\n")  # line 3, after a blank one
    monkeypatch.setattr(dec, "_MAX_BATCH", 1)  # a lockstep search per line
    steps = []
    step = mm.decoder_step
    monkeypatch.setattr(mm, "decoder_step", lambda *a: steps.append(1) or step(*a))
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode", str(ckpt), str(inp), str(out), "--max-len", "12"])
    assert exc.value.code == 2
    (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert line.endswith(f"error: {inp}:3: source length 18 exceeds max_len 12")
    assert steps == [] and not out.exists()
    loaded = pl.load_checkpoint(ckpt)
    sources = [np.array([dt.BOS, 5, dt.EOS])] * 2 + [np.arange(18) % 7]
    with pytest.raises(ValueError, match="^source 2: source length 18 exceeds max_len 12$"):
        dec.decode_batch(loaded.store, loaded.config, sources, dec.DecodeConfig(max_decode_len=12))
    assert steps == []


def test_unwritable_output_fails_before_any_search(tmp_path, capsys, monkeypatch):
    ckpt, inp = small_checkpoint(tmp_path / "model.ckpt"), tmp_path / "in.txt"
    inp.write_text("cat runs\ndog runs\n")
    searches = []
    search = dec._search
    monkeypatch.setattr(dec, "_search", lambda *a, **k: searches.append(1) or search(*a, **k))
    out = tmp_path / "nodir" / "out.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode", str(ckpt), str(inp), str(out)])
    assert exc.value.code == 2
    (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert line.startswith("metaphrase decode: error: ") and str(out) in line
    assert searches == []


def test_failed_decode_leaves_the_output_empty(tmp_path, monkeypatch):
    ckpt, inp = small_checkpoint(tmp_path / "model.ckpt"), tmp_path / "in.txt"
    inp.write_text("cat runs\n")
    out = tmp_path / "out.txt"
    out.write_text("an earlier run's line\n")

    def failing_search(*args, **kwargs):
        raise ValueError("search failed")

    monkeypatch.setattr(dec, "_search", failing_search)
    with pytest.raises(ValueError, match="search failed"):
        dec.generate_file(ckpt, inp, out, dec.DecodeConfig())
    assert out.read_text() == ""
