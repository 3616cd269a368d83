"""The benchmark's workloads: set-up, timed units and output checks.

Every run sets up ``SETUP_REPEATS`` times (``setup_s`` is the median):
build and load the synthetic world, then run the pinned reference ladder
(pretrain from scratch, first-order meta-training, plain target
fine-tuning) with a fixed seed. Its checkpoints are what the workloads start
from, and its timed stage calls supply the training rates that a
workload's unit does not measure. All of it is built by the code under
test on every run; nothing is cached.

Each set-up is followed by an equal share of the timed units, which repeat
with the workload seed until ``--seconds`` have passed:

* ``maml_second``: stage (b), one exact second-order MAML step from the
  reference pretrained checkpoint.
* ``decode``: greedy and beam ``generate_file`` on 10-source chunks of 100
  target-domain sources drawn by the seed, scored with ``evaluate_corpus``.

A workload whose unit does not decode reports its decoding metrics from a
fixed probe: ``PROBE_SOURCES`` target-dev sources decoded with the reference
fine-tuned checkpoint. Output checks run outside the timed regions.

Every reported time is a median over its samples, scaled to a reference
host speed measured by ``HostClock`` (see there).
"""

from __future__ import annotations

import os
import resource
import sys
import time
from dataclasses import dataclass, field
from statistics import median, quantiles

import numpy as np

from metaphrase import autodiff as ad
from metaphrase import data as dt
from metaphrase import decoding as dec
from metaphrase import experiments as ex
from metaphrase import meta as mt
from metaphrase import metrics as mx
from metaphrase import model as mm
from metaphrase import pipeline as pl

import tracer as tr

WORKLOADS = ("maml_second", "decode")

MODEL_DIMS = dict(d_model=64, n_heads=4, n_enc_layers=2, n_dec_layers=2, d_ff=128,
                  adapter_hidden=16, max_len=24)
BATCH = 16
ALPHA = 0.02
RUN = ex.RunSettings()  # pretrain learning rate, clean fraction, eval interval

SETUP_REPEATS = 6
REFERENCE_SEED = 0
REFERENCE_STEPS = (10, 1, 10)  # pretrain, meta (first order), fine-tune
MAML_STEPS = 1
DECODE_SOURCES = 100
DECODE_CHUNK = 10
PROBE_SOURCES = 8
BEAM_CHECKS = 5
# Corpus BLEU is smoothed so that the scores of the small pinned models are
# never exactly zero; unsmoothed BLEU-4 is 0 for them.
EVAL = mx.EvalConfig(smooth_eps=0.1)

UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "pretrain_steps_per_s": "1/s", "meta_steps_per_s": "1/s", "finetune_steps_per_s": "1/s",
    "greedy_sents_per_s": "1/s", "beam_sents_per_s": "1/s",
    "greedy_sent_s_p50": "s", "greedy_sent_s_p90": "s",
    "dev_nll": "nats", "dev_bleu2": "%", "dev_ibleu": "%",
}

# Every sentence of the synthetic world has at most 10 words, so a cap of
# 12 tokens (with the markers) never cuts a correct paraphrase short; the
# default cap of 22 only lengthens the outputs of the small pinned models.
MAX_DECODE_LEN = 12
GREEDY = dec.DecodeConfig(strategy="greedy", max_decode_len=MAX_DECODE_LEN)
BEAM = dec.DecodeConfig(strategy="beam", beam_width=4, max_decode_len=MAX_DECODE_LEN)


# The host-speed kernel: its fixed inputs, its time at the reference speed,
# and how much measured time one kernel sample stands for.
_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_X = _KERNEL_RNG.standard_normal((BATCH, MODEL_DIMS["max_len"], MODEL_DIMS["d_model"]))
_KERNEL_W = _KERNEL_RNG.standard_normal((MODEL_DIMS["d_model"],) * 2) / 8.0
KERNEL_REF_S = 0.010
KERNEL_EVERY_S = 0.5


def host_kernel() -> float:
    """Fixed work that calls nothing of the package under test.

    An interpreter loop and small numpy ops on arrays of the pinned model's
    activation size, then fresh 4 MB arrays filled and reduced: the mix of
    interpreted, compute-bound and allocation-bound work the package runs,
    from one-sentence decoding to the second-order meta step's graph of
    large fresh arrays.
    """
    total = 0.0
    for i in range(3000):
        total += i % 7
    x = _KERNEL_X
    for _ in range(40):
        y = x @ _KERNEL_W
        x = (np.maximum(y, 0.0) * 0.5 + x) / (1.0 + np.abs(y).mean())
    for _ in range(6):
        a = np.empty(1 << 19)
        a.fill(1.0)
        total += float((a * 2.0).sum())
    return total + float(x[0, 0, 0])


class HostClock:
    """The host's speed over a run, from ``host_kernel`` timed between measurements.

    The shared host this benchmark was tuned on runs the same code up to
    1.5 times slower for minutes at a time, so two runs of the same program
    can differ by that much. ``host_kernel`` does not depend on the program
    and slows down with the host, so a run's times over the kernel's time
    in the same run follow the program only.

    ``after(seconds)`` is called after every timed region with its length,
    outside any timed region: it times the kernel once per
    ``KERNEL_EVERY_S`` of measured time, at least once, so that the kernel
    samples weigh the moments of the run as the measurements do. ``scale``
    is ``KERNEL_REF_S`` over the median kernel time; times are multiplied
    by it, rates divided. The median of the whole run is used, not the
    samples next to each region: single kernel samples vary too much from
    one second to the next to correct a single region.
    """

    def __init__(self):
        self.kernel_s: list[float] = []
        self._owed = 0.0

    def after(self, seconds: float) -> None:
        self._owed += seconds
        while self._owed > 0.0:
            t0 = time.perf_counter()
            host_kernel()
            self.kernel_s.append(time.perf_counter() - t0)
            self._owed -= KERNEL_EVERY_S

    def scale(self) -> float:
        return KERNEL_REF_S / median(self.kernel_s)


def hyper(order: str) -> mt.TrainHyper:
    return mt.TrainHyper(alpha=ALPHA, task_batch_size=BATCH, order_mode=order)


class Checks:
    """Counts checked outputs; each failed check is kept with a description."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# stages and checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Stage:
    """One stage call, timed from outside, with its saved-and-reloaded checkpoint."""

    name: str
    steps: int
    seconds: float
    result: pl.StageResult
    parent: pl.Checkpoint | None
    path: str
    saved_hash: str
    loaded: pl.Checkpoint

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.seconds


def _run_stage(name, steps, parent, path, call) -> Stage:
    t0 = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - t0
    saved_hash = pl.save_checkpoint(result.checkpoint, path)
    return Stage(name, steps, seconds, result, parent, path, saved_hash, pl.load_checkpoint(path))


def check_stage(stage: Stage, checks: Checks) -> None:
    ckpt = stage.result.checkpoint
    blob = pl.checkpoint_bytes(ckpt)
    checks.expect(pl.checkpoint_bytes(pl.checkpoint_from_bytes(blob)) == blob,
                  f"{stage.name}: checkpoint does not round-trip byte-identically")
    checks.expect(stage.loaded.content_hash() == stage.saved_hash,
                  f"{stage.name}: reloaded checkpoint hash differs from the saved one")
    rows = stage.result.history
    losses = [v for r in rows for v in (r.support_loss, r.query_loss, r.val_loss) if v is not None]
    checks.expect(len(rows) > 0 and bool(np.isfinite(losses).all()),
                  f"{stage.name}: missing or non-finite history loss")
    if stage.parent is None:
        return
    checks.expect(ckpt.provenance[-1:] == [stage.parent.content_hash()],
                  f"{stage.name}: provenance does not end with the parent's content hash")
    backbone = [n for n in stage.parent.store.names()
                if stage.parent.store.partition(n) == "backbone"]
    checks.expect(all(np.array_equal(ckpt.store[n], stage.parent.store[n]) for n in backbone),
                  f"{stage.name}: backbone changed")


def dev_nll(ckpt: pl.Checkpoint, world: ex.World) -> float:
    loss_fn = pl.make_pair_loss(ckpt.config)
    return float(loss_fn(ckpt.store.leaves(), world.target.domains["target"].valid).value)


def pretrain(world, config, seed, steps, path) -> Stage:
    return _run_stage("pretrain", steps, None, path, lambda: pl.pretrain_stage(
        config, world.pre_corpus, pl.NoiseConfig(), steps=steps,
        seed=pl.derive_seed(seed, "pretrain"), batch_size=BATCH, lr=RUN.pretrain_lr,
        vocab=world.vocab, clean_frac=RUN.pretrain_clean_frac))


def meta_train(world, parent, seed, steps, order, path) -> Stage:
    # Without meta-validation, which would double the cost of a meta step.
    return _run_stage(f"meta_{order}", steps, parent, path, lambda: pl.meta_train_stage(
        parent, world.source, hyper(order),
        mt.StopCriteria(max_steps=steps, eval_every=RUN.eval_every),
        seed=pl.derive_seed(seed, "meta"), validation=None, mode="maml"))


def finetune(world, parent, seed, steps, path) -> Stage:
    return _run_stage("finetune", steps, parent, path, lambda: pl.finetune_stage(
        parent, world.target, hyper("first"),
        mt.StopCriteria(max_steps=steps, eval_every=RUN.eval_every),
        seed=pl.derive_seed(seed, "finetune"), mode="plain"))


def run_chain(world, config, seed, steps, out_dir) -> list[Stage]:
    """Stages (a), (b) first order and (c); each starts from the reloaded parent."""
    a = pretrain(world, config, seed, steps[0], os.path.join(out_dir, "pretrained.ckpt"))
    b = meta_train(world, a.loaded, seed, steps[1], "first",
                   os.path.join(out_dir, "meta_trained.ckpt"))
    c = finetune(world, b.loaded, seed, steps[2], os.path.join(out_dir, "finetuned.ckpt"))
    return [a, b, c]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    seconds: float
    world: ex.World
    world_dir: str
    config: mm.ModelConfig
    chain: list[Stage]
    dev_nll: float


def set_up(out_dir) -> Setup:
    t0 = time.perf_counter()
    world_dir = os.path.join(out_dir, "world")
    ex.build_world_files(ex.DataSettings(), world_dir)
    world = ex.load_world(world_dir)
    config = mm.ModelConfig(vocab_size=len(world.vocab), **MODEL_DIMS)
    chain = run_chain(world, config, REFERENCE_SEED, REFERENCE_STEPS, out_dir)
    nll = dev_nll(chain[-1].loaded, world)
    return Setup(time.perf_counter() - t0, world, world_dir, config, chain, nll)


def check_setups(setups: list[Setup], checks: Checks) -> None:
    for stage in setups[0].chain:
        check_stage(stage, checks)
    first = [s.saved_hash for s in setups[0].chain]
    for other in setups[1:]:
        checks.expect([s.saved_hash for s in other.chain] == first,
                      "reference ladder is not reproducible across set-ups")


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def read_pairs(path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


class DecodeSet:
    """Sources and references, written as chunk files of at most ``size`` lines.

    One decoding unit is one chunk: ``generate_file`` greedy, then beam.
    """

    def __init__(self, pairs, size, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.sources = [src for src, _ in pairs]
        self.src_path = os.path.join(out_dir, "sources.txt")
        self.ref_path = os.path.join(out_dir, "references.txt")
        write_lines(self.src_path, self.sources)
        write_lines(self.ref_path, [ref for _, ref in pairs])
        self.chunks = []  # (source file, indices of its sources)
        for start in range(0, len(pairs), size):
            path = os.path.join(out_dir, f"chunk{len(self.chunks)}.src.txt")
            indices = range(start, min(start + size, len(pairs)))
            write_lines(path, [self.sources[i] for i in indices])
            self.chunks.append((path, indices))

    def run(self, ckpt_path, index) -> DecodeRun:
        chunk = index % len(self.chunks)
        src_path, indices = self.chunks[chunk]
        greedy_path = os.path.join(self.out_dir, f"chunk{chunk}.greedy.txt")
        beam_path = os.path.join(self.out_dir, f"chunk{chunk}.beam.txt")
        t0 = time.perf_counter()
        dec.generate_file(ckpt_path, src_path, greedy_path, GREEDY)
        t1 = time.perf_counter()
        dec.generate_file(ckpt_path, src_path, beam_path, BEAM)
        t2 = time.perf_counter()
        return DecodeRun(chunk, len(indices), t1 - t0, t2 - t1,
                         read_lines(greedy_path), read_lines(beam_path))

    def outputs(self, runs) -> tuple[list[str], list[str]]:
        """Greedy and beam lines of the whole set, from the first run of each chunk."""
        first = {}
        for r in runs:
            first.setdefault(r.chunk, r)
        greedy = [line for c in range(len(self.chunks)) for line in first[c].greedy_lines]
        beam = [line for c in range(len(self.chunks)) for line in first[c].beam_lines]
        return greedy, beam

    def score(self, runs) -> mx.MetricReport:
        gen_path = os.path.join(self.out_dir, "greedy.txt")
        write_lines(gen_path, self.outputs(runs)[0])
        return mx.evaluate_corpus(gen_path, self.ref_path, self.src_path, EVAL)


@dataclass
class DecodeRun:
    chunk: int
    n: int
    greedy_s: float
    beam_s: float
    greedy_lines: list[str]
    beam_lines: list[str]


def check_ids(ids, dc, vocab_size, what, checks: Checks) -> None:
    ids = [int(i) for i in ids]
    ok = (len(ids) >= 2 and ids[0] == dt.BOS
          and (ids[-1] == dt.EOS or len(ids) == dc.max_decode_len)
          and all(0 <= i < vocab_size for i in ids))
    checks.expect(ok, f"{what}: malformed decoder output {ids}")


def latency_pass(ckpt_path, dset: DecodeSet, indices) -> list[tuple[int, float, np.ndarray]]:
    """Greedy ``decode`` of each chosen source on its own: (index, seconds, ids)."""
    ckpt = pl.load_checkpoint(ckpt_path)
    samples = []
    for i in indices:
        src = dt.preprocess(dset.sources[i], ckpt.vocab)
        t0 = time.perf_counter()
        ids = dec.decode(ckpt.store, ckpt.config, src, GREEDY)
        samples.append((i, time.perf_counter() - t0, ids))
    return samples


def decode_result(ckpt_path, dset: DecodeSet, runs: list[DecodeRun], samples,
                  checks: Checks) -> dict[str, float]:
    """Checks every decoded output and returns the decoding metrics.

    ``samples`` are latency samples taken at different times of the run; a
    sentence's latency is the median of its samples. A chunk's decoding
    time is the median of its runs, and the rates are the set's sources over
    the sum of those. The first ``BEAM_CHECKS`` sources are also decoded
    with beam search and scored, outside any timed region. Times are used
    as given in ``runs`` and ``samples``.
    """
    checks.expect({r.chunk for r in runs} == set(range(len(dset.chunks))),
                  "some chunk was never decoded")
    first = {}
    for r in runs:
        checks.expect(len(r.greedy_lines) == len(r.beam_lines) == r.n,
                      f"chunk {r.chunk}: generate_file output is not aligned with its input")
        ref = first.setdefault(r.chunk, r)
        checks.expect((r.greedy_lines, r.beam_lines) == (ref.greedy_lines, ref.beam_lines),
                      f"chunk {r.chunk}: decoding is not reproducible across repeats")
    greedy_lines, beam_lines = dset.outputs(runs)
    report = dset.score(runs)

    ckpt = pl.load_checkpoint(ckpt_path)
    vocab_size = ckpt.config.vocab_size
    latency_samples = {}
    greedy_ids = {}
    for i, seconds, ids in samples:
        latency_samples.setdefault(i, []).append(seconds)
        greedy_ids[i] = ids
        check_ids(ids, GREEDY, vocab_size, f"greedy #{i}", checks)
        checks.expect(dt.detokenize(ids, ckpt.vocab) == greedy_lines[i],
                      f"greedy #{i}: generate_file output differs from decode")
    checks.expect(len(greedy_ids) == len(dset.sources), "some source has no latency sample")
    for i, text in enumerate(dset.sources[:BEAM_CHECKS]):
        src = dt.preprocess(text, ckpt.vocab)
        beam = dec.decode(ckpt.store, ckpt.config, src, BEAM)
        check_ids(beam, BEAM, vocab_size, f"beam #{i}", checks)
        checks.expect(dt.detokenize(beam, ckpt.vocab) == beam_lines[i],
                      f"beam #{i}: generate_file output differs from decode")
        greedy_score = dec.hypothesis_score(ckpt.store, ckpt.config, src, greedy_ids[i], BEAM)
        beam_score = dec.hypothesis_score(ckpt.store, ckpt.config, src, beam, BEAM)
        checks.expect(beam_score >= greedy_score - 1e-9 * max(1.0, abs(greedy_score)),
                      f"beam #{i}: score {beam_score} below greedy {greedy_score}")

    latencies = [median(v) for v in latency_samples.values()]
    by_chunk = {}
    for r in runs:
        by_chunk.setdefault(r.chunk, []).append(r)
    n = sum(rs[0].n for rs in by_chunk.values())
    return {
        "greedy_sents_per_s": n / sum(median(r.greedy_s for r in rs) for rs in by_chunk.values()),
        "beam_sents_per_s": n / sum(median(r.beam_s for r in rs) for rs in by_chunk.values()),
        "greedy_sent_s_p50": median(latencies),
        "greedy_sent_s_p90": quantiles(latencies, n=10)[8],
        "dev_bleu2": report.scores["BLEU-2"],
        "dev_ibleu": report.scores["iBLEU"],
    }


# ---------------------------------------------------------------------------
# workload units
# ---------------------------------------------------------------------------


@dataclass
class Unit:
    wall_s: float
    stages: list[Stage] = field(default_factory=list)
    dev_nll: float | None = None
    decoded: DecodeRun | None = None


class Workload:
    """The timed unit of one workload, its output checks and its metrics."""

    def __init__(self, name: str, seed: int, setup: Setup, out_dir):
        self.name, self.setup, self.out_dir = name, setup, out_dir
        self.unit_seed = pl.derive_seed(seed, name)
        os.makedirs(out_dir, exist_ok=True)
        self.min_units = 1
        if name == "decode":
            pairs_dir = os.path.join(setup.world_dir, "pairs")
            pool = [p for split in ("train", "valid", "test")
                    for p in read_pairs(os.path.join(pairs_dir, f"target.{split}.tsv"))]
            rng = np.random.default_rng(self.unit_seed)
            picked = [pool[int(i)] for i in rng.permutation(len(pool))[:DECODE_SOURCES]]
            self.dset = DecodeSet(picked, DECODE_CHUNK, out_dir)
            self.min_units = len(self.dset.chunks)

    def unit(self, index: int) -> Unit:
        world = self.setup.world
        t0 = time.perf_counter()
        if self.name == "maml_second":
            pretrained = pl.load_checkpoint(self.setup.chain[0].path)
            stage = meta_train(world, pretrained, self.unit_seed, MAML_STEPS, "second",
                               os.path.join(self.out_dir, "meta_trained.ckpt"))
            nll = dev_nll(stage.loaded, world)
            return Unit(time.perf_counter() - t0, [stage], nll)
        decoded = self.dset.run(self.setup.chain[-1].path, index)
        return Unit(time.perf_counter() - t0, decoded=decoded)

    def finish(self, units: list[Unit], checks: Checks) -> dict[str, float]:
        """Checks ``maml_second``'s units; returns the metrics they measure."""
        for stage in units[0].stages:
            check_stage(stage, checks)
        checks.expect(bool(np.isfinite(units[0].dev_nll)), "dev NLL is not finite")
        first = [s.saved_hash for s in units[0].stages]
        for other in units[1:]:
            checks.expect([s.saved_hash for s in other.stages] == first,
                          f"{self.name}: unit is not reproducible across repeats")
        return {"meta_steps_per_s": median(u.stages[0].steps_per_s for u in units),
                "dev_nll": units[0].dev_nll}


# The rates of the reference ladder's stages, in chain order.
REFERENCE_METRICS = ("pretrain_steps_per_s", "meta_steps_per_s", "finetune_steps_per_s")


def run_units(workload: Workload, units: list[Unit], seconds: float, at_least: int,
              after_unit) -> None:
    """Appends units until ``seconds`` have passed and ``at_least`` exist.

    ``after_unit(unit)`` runs after each unit, outside the time budget.
    """
    spent = 0.0
    while len(units) < at_least or spent < seconds:
        units.append(workload.unit(len(units)))
        spent += units[-1].wall_s
        after_unit(units[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_set(setup: Setup, work_dir) -> DecodeSet:
    pairs = read_pairs(os.path.join(setup.world_dir, "pairs", "target.valid.tsv"))
    return DecodeSet(pairs[:PROBE_SOURCES], PROBE_SOURCES, os.path.join(work_dir, "probe"))


def measure(name: str, seed: int, seconds: float, work_dir, checks: Checks) -> dict[str, float]:
    """End-to-end metrics with tracing off.

    Every time is the median of its samples and every rate is taken from
    median times; all are then scaled to the reference host speed by the
    run's ``HostClock``. The run interleaves its set-ups with equal shares
    of the timed units and takes a greedy latency sample after every unit,
    so that the samples of every metric span the run.

    ``wall_s`` is the median unit; for ``decode``, the sum over the chunks
    of their median unit, which is the time of one pass over the set.

    A workload whose unit does not decode decodes a fixed probe of
    ``PROBE_SOURCES`` target-dev sources instead: with ``generate_file``
    after each set-up, and one sentence at a time after each unit and once
    at the end for latency.
    """
    clock = HostClock()
    setups, units, runs, samples = [], [], [], []

    def latency(ckpt_path, indices) -> None:
        samples.extend(latency_pass(ckpt_path, dset, indices))
        clock.after(sum(seconds for _, seconds, _ in samples[-len(indices):]))

    def after_unit(unit: Unit) -> None:
        clock.after(unit.wall_s)
        # A latency sample of the sentences just decoded, or of the probe.
        latency(setups[-1].chain[-1].path,
                dset.chunks[unit.decoded.chunk][1] if name == "decode"
                else range(len(dset.sources)))

    for i in range(SETUP_REPEATS):
        setups.append(set_up(os.path.join(work_dir, f"setup{i}")))
        clock.after(setups[-1].seconds)
        if i == 0:
            workload = Workload(name, seed, setups[0], os.path.join(work_dir, "unit"))
            dset = workload.dset if name == "decode" else probe_set(setups[0], work_dir)
        if name != "decode":
            runs.append(dset.run(setups[-1].chain[-1].path, 0))
            clock.after(runs[-1].greedy_s + runs[-1].beam_s)
        run_units(workload, units, seconds / SETUP_REPEATS,
                  -(-workload.min_units * (i + 1) // SETUP_REPEATS), after_unit)
    check_setups(setups, checks)
    ckpt_path = setups[-1].chain[-1].path
    if name == "decode":
        runs = [u.decoded for u in units]
        by_chunk = {}
        for u in units:
            by_chunk.setdefault(u.decoded.chunk, []).append(u.wall_s)
        wall_s = sum(median(v) for v in by_chunk.values())
    else:
        latency(ckpt_path, range(len(dset.sources)))
        wall_s = median(u.wall_s for u in units)

    metrics = {
        "setup_s": median(s.seconds for s in setups),
        "wall_s": wall_s,
        "dev_nll": setups[0].dev_nll,
    }
    for i, key in enumerate(REFERENCE_METRICS):
        metrics[key] = median(s.chain[i].steps_per_s for s in setups)
    if name != "decode":
        metrics.update(workload.finish(units, checks))
    metrics.update(decode_result(ckpt_path, dset, runs, samples, checks))
    scale = clock.scale()
    for key, unit in UNITS.items():
        if unit == "s":
            metrics[key] *= scale
        elif unit == "1/s":
            metrics[key] /= scale
    metrics["peak_rss_mb"] = peak_rss_mb()
    print(f"perfbench: host kernel median {KERNEL_REF_S / scale:.6f} s "
          f"over {len(clock.kernel_s)} samples", file=sys.stderr)
    return metrics


def trace(name: str, seed: int, work_dir, checks: Checks,
          spans_path) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass of units, plus the tracing overhead.

    The tracer is installed before set-up and restored after the traced
    pass (one unit; all chunks and the scoring for ``decode``). The same
    units then run once more untraced, and must give the same outputs; the
    ratio of the two wall times is the tracing overhead.
    """
    tracer = tr.Tracer()
    originals = [getattr(module, attr) for module, attr, _ in tr.WRAPPED] + [ad.Node]
    tracer.install()
    try:
        with tracer.phase("setup"):
            setup = set_up(os.path.join(work_dir, "setup"))
        with tracer.phase("baseline"):
            baseline_probe(setup)
        workload = Workload(name, seed, setup, os.path.join(work_dir, "unit"))
        with tracer.phase("unit"):
            traced = [workload.unit(i) for i in range(workload.min_units)]
            if name == "decode":
                workload.dset.score([u.decoded for u in traced])
    finally:
        tracer.restore()
    restored = [getattr(module, attr) for module, attr, _ in tr.WRAPPED] + [ad.Node]
    checks.expect(all(a is b for a, b in zip(originals, restored)),
                  "tracer left a wrapped attribute behind")
    plain = [workload.unit(i) for i in range(workload.min_units)]
    check_setups([setup], checks)
    if name == "decode":
        ckpt_path = setup.chain[-1].path
        dset = workload.dset
        decode_result(ckpt_path, dset, [u.decoded for u in traced + plain],
                      latency_pass(ckpt_path, dset, range(len(dset.sources))), checks)
    else:
        workload.finish(traced + plain, checks)
    tracer.write(spans_path)
    metrics = tr.layer_metrics(tracer, "unit", "setup", "baseline")
    overhead = sum(u.wall_s for u in traced) / sum(u.wall_s for u in plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def baseline_probe(setup: Setup) -> None:
    """One pair loss and its adapter-and-norm backward at the pinned config.

    Reproduces the single-step graph counts of the ROADMAP's baseline: a
    fresh model with adapters, the first ``BATCH`` target training pairs.
    """
    store = mm.build_model(setup.config, seed=0)
    pairs = setup.world.target.domains["target"].train[:BATCH]
    leaves = store.leaves()
    loss = pl.make_pair_loss(setup.config)(leaves, pairs)
    _, phi = mm.partition_params(store)
    ad.backward(loss, {n: leaves[n] for n in phi})
