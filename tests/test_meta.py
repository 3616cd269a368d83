"""Meta-learning oracles: scalar surrogates with closed forms, FD checks."""

import math

import numpy as np
import pytest

from metaphrase import autodiff as ad
from metaphrase import data as dt
from metaphrase import decoding as dec
from metaphrase import meta as mt
from metaphrase import model as mm
from metaphrase.model import ParamStore


def quadratic_loss(params, centers):
    """Per task t, 0.5 * sum((phi_t - c_t)^2); the task batches are the centers c_t."""
    phi = params["phi"]
    c = np.stack([np.broadcast_to(np.asarray(ci, dtype=np.float64), phi.shape[-1:])
                  for ci in centers])
    d = ad.sub(phi, ad.constant(c.reshape(phi.shape)))
    return ad.sum_to(ad.scale(ad.mul(d, d), 0.5), (len(centers), 1, 1, 1))


def only_row(node):
    """The one task row of a single-task stacked entry, flattened."""
    assert node.shape[0] == 1
    return node.value.reshape(-1)


def make_store(**arrays):
    store = ParamStore()
    for name, vals in arrays.items():
        store.add(name, np.asarray(vals, dtype=np.float64))
    return store


class Task:
    def __init__(self, support, query):
        self.support = support
        self.query = query


def hyper(**kw):
    base = dict(alpha=0.1, beta=0.05, inner_steps=1, meta_batch_tasks=1,
                task_batch_size=2, order_mode="second", outer_optimizer="sgd", clip_norm=0.0)
    base.update(kw)
    return mt.TrainHyper(**base)


def train_on(store, tasks, hy, loss_fn=quadratic_loss):
    """One outer update of phi on ``tasks``: ``meta_train`` for one step."""
    return mt.meta_train(store, ["phi"], lambda n: tasks, hy, mt.StopCriteria(max_steps=1),
                         loss_fn)


class TestHyper:
    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            hyper(alpha=0.0)
        with pytest.raises(ValueError):
            hyper(inner_steps=0)

    def test_rejects_unknown_modes(self):
        with pytest.raises(ValueError):
            hyper(order_mode="zeroth")
        with pytest.raises(ValueError):
            hyper(outer_optimizer="rmsprop")

    @pytest.mark.parametrize("kw", [dict(alpha=np.nan), dict(beta=np.inf)], ids=str)
    def test_rejects_non_finite_step_sizes(self, kw):
        with pytest.raises(ValueError, match="step sizes must be finite"):
            hyper(**kw)

    @pytest.mark.parametrize("clip", [np.nan, np.inf, -1.0])
    def test_rejects_non_finite_or_negative_clip_norm(self, clip):
        with pytest.raises(ValueError, match="clip_norm"):
            hyper(clip_norm=clip)
        assert hyper(clip_norm=0.0).clip_norm == 0.0  # 0 still disables clipping


class TestInnerAdapt:
    def test_constant_loss_is_fixed_point(self):
        store = make_store(phi=[1.0, -2.0])

        def flat_loss(params, batch):
            return ad.sum_all(ad.constant(np.zeros(1)))

        adapted, _ = mt.inner_adapt(store, ["phi"], [None], hyper(inner_steps=3), flat_loss)
        assert np.array_equal(only_row(adapted["phi"]), store["phi"])

    def test_single_sgd_step_closed_form(self):
        phi0, a, alpha = 2.0, 0.5, 0.1
        store = make_store(phi=[phi0])
        adapted, losses = mt.inner_adapt(store, ["phi"], [a], hyper(alpha=alpha), quadratic_loss)
        assert only_row(adapted["phi"])[0] == pytest.approx(phi0 - alpha * (phi0 - a), abs=1e-15)
        assert losses.shape == (1, 1)
        assert losses[0, 0] == pytest.approx(0.5 * (phi0 - a) ** 2)

    def test_four_steps_match_iterated_formula(self):
        phi0, a, alpha = 2.0, 0.5, 0.1
        store = make_store(phi=[phi0])
        adapted, _ = mt.inner_adapt(store, ["phi"], [a], hyper(alpha=alpha, inner_steps=4), quadratic_loss)
        expected = phi0
        for _ in range(4):
            expected = expected - alpha * (expected - a)
        assert only_row(adapted["phi"])[0] == pytest.approx(expected, abs=1e-14)
        # equivalently c + (1 - alpha)^4 (phi - c)
        assert only_row(adapted["phi"])[0] == pytest.approx(a + (1 - alpha) ** 4 * (phi0 - a), abs=1e-14)

    def test_each_task_row_takes_its_own_steps(self):
        phi0, centers, alpha = 2.0, [0.5, -1.0, 3.0], 0.1
        store = make_store(phi=[phi0])
        adapted, losses = mt.inner_adapt(store, ["phi"], centers, hyper(alpha=alpha, inner_steps=2),
                                         quadratic_loss)
        assert adapted["phi"].shape == (3, 1, 1, 1)
        assert losses.shape == (2, 3)
        for t, a in enumerate(centers):
            expected = a + (1 - alpha) ** 2 * (phi0 - a)
            assert adapted["phi"].value[t, 0, 0, 0] == pytest.approx(expected, abs=1e-14)
            assert losses[0, t] == pytest.approx(0.5 * (phi0 - a) ** 2)

    def test_first_order_values_match_second_order(self):
        store = make_store(phi=[2.0, -1.0])
        second, _ = mt.inner_adapt(store, ["phi"], [0.3], hyper(inner_steps=3), quadratic_loss)
        first, _ = mt.inner_adapt(store, ["phi"], [0.3], hyper(inner_steps=3, order_mode="first"), quadratic_loss)
        np.testing.assert_allclose(second["phi"].value, first["phi"].value, atol=1e-15)


class TestOuterGradient:
    def test_second_order_scalar_surrogate(self):
        phi0, a, b, alpha = 1.7, 0.2, -0.4, 0.25
        store = make_store(phi=[phi0])
        task = Task(support=a, query=b)
        grads, _ = mt.outer_gradient(store, ["phi"], [task], hyper(alpha=alpha), quadratic_loss)
        adapted = phi0 - alpha * (phi0 - a)
        expected = (1 - alpha) * (adapted - b)
        assert grads["phi"][0] == pytest.approx(expected, abs=1e-12)

    def test_first_order_scalar_surrogate(self):
        phi0, a, b, alpha = 1.7, 0.2, -0.4, 0.25
        store = make_store(phi=[phi0])
        task = Task(support=a, query=b)
        grads, _ = mt.outer_gradient(
            store, ["phi"], [task], hyper(alpha=alpha, order_mode="first"), quadratic_loss
        )
        adapted = phi0 - alpha * (phi0 - a)
        assert grads["phi"][0] == pytest.approx(adapted - b, abs=1e-12)

    def test_orders_converge_linearly_as_alpha_shrinks(self):
        phi0, a, b = 1.0, 0.3, -0.9
        diffs = []
        for alpha in (0.2, 0.1, 0.05, 0.025):
            store = make_store(phi=[phi0])
            task = Task(support=a, query=b)
            g2, _ = mt.outer_gradient(store, ["phi"], [task], hyper(alpha=alpha), quadratic_loss)
            g1, _ = mt.outer_gradient(
                store, ["phi"], [task], hyper(alpha=alpha, order_mode="first"), quadratic_loss
            )
            diffs.append(abs(g2["phi"][0] - g1["phi"][0]))
        ratios = [diffs[i] / diffs[i + 1] for i in range(len(diffs) - 1)]
        for r in ratios:
            assert r == pytest.approx(2.0, rel=0.15)

    def test_second_order_matches_fd_on_nonlinear_model(self):
        rng = np.random.default_rng(5)
        w1, w2 = rng.standard_normal((3, 2)) * 0.5, rng.standard_normal((2, 1)) * 0.5
        tasks = [Task(support=(rng.standard_normal((4, 3)), rng.standard_normal((4, 1))),
                      query=(rng.standard_normal((4, 3)), rng.standard_normal((4, 1))))
                 for _ in range(2)]

        def loss_fn(params, batches):
            # Per task, the mean squared error of a two-layer network.
            x = np.stack([b[0] for b in batches])[:, None]  # (n_tasks, 1, rows, 3)
            y = np.stack([b[1] for b in batches])[:, None]
            pred = ad.matmul(ad.gelu(ad.matmul(ad.constant(x), params["w1"])), params["w2"])
            d = ad.sub(pred, ad.constant(y))
            return ad.scale(ad.sum_to(ad.mul(d, d), (len(batches), 1, 1, 1)), 1.0 / y[0].size)

        hy = hyper(alpha=0.05, inner_steps=2)

        def adapted_query_loss(params):
            adapted, _ = mt.inner_adapt(params, ["w1", "w2"], [t.support for t in tasks], hy,
                                        loss_fn)
            return ad.sum_all(loss_fn(adapted, [t.query for t in tasks]))

        report = ad.grad_check(adapted_query_loss, {"w1": w1, "w2": w2}, tolerance=1e-5)
        assert report.passed, report.per_leaf

    def test_empty_query_rejected(self):
        store = make_store(phi=[1.0])
        with pytest.raises(ValueError, match="query"):
            mt.outer_gradient(store, ["phi"], [Task(support=[0.1], query=[])],
                              hyper(), quadratic_loss)


def recorded_outer_gradient(store, phi, tasks, hy, loss_fn):
    """The stacked meta-gradient with every backward pass recorded, as a reference."""
    base = store.leaves()
    supports = mt.TaskBatches(t.support for t in tasks)
    queries = mt.TaskBatches(t.query for t in tasks)
    if hy.order_mode == "second":
        adapted, _ = mt.inner_adapt(base, phi, supports, hy, loss_fn)
        grads = ad.backward(ad.sum_all(loss_fn(adapted, queries)), {n: base[n] for n in phi})
        return {n: grads[n].value for n in phi}
    current = mt.stack_phi(base, phi, len(tasks))
    for _ in range(hy.inner_steps):
        grads = ad.backward(ad.sum_all(loss_fn(current, supports)), {n: current[n] for n in phi})
        for n in phi:
            current[n] = ad.leaf(n, current[n].value - hy.alpha * grads[n].value)
    grads = ad.backward(ad.sum_all(loss_fn(current, queries)), {n: current[n] for n in phi})
    return {n: grads[n].value.reshape(len(tasks), -1).sum(axis=0).reshape(base[n].shape)
            for n in phi}


def adapt_one_task(base, phi, support, hy, loss_fn):
    """One task's inner loop on the unstacked (batch, len) path."""
    current = dict(base)
    for _ in range(hy.inner_steps):
        grads = ad.backward(loss_fn(current, support), {n: current[n] for n in phi})
        for n in phi:
            if hy.order_mode == "second":
                current[n] = ad.add(current[n], ad.scale(grads[n], -hy.alpha))
            else:
                current[n] = ad.leaf(n, current[n].value - hy.alpha * grads[n].value)
    return current


def per_task_outer_gradient(store, phi, tasks, hy, loss_fn):
    """The meta-gradient as a loop over the tasks, one unstacked graph each."""
    base = store.leaves()
    out = {n: np.zeros(base[n].shape) for n in phi}
    for task in tasks:
        adapted = adapt_one_task(base, phi, task.support, hy, loss_fn)
        at = base if hy.order_mode == "second" else adapted
        grads = ad.backward(loss_fn(adapted, task.query), {n: at[n] for n in phi})
        for n in phi:
            out[n] = out[n] + grads[n].value
    return out


def assert_close_per_parameter(got, want, rel):
    """Each parameter's largest entry error is below ``rel`` times its largest entry."""
    assert got.keys() == want.keys()
    for n in want:
        assert got[n].shape == want[n].shape, n
        assert np.abs(got[n] - want[n]).max() <= rel * np.abs(want[n]).max(), n


def pad_widths(batches):
    return [(max(len(p.src) for p in b), max(len(p.tgt) for p in b)) for b in batches]


class TestTransformerOuterGradient:
    @pytest.fixture
    def tasks(self, tiny_transformer):
        pairs = tiny_transformer.pairs
        tasks = [Task(support=pairs[:2], query=pairs[2:4]),
                 Task(support=pairs[4:6], query=pairs[6:])]
        # Each task alone pads to other widths than the stacked batch does.
        for side in ("support", "query"):
            assert len(set(pad_widths([getattr(t, side) for t in tasks]))) > 1
        return tasks

    @pytest.mark.parametrize("order", ["second", "first"])
    def test_matches_fully_recorded_reference(self, tiny_transformer, tasks, order):
        t = tiny_transformer
        _, phi = mm.partition_params(t.store)
        hy = hyper(alpha=0.05, inner_steps=2, meta_batch_tasks=2, order_mode=order)
        grads, _ = mt.outer_gradient(t.store, phi, tasks, hy, t.loss_fn)
        reference = recorded_outer_gradient(t.store, phi, tasks, hy, t.loss_fn)
        assert grads.keys() == reference.keys()
        for n in phi:
            np.testing.assert_array_equal(grads[n], reference[n], err_msg=n)
        assert all(np.any(g != 0.0) for g in grads.values())

    @pytest.mark.parametrize("order", ["second", "first"])
    def test_matches_per_task_loop(self, tiny_transformer, tasks, order):
        t = tiny_transformer
        _, phi = mm.partition_params(t.store)
        hy = hyper(alpha=0.05, inner_steps=2, meta_batch_tasks=2, order_mode=order)
        grads, metrics = mt.outer_gradient(t.store, phi, tasks, hy, t.loss_fn)
        assert_close_per_parameter(grads, per_task_outer_gradient(t.store, phi, tasks, hy,
                                                                  t.loss_fn), 1e-12)
        base = t.store.leaves()
        query = [float(t.loss_fn(adapt_one_task(base, phi, task.support, hy, t.loss_fn),
                                 task.query).value) for task in tasks]
        assert metrics["query_loss"] == pytest.approx(np.mean(query), rel=1e-12)

    def test_evaluate_adaptation_matches_per_task_mean(self, tiny_transformer, tasks):
        t = tiny_transformer
        _, phi = mm.partition_params(t.store)
        hy = hyper(alpha=0.05, inner_steps=2, order_mode="first")
        base = t.store.leaves()
        per_task = [float(t.loss_fn(adapt_one_task(base, phi, task.support, hy, t.loss_fn),
                                    task.query).value) for task in tasks]
        got = mt.evaluate_adaptation(t.store, phi, tasks, hyper(alpha=0.05, inner_steps=2),
                                     t.loss_fn)
        assert got == pytest.approx(np.mean(per_task), rel=1e-12)

    def test_task_rows_are_independent(self, tiny_transformer):
        t = tiny_transformer
        _, phi = mm.partition_params(t.store)
        rng = np.random.default_rng(9)

        def retokened(pair):
            def fresh(ids):
                body = rng.integers(len(dt.RESERVED), 20, size=len(ids) - 2)
                return np.concatenate([[dt.BOS], body, [dt.EOS]])
            return dt.ParaphrasePair(fresh(pair.src), fresh(pair.tgt))

        batches = [t.pairs[:3], t.pairs[3:6]]
        changed = [batches[0], [retokened(p) for p in batches[1]]]
        assert pad_widths(changed) == pad_widths(batches)

        def inner_gradient(supports):
            current = mt.stack_phi(t.store, phi, 2)
            loss = ad.sum_all(t.loss_fn(current, mt.TaskBatches(supports)))
            return ad.gradient_values(loss, {n: current[n] for n in phi})

        before, after = inner_gradient(batches), inner_gradient(changed)
        for n in phi:
            np.testing.assert_array_equal(before[n][0], after[n][0], err_msg=n)
        assert any(np.any(before[n][1] != after[n][1]) for n in phi)

    @pytest.mark.parametrize("side", ["support", "query"])
    def test_unequal_pair_counts_rejected(self, tiny_transformer, side):
        t = tiny_transformer
        _, phi = mm.partition_params(t.store)
        sizes = {"support": (2, 3), "query": (3, 2)}[side]
        tasks = [Task(support=t.pairs[:2], query=t.pairs[2:4]),
                 Task(support=t.pairs[4:4 + sizes[0]], query=t.pairs[8 - sizes[1]:])]
        with pytest.raises(dt.TaskSizeError, match=r"equal numbers of pairs, got \[2, 3\]"):
            mt.outer_gradient(t.store, phi, tasks, hyper(), t.loss_fn)

    def test_second_order_matches_finite_differences(self, tiny_transformer, tasks):
        # Central differences are meaningless across a ReLU kink, and with
        # zero adapter biases some pre-activations sit within 1e-6 of zero.
        # Biases of +-0.5 keep every kink far outside the step.
        t = tiny_transformer
        store = t.store.copy()
        rng = np.random.default_rng(4)
        for name in store.names():
            if name.endswith(".bd"):
                store.set(name, rng.choice([-0.5, 0.5], size=store[name].shape))
        _, phi = mm.partition_params(store)
        hy = hyper(alpha=0.05, inner_steps=2)
        base = store.leaves()

        def objective(params):
            leaves = {**base, **params}
            adapted, _ = mt.inner_adapt(leaves, phi, [task.support for task in tasks], hy,
                                        t.loss_fn)
            return ad.sum_all(t.loss_fn(adapted, mt.TaskBatches(task.query for task in tasks)))

        step = 1e-3
        kink_gap = min(np.abs(n.inputs[0].value).min()
                       for n in ad.Graph(objective(base)).nodes if n.op == "relu")
        assert kink_gap > 100 * step
        report = ad.grad_check(objective, {n: store[n] for n in phi}, step=step, max_elements=1,
                               rng=np.random.default_rng(0))
        assert report.passed, report.per_leaf


def test_second_order_inner_loop_holds_under_half_its_interior_bytes(tiny_transformer):
    # A recording backward releases each interior value that no VJP can read.
    # The backbone is frozen, so an activation that feeds only a backbone
    # weight's product is not held for that weight's gradient: at this config
    # 31% of the interior bytes stay held (448,512 of 1,457,728), where
    # marking both inputs of every product held 43%.
    t = tiny_transformer
    _, phi = mm.partition_params(t.store)
    adapted, _ = mt.inner_adapt(t.store, phi, [t.pairs[:4], t.pairs[4:]],
                                hyper(inner_steps=2, meta_batch_tasks=2), t.loss_fn)
    interior = [n for n in ad.Graph(list(adapted.values())).nodes if n.inputs]
    total = 8 * sum(math.prod(n.shape) for n in interior)
    held = sum(n.value.nbytes for n in interior if n.value is not None)
    assert held <= 0.35 * total


class TestWalkPins:
    """Exact counts of what a step builds and what its inner loop keeps.

    How ``backward`` keeps its books is free to change, but it must build the
    same nodes and release the same values.
    """

    def test_interior_bytes_held_by_the_second_order_inner_loop(self, tiny_transformer):
        t = tiny_transformer
        _, phi = mm.partition_params(t.store)
        adapted, _ = mt.inner_adapt(t.store, phi, [t.pairs[:4], t.pairs[4:]],
                                    hyper(inner_steps=2, meta_batch_tasks=2), t.loss_fn)
        interior = [n for n in ad.Graph(list(adapted.values())).nodes if n.inputs]
        total = 8 * sum(math.prod(n.shape) for n in interior)
        held = sum(n.value.nbytes for n in interior if n.value is not None)
        assert (held, total) == (448_512, 1_457_728)

    @pytest.mark.parametrize("order, nodes", [("second", 2_868), ("first", 1_200)])
    def test_op_nodes_of_one_outer_gradient(self, tiny_transformer, monkeypatch, order, nodes):
        built = []

        class CountingNode(ad.Node):
            __slots__ = ()

            def __init__(self, op, inputs, attrs, value, name=None):
                super().__init__(op, inputs, attrs, value, name)
                if op is not None:
                    built.append(op)

        t = tiny_transformer
        _, phi = mm.partition_params(t.store)
        tasks = [Task(support=t.pairs[:2], query=t.pairs[2:4]),
                 Task(support=t.pairs[4:6], query=t.pairs[6:])]
        hy = hyper(alpha=0.05, inner_steps=2, meta_batch_tasks=2, order_mode=order)
        monkeypatch.setattr(ad, "Node", CountingNode)
        mt.outer_gradient(t.store, phi, tasks, hy, t.loss_fn)
        assert len(built) == nodes


class TestMetaStep:
    def test_theta_untouched(self):
        store = make_store(phi=[1.0, 2.0], theta=[5.0, 6.0])

        def loss_fn(params, batch):
            mixed = ad.mul(params["phi"], params["theta"])
            d = ad.sub(mixed, ad.constant(np.asarray(batch)))
            return ad.sum_all(ad.mul(d, d))

        before = store["theta"].copy()
        task = Task(support=np.array([0.5, 0.5]), query=np.array([1.0, 1.0]))
        train_on(store, [task], hyper(), loss_fn)
        assert np.array_equal(store["theta"], before)
        assert not np.array_equal(store["phi"], np.array([1.0, 2.0]))

    def test_sgd_outer_update_formula(self):
        phi0, a, b, alpha, beta = 1.7, 0.2, -0.4, 0.25, 0.05
        store = make_store(phi=[phi0])
        task = Task(support=a, query=b)
        train_on(store, [task], hyper(alpha=alpha, beta=beta))
        adapted = phi0 - alpha * (phi0 - a)
        expected = phi0 - beta * (1 - alpha) * (adapted - b)
        assert store["phi"][0] == pytest.approx(expected, abs=1e-12)

    def test_task_sum_across_meta_batch(self):
        phi0, alpha, beta = 1.0, 0.1, 0.01
        tasks = [Task(support=0.2, query=0.5), Task(support=-0.3, query=1.5)]
        store = make_store(phi=[phi0])
        train_on(store, tasks, hyper(alpha=alpha, beta=beta, meta_batch_tasks=2))
        total_grad = 0.0
        for t in tasks:
            adapted = phi0 - alpha * (phi0 - t.support)
            total_grad += (1 - alpha) * (adapted - t.query)
        assert store["phi"][0] == pytest.approx(phi0 - beta * total_grad, abs=1e-12)

    def test_clipping_inactive_below_threshold(self):
        for clip in (1.0, 1e9):
            store = make_store(phi=[1.001])
            task = Task(support=1.0, query=1.0)  # tiny gradients
            train_on(store, [task], hyper(clip_norm=clip))
            if clip == 1.0:
                first = store["phi"].copy()
        assert np.array_equal(first, store["phi"])

    def test_clipping_active_above_threshold(self):
        grads = {"a": np.array([3.0, 4.0])}  # norm 5
        clipped, norm = mt.clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(clipped["a"]) == pytest.approx(1.0)

    def test_clipping_survives_a_squared_norm_that_overflows(self):
        clipped, norm = mt.clip_global_norm({"a": np.array([1e200, 1.0])}, 1.0)
        assert norm == 1e200
        np.testing.assert_allclose(clipped["a"], [1.0, 1e-200], rtol=1e-15)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            store = make_store(phi=rng.standard_normal(4))

            def sampler(n):
                return [Task(support=rng.standard_normal(4), query=rng.standard_normal(4))
                        for _ in range(n)]

            mt.meta_train(store, ["phi"], sampler,
                          hyper(outer_optimizer="adamw", meta_batch_tasks=2),
                          mt.StopCriteria(max_steps=5), quadratic_loss)
            return store["phi"]

        assert np.array_equal(run(), run())


class TestMetaTrain:
    def test_zero_steps_is_noop(self):
        store = make_store(phi=[1.0, 2.0])
        before = store["phi"].copy()
        history = mt.meta_train(store, ["phi"], lambda n: [], hyper(),
                                mt.StopCriteria(max_steps=0), quadratic_loss)
        assert history == []
        assert np.array_equal(store["phi"], before)

    def test_one_step_applies_the_outer_gradient(self):
        task = Task(support=0.3, query=0.8)
        store = make_store(phi=[1.5])
        grads, metrics = mt.outer_gradient(store, ["phi"], [task], hyper(), quadratic_loss)
        expected = store["phi"] - hyper().beta * grads["phi"]
        history = train_on(store, [task], hyper())
        assert np.array_equal(store["phi"], expected)
        assert history[0].query_loss == metrics["query_loss"]

    def test_adaptation_improves_on_task_family(self):
        # Tasks share structure: centers cluster near 3.0; adapting from a
        # meta-trained phi should beat adapting from the initial phi.
        rng = np.random.default_rng(0)

        def sampler(n):
            return [
                Task(support=3.0 + 0.1 * rng.standard_normal(),
                     query=3.0 + 0.1 * rng.standard_normal())
                for _ in range(n)
            ]

        val_tasks = [Task(support=3.0, query=3.05), Task(support=2.9, query=3.0)]
        store = make_store(phi=[0.0])
        hy = hyper(alpha=0.1, beta=0.2, meta_batch_tasks=3)
        before = mt.evaluate_adaptation(store, ["phi"], val_tasks, hy, quadratic_loss)
        history = mt.meta_train(store, ["phi"], sampler, hy,
                                mt.StopCriteria(max_steps=60, eval_every=10),
                                quadratic_loss, validation=val_tasks)
        after = mt.evaluate_adaptation(store, ["phi"], val_tasks, hy, quadratic_loss)
        assert after < before
        assert len(history) == 60

    def test_history_csv_roundtrip(self, tmp_path):
        rows = [
            mt.HistoryRow(1, 0.5, 0.25, None, 1.0, 0.01),
            mt.HistoryRow(2, 0.4, 0.20, 0.3, 0.9, 0.02),
        ]
        path = tmp_path / "history.csv"
        mt.write_history_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,support_loss,query_loss,val_loss,grad_norm,wall_time"
        assert lines[1].startswith("1,0.5,0.25,,1,")
        assert lines[2].startswith("2,0.4,0.2,0.3,")

    def test_non_finite_loss_propagates(self):
        store = make_store(phi=[1e200])
        with pytest.raises(ad.NonFiniteError):
            train_on(store, [Task(support=0.0, query=0.0)], hyper())


class TestTrainLoop:
    """The one optimiser loop behind all three pipeline stages."""

    def run(self, val_losses, eval_every=1):
        """The k-th step that validates reads ``val_losses[k - 1]``, on every call."""
        store = make_store(phi=[0.0], theta=[5.0])
        steps, by_step = [], {}

        def step_fn():
            steps.append(len(steps) + 1)
            return {"phi": np.array([-1.0])}, 0.5, 0.25

        def validate():
            if steps[-1] not in by_step:
                by_step[steps[-1]] = val_losses[len(by_step)]
            return by_step[steps[-1]]

        history = mt.train_loop(
            store, ["phi"], step_fn, hyper(beta=1.0),
            mt.StopCriteria(max_steps=len(val_losses), eval_every=eval_every),
            validate=validate,
        )
        return store, history

    def test_best_validation_parameters_restored(self):
        store, history = self.run([3.0, 1.0, 2.0])
        assert store["phi"][0] == 2.0  # after the second of three SGD steps
        assert store["theta"][0] == 5.0
        assert [(r.step, r.support_loss, r.query_loss, r.val_loss, r.grad_norm)
                for r in history] == [(1, 0.5, 0.25, 3.0, 1.0), (2, 0.5, 0.25, 1.0, 1.0),
                                             (3, 0.5, 0.25, 2.0, 1.0)]

    def test_validates_every_eval_every_steps_and_at_the_last(self):
        _, history = self.run([3.0, 2.0, 1.0, 0.5, 0.25], eval_every=2)
        assert [r.val_loss for r in history] == [None, 3.0, None, 2.0, 1.0]

    def test_non_finite_validation_raises(self):
        with pytest.raises(mt.DivergenceError, match="step 2"):
            self.run([1.0, float("nan")])

    def test_validation_overflow_names_its_op_and_step(self):
        store = make_store(phi=[0.0])
        big = ad.constant(np.full(2, 1e200))
        with pytest.raises(ad.NonFiniteError, match=r"'mul' at step 1$"):
            mt.train_loop(store, ["phi"], lambda: ({"phi": np.array([-1.0])}, 0.5, 0.25),
                          hyper(), mt.StopCriteria(max_steps=1),
                          validate=lambda: float(ad.sum_all(ad.mul(big, big)).value))

    def test_stop_criteria_reject_negative_steps_and_zero_interval(self):
        with pytest.raises(ValueError, match="max_steps"):
            mt.StopCriteria(max_steps=-2)
        with pytest.raises(ValueError, match="eval_every"):
            mt.StopCriteria(max_steps=3, eval_every=0)
        assert mt.StopCriteria(max_steps=0).max_steps == 0


class TestBoundaryChecksOnly:
    """Perf guard: outside ``autodiff.checked()`` no op checks its own output."""

    @staticmethod
    def count_checks(monkeypatch):
        """Count ``check_finite`` calls made inside ``_make`` and outside it."""
        counts = {"in_op": 0, "boundary": 0}
        depth = [0]
        make, check = ad._make, ad.check_finite

        def counted_make(*args, **kwargs):
            depth[0] += 1
            try:
                return make(*args, **kwargs)
            finally:
                depth[0] -= 1

        def counted_check(value, context):
            counts["in_op" if depth[0] else "boundary"] += 1
            check(value, context)

        monkeypatch.setattr(ad, "_make", counted_make)
        monkeypatch.setattr(ad, "check_finite", counted_check)
        return counts

    @staticmethod
    def step_and_decode(t):
        _, phi = mm.partition_params(t.store)
        tasks = [Task(support=t.pairs[:2], query=t.pairs[2:4])]
        mt.outer_gradient(t.store, phi, tasks, hyper(inner_steps=2), t.loss_fn)
        dec.decode(t.store, t.config, t.pairs[0].src,
                   dec.DecodeConfig(strategy="beam", beam_width=2, max_decode_len=6))

    def test_second_order_step_and_decode_check_only_at_boundaries(self, tiny_transformer,
                                                                   monkeypatch):
        counts = self.count_checks(monkeypatch)
        self.step_and_decode(tiny_transformer)
        assert counts["in_op"] == 0
        assert counts["boundary"] > 0
        with ad.checked():
            self.step_and_decode(tiny_transformer)
        assert counts["in_op"] > 0


def test_second_order_step_builds_no_frozen_weight_gradient(tiny_transformer, monkeypatch):
    # A 2-D weight's gradient is one _flat_matmul; only frozen weights are 2-D
    # (phi is stacked per task), and backward builds none of theirs.
    made = {}
    make = ad._make

    def counted(op_id, *args, **kwargs):
        made[op_id] = made.get(op_id, 0) + 1
        return make(op_id, *args, **kwargs)

    monkeypatch.setattr(ad, "_make", counted)
    t = tiny_transformer
    _, phi = mm.partition_params(t.store)
    tasks = [Task(support=t.pairs[:2], query=t.pairs[2:4]),
             Task(support=t.pairs[4:6], query=t.pairs[6:8])]
    grads, _ = mt.outer_gradient(t.store, phi, tasks, hyper(inner_steps=2), t.loss_fn)
    assert made.get("_flat_matmul", 0) == 0
    assert made["matmul"] > 0
    assert all(np.any(grads[n] != 0.0) for n in phi if n.endswith(".wd"))
