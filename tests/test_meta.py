"""Meta-learning oracles: scalar surrogates with closed forms, FD checks."""

import numpy as np
import pytest

from metaphrase import autodiff as ad
from metaphrase import meta as mt
from metaphrase import model as mm
from metaphrase.model import ParamStore


def quadratic_loss(params, center):
    """L(phi) = 0.5 * sum((phi - center)^2); `center` plays the batch role."""
    d = ad.sub(params["phi"], ad.constant(np.asarray(center)))
    return ad.sum_all(ad.scale(ad.mul(d, d), 0.5))


def make_store(**arrays):
    store = ParamStore()
    for name, (vals, part) in arrays.items():
        store.add(name, np.asarray(vals, dtype=np.float64), part)
    return store


class Task:
    def __init__(self, support, query):
        self.support = support
        self.query = query


def hyper(**kw):
    base = dict(alpha=0.1, beta=0.05, inner_steps=1, meta_batch_tasks=1,
                task_batch_size=2, order_mode="second", inner_optimizer="sgd",
                outer_optimizer="sgd", clip_norm=0.0)
    base.update(kw)
    return mt.TrainHyper(**base)


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
            hyper(inner_optimizer="rmsprop")


class TestInnerAdapt:
    def test_constant_loss_is_fixed_point(self):
        store = make_store(phi=([1.0, -2.0], "adapter"))

        def flat_loss(params, batch):
            return ad.sum_all(ad.constant(np.zeros(1)))

        adapted, _ = mt.inner_adapt(store, ["phi"], None, hyper(inner_steps=3), flat_loss)
        assert np.array_equal(adapted["phi"].value, store["phi"])

    def test_single_sgd_step_closed_form(self):
        phi0, a, alpha = 2.0, 0.5, 0.1
        store = make_store(phi=([phi0], "adapter"))
        adapted, losses = mt.inner_adapt(store, ["phi"], a, hyper(alpha=alpha), quadratic_loss)
        assert adapted["phi"].value[0] == pytest.approx(phi0 - alpha * (phi0 - a), abs=1e-15)
        assert losses[0] == pytest.approx(0.5 * (phi0 - a) ** 2)

    def test_four_steps_match_iterated_formula(self):
        phi0, a, alpha = 2.0, 0.5, 0.1
        store = make_store(phi=([phi0], "adapter"))
        adapted, _ = mt.inner_adapt(store, ["phi"], a, hyper(alpha=alpha, inner_steps=4), quadratic_loss)
        expected = phi0
        for _ in range(4):
            expected = expected - alpha * (expected - a)
        assert adapted["phi"].value[0] == pytest.approx(expected, abs=1e-14)
        # equivalently c + (1 - alpha)^4 (phi - c)
        assert adapted["phi"].value[0] == pytest.approx(a + (1 - alpha) ** 4 * (phi0 - a), abs=1e-14)

    def test_first_order_values_match_second_order(self):
        store = make_store(phi=([2.0, -1.0], "adapter"))
        second, _ = mt.inner_adapt(store, ["phi"], 0.3, hyper(inner_steps=3), quadratic_loss)
        first, _ = mt.inner_adapt(store, ["phi"], 0.3, hyper(inner_steps=3, order_mode="first"), quadratic_loss)
        np.testing.assert_allclose(second["phi"].value, first["phi"].value, atol=1e-15)


class TestOuterGradient:
    def test_second_order_scalar_surrogate(self):
        phi0, a, b, alpha = 1.7, 0.2, -0.4, 0.25
        store = make_store(phi=([phi0], "adapter"))
        task = Task(support=a, query=b)
        grads, _ = mt.outer_gradient(store, ["phi"], [task], hyper(alpha=alpha), quadratic_loss)
        adapted = phi0 - alpha * (phi0 - a)
        expected = (1 - alpha) * (adapted - b)
        assert grads["phi"][0] == pytest.approx(expected, abs=1e-12)

    def test_first_order_scalar_surrogate(self):
        phi0, a, b, alpha = 1.7, 0.2, -0.4, 0.25
        store = make_store(phi=([phi0], "adapter"))
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
            store = make_store(phi=([phi0], "adapter"))
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
        xs, ys = rng.standard_normal((4, 3)), rng.standard_normal((4, 1))
        xq, yq = rng.standard_normal((4, 3)), rng.standard_normal((4, 1))

        def loss_fn(params, batch):
            x, y = batch
            pred = ad.matmul(ad.gelu(ad.matmul(ad.constant(x), params["w1"])), params["w2"])
            d = ad.sub(pred, ad.constant(y))
            return ad.mean_all(ad.mul(d, d))

        hy = hyper(alpha=0.05, inner_steps=2)
        task = Task(support=(xs, ys), query=(xq, yq))

        def adapted_query_loss(w1_vals, w2_vals):
            store = make_store(w1=(w1_vals, "adapter"), w2=(w2_vals, "adapter"))
            adapted, _ = mt.inner_adapt(
                store, ["w1", "w2"], task.support,
                mt.TrainHyper(**{**hy.__dict__, "order_mode": "first"}), loss_fn
            )
            return float(loss_fn(adapted, task.query).value)

        store = make_store(w1=(w1, "adapter"), w2=(w2, "adapter"))
        grads, _ = mt.outer_gradient(store, ["w1", "w2"], [task], hy, loss_fn)

        step = 1e-5
        for name, base in (("w1", w1), ("w2", w2)):
            fd = np.zeros(base.size)
            for i in range(base.size):
                hi, lo = base.copy().reshape(-1), base.copy().reshape(-1)
                hi[i] += step
                lo[i] -= step
                args_hi = {"w1": w1, "w2": w2, name: hi.reshape(base.shape)}
                args_lo = {"w1": w1, "w2": w2, name: lo.reshape(base.shape)}
                fd[i] = (
                    adapted_query_loss(args_hi["w1"], args_hi["w2"])
                    - adapted_query_loss(args_lo["w1"], args_lo["w2"])
                ) / (2 * step)
            err = np.abs(grads[name].reshape(-1) - fd) / np.maximum(np.abs(fd), 1e-6)
            assert err.max() < 1e-5, f"{name}: {err.max()}"

    def test_empty_query_rejected(self):
        store = make_store(phi=([1.0], "adapter"))
        with pytest.raises(ValueError, match="query"):
            mt.outer_gradient(store, ["phi"], [Task(support=[0.1], query=[])],
                              hyper(), quadratic_loss)


def recorded_outer_gradient(store, phi, tasks, hy, loss_fn):
    """The meta-gradient with every backward pass recorded, as a reference."""
    base = store.leaves()
    if hy.order_mode == "second":
        total = None
        for task in tasks:
            adapted, _ = mt.inner_adapt(base, phi, task.support, hy, loss_fn)
            q = loss_fn(adapted, task.query)
            total = q if total is None else ad.add(total, q)
        grads = ad.backward(total, {n: base[n] for n in phi})
        return {n: grads[n].value for n in phi}
    out = {n: np.zeros(base[n].shape) for n in phi}
    for task in tasks:
        current = dict(base)
        for _ in range(hy.inner_steps):
            grads = ad.backward(loss_fn(current, task.support), {n: current[n] for n in phi})
            for n in phi:
                current[n] = ad.leaf(n, current[n].value - hy.alpha * grads[n].value)
        grads = ad.backward(loss_fn(current, task.query), {n: current[n] for n in phi})
        for n in phi:
            out[n] = out[n] + grads[n].value
    return out


class TestTransformerOuterGradient:
    @pytest.mark.parametrize("order", ["second", "first"])
    def test_matches_fully_recorded_reference(self, tiny_transformer, order):
        t = tiny_transformer
        _, phi = mm.partition_params(t.store)
        tasks = [Task(support=t.pairs[:2], query=t.pairs[2:4]),
                 Task(support=t.pairs[4:6], query=t.pairs[6:])]
        hy = hyper(alpha=0.05, inner_steps=2, meta_batch_tasks=2, order_mode=order)
        grads, _ = mt.outer_gradient(t.store, phi, tasks, hy, t.loss_fn)
        reference = recorded_outer_gradient(t.store, phi, tasks, hy, t.loss_fn)
        assert grads.keys() == reference.keys()
        for n in phi:
            np.testing.assert_array_equal(grads[n], reference[n], err_msg=n)
        assert all(np.any(g != 0.0) for g in grads.values())

    def test_second_order_matches_finite_differences(self, tiny_transformer):
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
        tasks = [Task(support=t.pairs[:2], query=t.pairs[2:4]),
                 Task(support=t.pairs[4:6], query=t.pairs[6:])]
        hy = hyper(alpha=0.05, inner_steps=2)
        base = store.leaves()

        def objective(params):
            leaves = {**base, **params}
            total = None
            for task in tasks:
                adapted, _ = mt.inner_adapt(leaves, phi, task.support, hy, t.loss_fn)
                q = t.loss_fn(adapted, task.query)
                total = q if total is None else ad.add(total, q)
            return total

        step = 1e-3
        kink_gap = min(np.abs(n.inputs[0].value).min()
                       for n in ad.Graph(objective(base)).nodes if n.op == "relu")
        assert kink_gap > 100 * step
        report = ad.grad_check(objective, {n: store[n] for n in phi}, step=step, max_elements=1,
                               rng=np.random.default_rng(0))
        assert report.passed, report.per_leaf


class TestMetaStep:
    def test_theta_untouched(self):
        store = make_store(phi=([1.0, 2.0], "adapter"), theta=([5.0, 6.0], "backbone"))

        def loss_fn(params, batch):
            mixed = ad.mul(params["phi"], params["theta"])
            d = ad.sub(mixed, ad.constant(np.asarray(batch)))
            return ad.sum_all(ad.mul(d, d))

        before = store["theta"].copy()
        task = Task(support=np.array([0.5, 0.5]), query=np.array([1.0, 1.0]))
        mt.meta_step(store, ["phi"], [task], hyper(), None, loss_fn)
        assert np.array_equal(store["theta"], before)
        assert not np.array_equal(store["phi"], np.array([1.0, 2.0]))

    def test_sgd_outer_update_formula(self):
        phi0, a, b, alpha, beta = 1.7, 0.2, -0.4, 0.25, 0.05
        store = make_store(phi=([phi0], "adapter"))
        task = Task(support=a, query=b)
        mt.meta_step(store, ["phi"], [task], hyper(alpha=alpha, beta=beta), None, quadratic_loss)
        adapted = phi0 - alpha * (phi0 - a)
        expected = phi0 - beta * (1 - alpha) * (adapted - b)
        assert store["phi"][0] == pytest.approx(expected, abs=1e-12)

    def test_task_sum_across_meta_batch(self):
        phi0, alpha, beta = 1.0, 0.1, 0.01
        tasks = [Task(support=0.2, query=0.5), Task(support=-0.3, query=1.5)]
        store = make_store(phi=([phi0], "adapter"))
        mt.meta_step(store, ["phi"], tasks, hyper(alpha=alpha, beta=beta, meta_batch_tasks=2),
                     None, quadratic_loss)
        total_grad = 0.0
        for t in tasks:
            adapted = phi0 - alpha * (phi0 - t.support)
            total_grad += (1 - alpha) * (adapted - t.query)
        assert store["phi"][0] == pytest.approx(phi0 - beta * total_grad, abs=1e-12)

    def test_clipping_inactive_below_threshold(self):
        for clip in (1.0, 1e9):
            store = make_store(phi=([1.001], "adapter"))
            task = Task(support=1.0, query=1.0)  # tiny gradients
            mt.meta_step(store, ["phi"], [task], hyper(clip_norm=clip), None, quadratic_loss)
            if clip == 1.0:
                first = store["phi"].copy()
        assert np.array_equal(first, store["phi"])

    def test_clipping_active_above_threshold(self):
        grads = {"a": np.array([3.0, 4.0])}  # norm 5
        clipped, norm = mt.clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(clipped["a"]) == pytest.approx(1.0)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            store = make_store(phi=(rng.standard_normal(4), "adapter"))
            state = mt.OptimizerState({"phi": (4,)}, hyper(outer_optimizer="adamw"))
            for _ in range(5):
                tasks = [Task(support=rng.standard_normal(4), query=rng.standard_normal(4))
                         for _ in range(2)]
                mt.meta_step(store, ["phi"], tasks,
                             hyper(outer_optimizer="adamw", meta_batch_tasks=2), state, quadratic_loss)
            return store["phi"]

        assert np.array_equal(run(), run())


class TestMetaTrain:
    def test_zero_steps_is_noop(self):
        store = make_store(phi=([1.0, 2.0], "adapter"))
        before = store["phi"].copy()
        result = mt.meta_train(store, ["phi"], lambda n: [], hyper(),
                               mt.StopCriteria(max_steps=0), quadratic_loss)
        assert result.history == []
        assert np.array_equal(store["phi"], before)

    def test_one_step_equals_meta_step(self):
        task = Task(support=0.3, query=0.8)

        store_a = make_store(phi=([1.5], "adapter"))
        mt.meta_train(store_a, ["phi"], lambda n: [task], hyper(),
                      mt.StopCriteria(max_steps=1), quadratic_loss)

        store_b = make_store(phi=([1.5], "adapter"))
        mt.meta_step(store_b, ["phi"], [task], hyper(), None, quadratic_loss)
        assert np.array_equal(store_a["phi"], store_b["phi"])

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
        store = make_store(phi=([0.0], "adapter"))
        hy = hyper(alpha=0.1, beta=0.2, meta_batch_tasks=3)
        before = mt.evaluate_adaptation(store, ["phi"], val_tasks, hy, quadratic_loss)
        result = mt.meta_train(store, ["phi"], sampler, hy,
                               mt.StopCriteria(max_steps=60, eval_every=10),
                               quadratic_loss, validation_sampler=lambda: val_tasks)
        after = mt.evaluate_adaptation(store, ["phi"], val_tasks, hy, quadratic_loss)
        assert after < before
        assert result.best_val_loss is not None
        assert len(result.history) == 60

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
        store = make_store(phi=([1e200], "adapter"))
        with pytest.raises(ad.NonFiniteError):
            mt.meta_step(store, ["phi"], [Task(support=0.0, query=0.0)],
                         hyper(), None, quadratic_loss)


class TestTrainLoop:
    """The one optimiser loop behind all three pipeline stages."""

    def run(self, val_losses, eval_every=1):
        store = make_store(phi=([0.0], "adapter"), theta=([5.0], "backbone"))
        losses = iter(val_losses)
        result = mt.train_loop(
            store, ["phi"], lambda: ({"phi": np.array([-1.0])}, 0.5, 0.25), hyper(beta=1.0),
            mt.StopCriteria(max_steps=len(val_losses), eval_every=eval_every),
            validate=lambda: next(losses),
        )
        return store, result

    def test_best_validation_parameters_restored(self):
        store, result = self.run([3.0, 1.0, 2.0])
        assert store["phi"][0] == 2.0  # after the second of three SGD steps
        assert store["theta"][0] == 5.0
        assert result.best_val_loss == 1.0
        assert [(r.step, r.support_loss, r.query_loss, r.val_loss, r.grad_norm)
                for r in result.history] == [(1, 0.5, 0.25, 3.0, 1.0), (2, 0.5, 0.25, 1.0, 1.0),
                                             (3, 0.5, 0.25, 2.0, 1.0)]

    def test_validates_every_eval_every_steps_and_at_the_last(self):
        _, result = self.run([3.0, 2.0, 1.0, 0.5, 0.25], eval_every=2)
        assert [r.val_loss for r in result.history] == [None, 3.0, None, 2.0, 1.0]

    def test_non_finite_validation_raises(self):
        with pytest.raises(mt.DivergenceError, match="step 2"):
            self.run([1.0, float("nan")])

    def test_stop_criteria_reject_negative_steps_and_zero_interval(self):
        with pytest.raises(ValueError, match="max_steps"):
            mt.StopCriteria(max_steps=-2)
        with pytest.raises(ValueError, match="eval_every"):
            mt.StopCriteria(max_steps=3, eval_every=0)
        assert mt.StopCriteria(max_steps=0).max_steps == 0
