"""Gradient engine tests: analytic cases plus finite-difference oracles."""

from functools import reduce

import numpy as np
import pytest

from metaphrase import autodiff as ad


class TestPrimitiveValues:
    def test_softmax_symmetry(self):
        out = ad.apply_primitive("softmax_lastdim", [np.array([0.0, 0.0])])
        np.testing.assert_allclose(out.value, [0.5, 0.5])

    def test_relu_definition(self):
        out = ad.apply_primitive("relu", [np.array([-1.5, 2.0])])
        np.testing.assert_array_equal(out.value, [0.0, 2.0])

    def test_layer_norm_zero_variance(self):
        out = ad.layer_norm(np.ones(3), np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out.value, np.zeros(3), atol=1e-12)

    def test_matmul_identity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        out = ad.matmul(a, np.eye(4))
        np.testing.assert_array_equal(out.value, a)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown primitive"):
            ad.apply_primitive("conv2d", [np.ones(3)])
        with pytest.raises(ValueError, match="unknown primitive"):
            ad.apply_primitive("_sum_to", [np.ones(3)], {"shape": (1,)})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_embed_out_of_range_rejected(self):
        with pytest.raises(ad.ShapeError, match="out of range"):
            ad.embed_lookup(np.ones((4, 2)), np.array([0, 5]))

    def test_non_finite_rejected(self):
        big = np.full((2,), 1e300)
        with pytest.raises(ad.NonFiniteError):
            ad.mul(big, big)


class TestBackwardAnalytic:
    def test_square(self):
        x = ad.leaf("x", np.array(3.0))
        g = ad.backward(ad.sum_all(ad.mul(x, x)), {"x": x})
        assert g["x"].value == pytest.approx(6.0)

    def test_relu_subgradient_at_negative(self):
        x = ad.leaf("x", np.array([-2.0]))
        g = ad.backward(ad.sum_all(ad.relu(x)), {"x": x})
        assert g["x"].value[0] == 0.0

    def test_relu_subgradient_at_zero_is_zero(self):
        x = ad.leaf("x", np.array([0.0]))
        g = ad.backward(ad.sum_all(ad.relu(x)), {"x": x})
        assert g["x"].value[0] == 0.0

    def test_unreachable_leaf_gets_exact_zeros(self):
        x = ad.leaf("x", np.array([1.0, 2.0]))
        z = ad.leaf("z", np.ones((3, 2)))
        g = ad.backward(ad.sum_all(ad.mul(x, x)), {"x": x, "z": z})
        assert g["z"].value.shape == (3, 2)
        assert np.all(g["z"].value == 0.0)

    def test_non_scalar_output_rejected(self):
        x = ad.leaf("x", np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.mul(x, x), {"x": x})

    def test_backward_deterministic(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((4, 5))

        def run():
            x = ad.leaf("x", vals)
            out = ad.sum_all(ad.gelu(ad.softmax_lastdim(ad.mul(x, x))))
            return ad.backward(out, {"x": x})["x"].value

        first, second = run(), run()
        assert np.array_equal(first, second)


def _readout(y):
    """sum(w * y * y) with fixed weights, so every VJP is used to second order."""
    w = np.random.default_rng(5).standard_normal(y.value.shape)
    return ad.sum_all(ad.mul(ad.mul(y, y), ad.constant(w)))


def _hvp(objective, values):
    """sum(backward(objective)[x] * w[x]) over x: its gradient is H @ w."""
    rng = np.random.default_rng(6)
    w = {name: rng.standard_normal(np.shape(v)) for name, v in values.items()}

    def hvp(params):
        grads = ad.backward(objective(params), params)
        return reduce(ad.add, [ad.sum_all(ad.mul(grads[n], ad.constant(w[n]))) for n in params])

    return hvp


def _op_cases():
    """(op, build, values) for every registered op, private ones included.

    ``build`` maps leaves named as in ``values`` to a node of that op. An op
    registered without a case here gets ``build = None`` and fails the test.
    """
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 4))
    a = rng.standard_normal((2, 3, 4))
    ids = np.array([[1, 2], [2, 8]])
    cases = {
        "add": (lambda p: ad.add(p["a"], p["b"]), {"a": a, "b": rng.standard_normal(4)}),
        "mul": (lambda p: ad.mul(p["a"], p["b"]), {"a": a, "b": rng.standard_normal((3, 1))}),
        "scale": (lambda p: ad.scale(p["x"], 2.5), {"x": x}),
        "matmul": (
            lambda p: ad.matmul(p["a"], p["b"]),
            {"a": a, "b": rng.standard_normal((4, 5))},
        ),
        "transpose_last2": (lambda p: ad.transpose_last2(p["a"]), {"a": a}),
        "reshape": (lambda p: ad.reshape(p["a"], (6, 4)), {"a": a}),
        "concat": (
            lambda p: ad.concat([p["a"], p["b"]], axis=-1),
            {"a": a, "b": rng.standard_normal((2, 3, 2))},
        ),
        "slice": (lambda p: ad.slice_axis(p["x"], 1, 1, 3), {"x": x}),
        "embed_lookup": (
            lambda p: ad.embed_lookup(p["tab"], ids),
            {"tab": rng.standard_normal((9, 4))},
        ),
        "_scatter_rows": (
            lambda p: ad._make("_scatter_rows", (p["g"],), {"ids": ids, "n_rows": 9}),
            {"g": rng.standard_normal((2, 2, 4))},
        ),
        "mask_fill": (lambda p: ad.mask_fill(p["x"], x > 0.5, -3.0), {"x": x}),
        "relu": (lambda p: ad.relu(p["x"]), {"x": x + 0.1}),
        "gelu": (lambda p: ad.gelu(p["x"]), {"x": x}),
        "_tanh": (lambda p: ad._make("_tanh", (p["x"],)), {"x": x}),
        "_rsqrt": (lambda p: ad._make("_rsqrt", (p["x"],)), {"x": 0.5 + rng.random((3, 4))}),
        "sum": (lambda p: ad.sum_all(p["x"]), {"x": x}),
        "mean": (lambda p: ad.mean_all(p["x"]), {"x": x}),
        "_sum_last": (lambda p: ad._make("_sum_last", (p["a"],)), {"a": a}),
        "_mean_last": (lambda p: ad._make("_mean_last", (p["a"],)), {"a": a}),
        "_sum_to": (lambda p: ad._sum_to(p["a"], (3, 1)), {"a": a}),
        "_broadcast_to": (
            lambda p: ad._make("_broadcast_to", (p["x"],), {"shape": (2, 3, 4)}),
            {"x": rng.standard_normal((3, 1))},
        ),
        "softmax_lastdim": (lambda p: ad.softmax_lastdim(p["x"]), {"x": x}),
        "layer_norm": (
            lambda p: ad.layer_norm(p["a"], p["gain"], p["bias"]),
            {"a": a, "gain": rng.standard_normal(4), "bias": rng.standard_normal(4)},
        ),
        "cross_entropy_with_logits": (
            lambda p: ad.cross_entropy_with_logits(p["x"], np.array([1, 3, 0])),
            {"x": x},
        ),
    }
    return [(op, *cases.get(op, (None, None))) for op in sorted(ad._OPS)]


# Every op's VJP, and the VJP of its VJP (a Hessian-vector product), against
# central differences of objectives rebuilt per perturbation (binary64,
# tolerance 1e-4 per the module contract).
@pytest.mark.parametrize(
    "op,build,values", _op_cases(), ids=lambda c: c if isinstance(c, str) else ""
)
def test_primitive_gradient_oracle(op, build, values):
    assert build is not None, f"no gradient case for op {op!r}"
    assert build({n: ad.leaf(n, v) for n, v in values.items()}).op == op

    def objective(params):
        return _readout(build(params))

    first = ad.grad_check(objective, values)
    assert first.passed, f"{op} VJP: {first.per_leaf}"
    second = ad.grad_check(_hvp(objective, values), values)
    assert second.passed, f"{op} Hessian-vector product: {second.per_leaf}"


class TestSecondOrder:
    def test_cube_second_derivative(self):
        x = ad.leaf("x", np.array(2.0))
        y = ad.sum_all(ad.mul(ad.mul(x, x), x))
        first = ad.backward(y, {"x": x})["x"]
        second = ad.backward(ad.sum_all(first), {"x": x})["x"]
        assert abs(float(second.value) - 12.0) < 1e-6

    def test_gradient_of_gradient_matches_fd(self):
        # d/dx of g(x) where g = d/dx sum(softmax-weighted square) — checked
        # against finite differences of the first gradient.
        rng = np.random.default_rng(17)
        vals = rng.standard_normal(4)

        def first_grad(v):
            x = ad.leaf("x", v)
            out = ad.sum_all(ad.mul(ad.softmax_lastdim(ad.mul(x, x)), ad.constant(np.arange(4.0))))
            return ad.backward(out, {"x": x})["x"]

        x = ad.leaf("x", vals)
        out = ad.sum_all(ad.mul(ad.softmax_lastdim(ad.mul(x, x)), ad.constant(np.arange(4.0))))
        g1 = ad.backward(out, {"x": x})["x"]
        hess_row = ad.backward(ad.sum_all(g1), {"x": x})["x"].value

        step = 1e-5
        fd = np.zeros(4)
        for i in range(4):
            hi = vals.copy()
            hi[i] += step
            lo = vals.copy()
            lo[i] -= step
            fd[i] = (first_grad(hi).value.sum() - first_grad(lo).value.sum()) / (2 * step)
        err = np.abs(hess_row - fd) / np.maximum(np.abs(fd), 1e-6)
        assert err.max() < 1e-5


class TestGradCheckOp:
    def test_quadratic_tight(self):
        report = ad.grad_check(lambda p: ad.sum_all(ad.mul(p["x"], p["x"])),
                               {"x": np.array([1.0, -2.0, 0.5])}, tolerance=1e-8)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_report_fields(self):
        report = ad.grad_check(lambda p: ad.sum_all(ad.mul(p["x"], p["x"])),
                               {"x": np.ones(2)}, step=1e-5, tolerance=1e-4)
        assert set(report.per_leaf) == {"x"}
        assert report.step == 1e-5

    def test_second_order_graph_check(self):
        def first_grad(params):
            x = params["x"]
            return ad.sum_all(ad.backward(ad.sum_all(ad.mul(ad.mul(x, x), x)), params)["x"])

        report = ad.grad_check(first_grad, {"x": np.array(2.0)}, tolerance=1e-6)
        assert report.passed

    def test_vjp_that_freezes_a_value_fails(self, monkeypatch):
        # d tanh = 1 - t^2 with t captured as a constant: right values, but
        # the VJP's own derivative in x is lost.
        fwd, _ = ad._OPS["_tanh"]
        frozen = lambda node, g: (ad.mul(g, ad.sub(1.0, ad.constant(node.value ** 2))),)
        monkeypatch.setitem(ad._OPS, "_tanh", (fwd, frozen))

        def first_grad(params):
            out = ad.sum_all(ad._make("_tanh", (params["x"],)))
            return ad.sum_all(ad.backward(out, params)["x"])

        report = ad.grad_check(first_grad, {"x": np.array([0.3, -0.7])})
        assert not report.passed


class TestGraph:
    def test_topological_order(self):
        x = ad.leaf("x", np.ones(2))
        y = ad.mul(x, x)
        z = ad.add(y, x)
        graph = ad.Graph(z)
        pos = {id(n): i for i, n in enumerate(graph.nodes)}
        for node in graph.nodes:
            for inp in node.inputs:
                assert pos[id(inp)] < pos[id(node)]
        assert graph.nodes[0] is x and graph.nodes[-1] is z


class TestNoGraph:
    def test_nodes_link_no_inputs_and_match_recorded_values(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        recorded = ad.softmax_lastdim(ad.matmul(a, b))
        with ad.no_graph():
            inner = ad.matmul(a, b)
            out = ad.softmax_lastdim(inner)
        assert inner.inputs == () and out.inputs == ()
        assert out.op == "softmax_lastdim"
        np.testing.assert_array_equal(out.value, recorded.value)
        assert recorded.inputs  # recording resumes after the scope

    def test_nested_scopes_restore_recording(self):
        with ad.no_graph():
            with ad.no_graph():
                assert ad.add(1.0, 2.0).inputs == ()
            assert ad.add(1.0, 2.0).inputs == ()
        assert len(ad.add(1.0, 2.0).inputs) == 2

    def test_overflow_raises_naming_the_op_and_restores_state(self):
        errstate = np.geterr()
        big = ad.leaf("w", np.full((2, 2), 1e200))
        with pytest.raises(ad.NonFiniteError, match="'matmul'"):
            with ad.no_graph():
                ad.matmul(big, big)
        assert np.geterr() == errstate
        assert len(ad.matmul(np.ones((2, 2)), np.eye(2)).inputs) == 2

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_any_non_finite_entry_raises(self, bad):
        x = np.array([1.0, bad, -1e308])
        with pytest.raises(ad.NonFiniteError, match="'scale'"):
            with ad.no_graph():
                ad.scale(x, 1.0)


class TestValueOnlyBackward:
    def test_pair_loss_gradients_bitwise_equal_recorded(self, tiny_transformer):
        leaves = tiny_transformer.store.leaves()
        loss = tiny_transformer.loss_fn(leaves, tiny_transformer.pairs)
        recorded = ad.backward(loss, leaves)
        values = ad.gradient_values(loss, leaves)
        assert values.keys() == recorded.keys() == leaves.keys()
        for name, g in recorded.items():
            np.testing.assert_array_equal(values[name], g.value, err_msg=name)
        assert all(np.any(values[n] != 0.0) for n in leaves if "adapter" in n)
        with ad.no_graph():
            value_only = ad.backward(loss, leaves)
        assert all(g.inputs == () for g in value_only.values())
        assert any(g.inputs for g in recorded.values())

    def test_interior_wrt_keeps_its_full_adjoint(self):
        # h feeds the output twice: through h * h and directly.
        x = ad.leaf("x", np.array([0.5, -1.5, 2.0]))
        h = ad.scale(x, 3.0)
        out = ad.sum_all(ad.add(ad.mul(h, h), h))
        wrt = {"h": h, "x": x}
        expected_h = 2.0 * h.value + 1.0
        recorded = {n: g.value for n, g in ad.backward(out, wrt).items()}
        for grads in (recorded, ad.gradient_values(out, wrt)):
            np.testing.assert_array_equal(grads["h"], expected_h)
            np.testing.assert_array_equal(grads["x"], 3.0 * expected_h)

    def test_non_finite_vjp_output_raises_naming_the_op(self):
        # Forward values stay finite (1e-200 * 1e300 * 1e10); the adjoint of x
        # is 1e10 * 1e300, which overflows in the VJP of the inner scale.
        x = ad.leaf("x", np.array([1e-200, 2e-200]))
        out = ad.sum_all(ad.scale(ad.scale(x, 1e300), 1e10))
        with pytest.raises(ad.NonFiniteError, match="'scale'"):
            ad.gradient_values(out, [x])
        assert len(ad.add(1.0, 2.0).inputs) == 2
