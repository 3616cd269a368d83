"""Gradient engine tests: analytic cases plus finite-difference oracles."""

import numpy as np
import pytest

from metaphrase import autodiff as ad


def fd_gradient(graph, leaf_name, base, step=1e-5):
    """Central finite differences of the graph's scalar output wrt one leaf."""
    out = np.zeros(base.size)
    for i in range(base.size):
        pert = base.copy().reshape(-1)
        pert[i] += step
        hi = graph.eval({leaf_name: pert.reshape(base.shape)})[0]
        pert[i] -= 2 * step
        lo = graph.eval({leaf_name: pert.reshape(base.shape)})[0]
        out[i] = (hi - lo) / (2 * step)
    return out.reshape(base.shape)


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

    def test_matmul_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = ad.leaf("a", rng.standard_normal((3, 4)))
        b = ad.leaf("b", rng.standard_normal((4, 2)))
        out = ad.sum_all(ad.matmul(a, b))
        graph = ad.Graph(out)
        grads = ad.backward(out, {"a": a, "b": b})
        for name, node in (("a", a), ("b", b)):
            fd = fd_gradient(graph, name, node.value)
            err = np.abs(grads[name].value - fd) / np.maximum(np.abs(fd), 1e-6)
            assert err.max() < 1e-6

    def test_backward_deterministic(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((4, 5))

        def run():
            x = ad.leaf("x", vals)
            out = ad.sum_all(ad.gelu(ad.softmax_lastdim(ad.mul(x, x))))
            return ad.backward(out, {"x": x})["x"].value

        first, second = run(), run()
        assert np.array_equal(first, second)


# Every public primitive gets a finite-difference check on random
# conforming inputs (binary64, tolerance 1e-4 per the module contract).
def _single_input_cases():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))
    return [
        ("relu", lambda v: ad.sum_all(ad.mul(ad.relu(v), ad.constant(w))), x + 0.1),
        ("gelu", lambda v: ad.sum_all(ad.mul(ad.gelu(v), ad.constant(w))), x),
        (
            "softmax_lastdim",
            lambda v: ad.sum_all(ad.mul(ad.softmax_lastdim(v), ad.constant(w))),
            x,
        ),
        ("scale", lambda v: ad.sum_all(ad.scale(v, 2.5)), x),
        (
            "reshape",
            lambda v: ad.sum_all(ad.mul(ad.reshape(v, (4, 3)), ad.constant(w.reshape(4, 3)))),
            x,
        ),
        (
            "transpose_last2",
            lambda v: ad.sum_all(ad.mul(ad.transpose_last2(v), ad.constant(w.T))),
            x,
        ),
        (
            "slice",
            lambda v: ad.sum_all(ad.mul(ad.slice_axis(v, 1, 1, 3), ad.constant(w[:, 1:3]))),
            x,
        ),
        (
            "mask_fill",
            lambda v: ad.sum_all(
                ad.mul(ad.mask_fill(v, x > 0.5, -3.0), ad.constant(w))
            ),
            x,
        ),
        ("mean", lambda v: ad.mean_all(ad.mul(v, v)), x),
        ("sum", lambda v: ad.sum_all(ad.mul(v, v)), x),
        (
            "cross_entropy_with_logits",
            lambda v: ad.sum_all(ad.cross_entropy_with_logits(v, np.array([1, 3, 0]))),
            x,
        ),
    ]


@pytest.mark.parametrize("name,build,base", _single_input_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_primitive_gradient_oracle(name, build, base):
    x = ad.leaf("x", base)
    report = ad.grad_check(build(x), {"x": x}, tolerance=1e-4)
    assert report.passed, f"{name}: max rel err {report.max_rel_error}"


def test_multi_input_primitive_gradients():
    rng = np.random.default_rng(13)
    a = ad.leaf("a", rng.standard_normal((2, 3, 4)))
    b = ad.leaf("b", rng.standard_normal((4, 5)))
    gn = ad.leaf("gn", rng.standard_normal(4))
    bn = ad.leaf("bn", rng.standard_normal(4))
    tab = ad.leaf("tab", rng.standard_normal((9, 4)))

    batched = ad.sum_all(ad.mul(ad.matmul(a, b), ad.constant(rng.standard_normal((2, 3, 5)))))
    assert ad.grad_check(batched, {"a": a, "b": b}).passed

    ln = ad.sum_all(
        ad.mul(ad.layer_norm(a, gn, bn), ad.constant(rng.standard_normal((2, 3, 4))))
    )
    assert ad.grad_check(ln, {"a": a, "gn": gn, "bn": bn}).passed

    emb = ad.sum_all(
        ad.mul(
            ad.embed_lookup(tab, np.array([[1, 2], [2, 8]])),
            ad.constant(rng.standard_normal((2, 2, 4))),
        )
    )
    assert ad.grad_check(emb, {"tab": tab}).passed

    cc = ad.sum_all(
        ad.mul(
            ad.concat([a, ad.mul(a, a)], axis=-1),
            ad.constant(rng.standard_normal((2, 3, 8))),
        )
    )
    assert ad.grad_check(cc, {"a": a}).passed

    added = ad.sum_all(ad.mul(ad.add(a, ad.mul(gn, gn)), ad.constant(rng.standard_normal((2, 3, 4)))))
    assert ad.grad_check(added, {"a": a, "gn": gn}).passed


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
        x = ad.leaf("x", np.array([1.0, -2.0, 0.5]))
        out = ad.sum_all(ad.mul(x, x))
        report = ad.grad_check(out, {"x": x}, tolerance=1e-8)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_report_fields(self):
        x = ad.leaf("x", np.ones(2))
        report = ad.grad_check(ad.sum_all(ad.mul(x, x)), {"x": x}, step=1e-5, tolerance=1e-4)
        assert set(report.per_leaf) == {"x"}
        assert report.step == 1e-5

    def test_second_order_graph_check(self):
        x = ad.leaf("x", np.array(2.0))
        y = ad.sum_all(ad.mul(ad.mul(x, x), x))
        g1 = ad.backward(y, {"x": x})["x"]
        report = ad.grad_check(ad.sum_all(g1), {"x": x}, tolerance=1e-6)
        assert report.passed


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
        assert graph.leaves == {"x": x}

    def test_eval_with_overrides(self):
        x = ad.leaf("x", np.array([1.0, 2.0]))
        out = ad.sum_all(ad.mul(x, x))
        graph = ad.Graph(out)
        assert graph.eval()[0] == pytest.approx(5.0)
        assert graph.eval({"x": np.array([3.0, 4.0])})[0] == pytest.approx(25.0)
        # original node values untouched
        assert out.value == pytest.approx(5.0)


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
