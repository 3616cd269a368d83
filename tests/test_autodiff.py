"""Gradient engine tests: analytic cases plus finite-difference oracles."""

import warnings
from collections import Counter
from contextlib import nullcontext
from functools import reduce

import numpy as np
import pytest

from metaphrase import autodiff as ad
from metaphrase import model as mm


class TestPrimitiveValues:
    def test_softmax_symmetry(self):
        out = ad.softmax_lastdim(np.array([0.0, 0.0]))
        np.testing.assert_allclose(out.value, [0.5, 0.5])

    def test_relu_definition(self):
        out = ad.relu(np.array([-1.5, 2.0]))
        np.testing.assert_array_equal(out.value, [0.0, 2.0])

    def test_layer_norm_zero_variance(self):
        out = ad.layer_norm(np.ones(3), np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out.value, np.zeros(3), atol=1e-12)

    def test_matmul_identity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        out = ad.matmul(a, np.eye(4))
        np.testing.assert_array_equal(out.value, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(np.ones((2, 3)), np.ones((2, 3)))

    @pytest.mark.parametrize("gain_shape", [(3,), (2, 1, 3), (3, 1, 4), (2, 1, 1, 4)],
                             ids=["last_axis", "last_axis_stacked", "no_broadcast", "widens"])
    def test_layer_norm_gain_shape_rejected(self, gain_shape):
        x = np.ones((2, 3, 4))
        with pytest.raises(ad.ShapeError):
            ad.layer_norm(x, np.ones(gain_shape), np.zeros(4))
        with pytest.raises(ad.ShapeError):
            ad.layer_norm(x, np.ones(4), np.zeros(gain_shape))

    def test_embed_out_of_range_rejected(self):
        with pytest.raises(ad.ShapeError, match="out of range"):
            ad.embed_lookup(np.ones((4, 2)), np.array([0, 5]))

    def test_embed_id_equal_to_the_row_count_names_the_range(self):
        with pytest.raises(ad.ShapeError,
                           match=r"^embed ids out of range \[0, 4\): min 0, max 4$"):
            ad.embed_lookup(np.ones((4, 2)), np.array([0, 4]))

    def test_cross_entropy_targets_must_match_the_logits_rows(self):
        with pytest.raises(ad.ShapeError, match=r"^targets shape \(2, 4\) must match "
                                                r"logits rows \(2, 3\)$"):
            ad.cross_entropy_with_logits(np.zeros((2, 3, 5)), np.zeros((2, 4), dtype=np.int64))

    def test_gelu_cube_by_products_matches_the_power(self):
        def with_power(x):
            return 0.5 * x * (1.0 + np.tanh(ad._GELU_C * (x + ad._GELU_A * x**3)))

        # For negative x, 1 + tanh(u) cancels: one rounding step of tanh near -1
        # (1.1e-16) is an absolute error there, up to 3e-13 relative.
        x = np.linspace(-10.0, 10.0, 20001)
        np.testing.assert_allclose(ad.gelu(x).value, with_power(x), rtol=1e-15, atol=1e-15)
        big = np.array([1e200, -1e200])
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(ad.gelu(big).value, with_power(big))

    def test_non_finite_rejected(self):
        big = ad.leaf("big", np.full((2,), 1e300))
        with pytest.raises(ad.NonFiniteError, match="'mul'"):
            ad.backward(ad.sum_all(ad.mul(big, big)), {"big": big})


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
    """op -> (build, values), one case per registered op, private ones included.

    ``build`` maps leaves named as in ``values`` to a node of that op. The
    keys must be exactly the op table's: a registered op without a case, or
    a case for an op that no longer exists, fails the test.
    """
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 4))
    a = rng.standard_normal((2, 3, 4))
    ids = np.array([[1, 2], [2, 8]])
    return {
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
        "_ln_xhat": (lambda p: ad._make("_ln_xhat", (p["a"],)), {"a": a}),
        "_layer_norm_grad": (
            lambda p: ad._make("_layer_norm_grad", (p["a"], p["gain"], p["g"])),
            {"a": a, "gain": rng.standard_normal((2, 1, 4)), "g": rng.standard_normal((2, 3, 4))},
        ),
        "_gelu_grad": (lambda p: ad._make("_gelu_grad", (p["x"], p["g"])),
                       {"x": x, "g": rng.standard_normal((3, 4))}),
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
        "_flat_matmul": (
            lambda p: ad._make("_flat_matmul", (p["a"], p["b"])),
            {"a": a, "b": rng.standard_normal((2, 3, 5))},
        ),
        "_pad": (
            lambda p: ad._make("_pad", (p["g"],), {"axis": 1, "start": 1, "stop": 3, "extent": 5}),
            {"g": rng.standard_normal((3, 2))},
        ),
    }


# Every op's VJP, and the VJP of its VJP (a Hessian-vector product), against
# central differences of objectives rebuilt per perturbation (binary64,
# tolerance 1e-4 per the module contract).
@pytest.mark.parametrize(
    "op,build,values",
    [(op, *_op_cases().get(op, (None, None))) for op in sorted(ad._OPS)],
    ids=lambda c: c if isinstance(c, str) else "",
)
def test_primitive_gradient_oracle(op, build, values):
    assert _op_cases().keys() == ad._OPS.keys(), "gradient cases and op table differ"
    assert build({n: ad.leaf(n, v) for n, v in values.items()}).op == op

    def objective(params):
        return _readout(build(params))

    first = ad.grad_check(objective, values)
    assert first.passed, f"{op} VJP: {first.per_leaf}"
    second = ad.grad_check(_hvp(objective, values), values)
    assert second.passed, f"{op} Hessian-vector product: {second.per_leaf}"


def _stored(shape, trans, rng):
    """An operand whose op() has ``shape``: stored with its last two axes swapped if ``trans``."""
    if trans:
        shape = shape[:-2] + (shape[-1], shape[-2])
    return rng.standard_normal(shape)


# (batch of op(a), batch of op(b)) for op(a) (.., 3, 4) @ op(b) (.., 4, 5).
MATMUL_BATCHES = {"batched_a": ((2,), ()), "both_batched": ((2,), (2,)), "batched_b": ((), (2,))}


# A full-range slice takes the pass-through branch of the slice VJP, which
# the op's own case does not.
_FULL_RANGE_SLICE = (lambda p: ad.slice_axis(p["x"], 1, 0, 4), {"x": np.ones((3, 4))})


@pytest.mark.parametrize(
    "build,values",
    [pytest.param(*_op_cases()[op], id=op) for op in sorted(ad._OPS)]
    + [pytest.param(*_FULL_RANGE_SLICE, id="slice_full_range")],
)
def test_every_vjp_returns_gradients_of_its_inputs_shapes(build, values):
    # backward takes each gradient as its input's adjoint with no reshaping.
    node = build({n: ad.leaf(n, v) for n, v in values.items()})
    g = ad.constant(np.random.default_rng(7).standard_normal(node.shape))
    vjp = ad._OPS[node.op].vjp
    needs = (True,) * len(node.inputs)
    grads = vjp(node, g, needs) if len(needs) > 1 else vjp(node, g)
    assert [gi.shape for gi in grads] == [inp.shape for inp in node.inputs]


@pytest.mark.parametrize("batches", MATMUL_BATCHES.values(), ids=MATMUL_BATCHES.keys())
@pytest.mark.parametrize("trans_a,trans_b", [(False, True), (True, False), (True, True)])
def test_matmul_transpose_flags(trans_a, trans_b, batches):
    rng = np.random.default_rng(12)
    values = {"a": _stored(batches[0] + (3, 4), trans_a, rng),
              "b": _stored(batches[1] + (4, 5), trans_b, rng)}
    a = np.swapaxes(values["a"], -1, -2).copy() if trans_a else values["a"]
    b = np.swapaxes(values["b"], -1, -2).copy() if trans_b else values["b"]
    out = ad.matmul(values["a"], values["b"], trans_a=trans_a, trans_b=trans_b)
    assert out.value.shape == np.broadcast_shapes(batches[0], batches[1]) + (3, 5)
    np.testing.assert_allclose(out.value, a @ b, rtol=1e-14, atol=1e-15)

    def objective(params):
        return _readout(ad.matmul(params["a"], params["b"], trans_a=trans_a, trans_b=trans_b))

    first = ad.grad_check(objective, values)
    assert first.passed, f"VJP: {first.per_leaf}"
    second = ad.grad_check(_hvp(objective, values), values)
    assert second.passed, f"Hessian-vector product: {second.per_leaf}"


def test_layer_norm_gain_and_bias_broadcast_per_row():
    # One gain and bias row per leading index, as a stacked task axis has.
    rng = np.random.default_rng(13)
    values = {"a": rng.standard_normal((2, 3, 4)), "gain": rng.standard_normal((2, 1, 4)),
              "bias": rng.standard_normal((2, 1, 4))}
    out = ad.layer_norm(values["a"], values["gain"], values["bias"])
    for t in range(2):
        row = ad.layer_norm(values["a"][t], values["gain"][t, 0], values["bias"][t, 0])
        np.testing.assert_array_equal(out.value[t], row.value)

    def objective(params):
        return _readout(ad.layer_norm(params["a"], params["gain"], params["bias"]))

    first = ad.grad_check(objective, values)
    assert first.passed, f"VJP: {first.per_leaf}"
    second = ad.grad_check(_hvp(objective, values), values)
    assert second.passed, f"Hessian-vector product: {second.per_leaf}"


def test_weight_gradient_of_a_batched_product_is_one_flat_product():
    rng = np.random.default_rng(14)
    x = ad.leaf("x", rng.standard_normal((2, 3, 4)))
    w = ad.leaf("w", rng.standard_normal((4, 5)))
    c = rng.standard_normal((2, 3, 5))
    grads = ad.backward(ad.sum_all(ad.mul(ad.matmul(x, w), ad.constant(c))), {"w": w})
    assert grads["w"].op == "_flat_matmul"
    np.testing.assert_allclose(grads["w"].value, np.einsum("btd,bte->de", x.value, c),
                               rtol=1e-13)


def test_no_vjp_builds_a_transpose(tiny_transformer):
    leaves = tiny_transformer.store.leaves()
    loss = tiny_transformer.loss_fn(leaves, tiny_transformer.pairs)
    grads = ad.backward(loss, leaves)
    second = ad.backward(reduce(ad.add, [ad.sum_all(g) for g in grads.values()]), leaves)
    ops = {n.op for n in ad.Graph([loss, *grads.values(), *second.values()]).nodes}
    assert "matmul" in ops and "transpose_last2" not in ops


def _concat_of_zeros(g, axis, start, stop, extent):
    """The slice gradient as it was built before ``_pad``: g between zero constants."""
    pieces = []
    for lo, hi in ((0, start), (stop, extent)):
        if hi > lo:
            shape = list(g.shape)
            shape[axis] = hi - lo
            pieces.append(ad.constant(np.zeros(shape)))
    pieces.insert(1 if start > 0 else 0, g)
    return ad.concat(pieces, axis=axis)


@pytest.mark.parametrize("axis,start,stop", [(1, 1, 3), (-1, 0, 2), (0, 2, 3), (1, 1, 4)])
def test_pad_equals_the_concat_of_zeros_it_replaced(axis, start, stop):
    x = np.random.default_rng(17).standard_normal((3, 4))
    extent = x.shape[axis]

    def run(pad):
        leaf = ad.leaf("x", x)
        padded = pad(ad.slice_axis(ad.gelu(leaf), axis, start, stop))
        value = padded.value
        first = ad.backward(_readout(padded), {"x": leaf})["x"]
        second = ad.backward(ad.sum_all(ad.mul(first, first)), {"x": leaf})["x"]
        return value, first.value, second.value

    new = run(lambda g: ad._make("_pad", (g,), {"axis": axis, "start": start, "stop": stop,
                                                 "extent": extent}))
    old = run(lambda g: _concat_of_zeros(g, axis, start, stop, extent))
    for a, b in zip(new, old):
        np.testing.assert_array_equal(a, b)


class TestSecondOrder:
    def test_cube_second_derivative(self):
        x = ad.leaf("x", np.array(2.0))
        y = ad.sum_all(ad.mul(ad.mul(x, x), x))
        first = ad.backward(y, {"x": x})["x"]
        second = ad.backward(ad.sum_all(first), {"x": x})["x"]
        assert abs(float(second.value) - 12.0) < 1e-6


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
        frozen = lambda node, g: (ad.mul(g, ad.sub(1.0, ad.constant(node.value ** 2))),)
        monkeypatch.setitem(ad._OPS, "_tanh", ad._OPS["_tanh"]._replace(vjp=frozen))

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
            with ad.checked(), ad.no_graph():
                ad.matmul(big, big)
        assert np.geterr() == errstate
        assert len(ad.matmul(np.ones((2, 2)), np.eye(2)).inputs) == 2

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_any_non_finite_entry_raises(self, bad):
        x = np.array([1.0, bad, -1e308])
        with pytest.raises(ad.NonFiniteError, match="'scale'"):
            with ad.checked(), ad.no_graph():
                ad.scale(x, 1.0)


class TestFastFiniteCheck:
    """``_make`` checks the sum first and falls back to an entry-wise check."""

    @pytest.mark.parametrize("recording", [True, False])
    def test_finite_values_whose_sum_overflows_pass_silently(self, recording):
        x = np.array([1.5e308, 1.5e308, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ad.no_graph() if not recording else nullcontext():
                out = ad.scale(x, 1.0)
        np.testing.assert_array_equal(out.value, x)
        assert bool(out.inputs) == recording

    @pytest.mark.parametrize("recording", [True, False])
    def test_opposite_infinities_raise_naming_the_op(self, recording):
        # [inf, -inf] sums to NaN, not to an infinity.
        with pytest.raises(ad.NonFiniteError, match="'scale'"):
            with ad.checked(), ad.no_graph() if not recording else nullcontext():
                ad.scale(np.array([1e308, -1e308]), 10.0)


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
        # h feeds the output twice: through k = h * h and directly.
        x = ad.leaf("x", np.array([0.5, -1.5, 2.0]))
        h = ad.scale(x, 3.0)
        k = ad.mul(h, h)
        out = ad.sum_all(ad.add(k, h))
        expected = {"h": 2.0 * h.value + 1.0, "k": np.ones(3)}
        expected["x"] = 3.0 * expected["h"]
        # In {k, h} both entries are interior and h is an ancestor of k.
        for wrt in ({"h": h, "x": x}, {"k": k, "h": h}):
            recorded = {n: g.value for n, g in ad.backward(out, wrt).items()}
            for grads in (recorded, ad.gradient_values(out, wrt)):
                for n in wrt:
                    np.testing.assert_array_equal(grads[n], expected[n], err_msg=n)

    def test_nodes_older_than_every_requested_node_are_not_visited(self, monkeypatch):
        visited = []
        topo = ad._topo_order

        def spy(outputs, floor=0):
            order = topo(outputs, floor)
            visited.extend(order)
            return order

        monkeypatch.setattr(ad, "_topo_order", spy)
        x = ad.leaf("x", np.array([0.5, -1.5]))
        old = ad.gelu(ad.mul(x, x))
        w = ad.leaf("w", np.array([2.0, 3.0]))
        h = ad.mul(old, w)
        out = ad.sum_all(ad.mul(h, h))
        grads = ad.gradient_values(out, {"w": w, "h": h})
        np.testing.assert_array_equal(grads["w"], 2.0 * h.value * old.value)
        assert {id(n) for n in visited} == {id(n) for n in (w, h, out.inputs[0], out)}

    def test_non_finite_vjp_output_raises_naming_the_op(self):
        # Forward values stay finite (1e-200 * 1e300 * 1e10); the adjoint of x
        # is 1e10 * 1e300, which overflows in the VJP of the inner scale.
        x = ad.leaf("x", np.array([1e-200, 2e-200]))
        out = ad.sum_all(ad.scale(ad.scale(x, 1e300), 1e10))
        with pytest.raises(ad.NonFiniteError, match="'scale'"):
            ad.gradient_values(out, {"x": x})
        assert len(ad.add(1.0, 2.0).inputs) == 2


def _count_made(monkeypatch) -> Counter:
    """Op ids of every node built from here on, counted by wrapping ``_make``."""
    made = Counter()
    make = ad._make

    def counted(op_id, *args, **kwargs):
        made[op_id] += 1
        return make(op_id, *args, **kwargs)

    monkeypatch.setattr(ad, "_make", counted)
    return made


# name -> (build(a, b), shape of a, shape of b): every VJP branch that masks.
MASKED_OPS = {
    "add": (ad.add, (2, 1, 4), (3, 1)),
    "mul": (ad.mul, (2, 3, 4), (3, 1)),
    "matmul_flat": (ad.matmul, (2, 3, 4), (4, 5)),
    "matmul_flat_tb": (lambda a, b: ad.matmul(a, b, trans_b=True), (2, 3, 4), (5, 4)),
    "matmul": (ad.matmul, (2, 3, 4), (2, 4, 5)),
    "matmul_ta": (lambda a, b: ad.matmul(a, b, trans_a=True), (2, 4, 3), (4, 5)),
    "matmul_tb": (lambda a, b: ad.matmul(a, b, trans_b=True), (3, 4), (2, 5, 4)),
    "matmul_ta_tb": (lambda a, b: ad.matmul(a, b, trans_a=True, trans_b=True),
                     (2, 4, 3), (2, 5, 4)),
    "_flat_matmul": (lambda a, b: ad._make("_flat_matmul", (a, b)), (2, 3, 4), (2, 3, 5)),
    "concat": (lambda a, b: ad.concat([a, b], axis=-1), (2, 3, 4), (2, 3, 2)),
}


class TestNeedsGradMask:
    """``backward`` builds no gradient for an input on no path from a requested node."""

    @pytest.mark.parametrize("wanted", ["a", "b"])
    @pytest.mark.parametrize("build,shape_a,shape_b", MASKED_OPS.values(), ids=MASKED_OPS.keys())
    def test_other_operand_constant_same_gradient_fewer_nodes(self, build, shape_a, shape_b,
                                                              wanted, monkeypatch):
        rng = np.random.default_rng(15)
        values = {"a": rng.standard_normal(shape_a), "b": rng.standard_normal(shape_b)}
        made = _count_made(monkeypatch)

        def grad_and_nodes(other_is_leaf):
            ops = {n: ad.leaf(n, v) if n == wanted or other_is_leaf else ad.constant(v)
                   for n, v in values.items()}
            out = _readout(build(ops["a"], ops["b"]))
            before = sum(made.values())
            grads = ad.backward(out, {n: x for n, x in ops.items() if x.name})
            return grads[wanted].value, sum(made.values()) - before

        both, both_nodes = grad_and_nodes(True)
        alone, alone_nodes = grad_and_nodes(False)
        np.testing.assert_array_equal(alone, both)
        assert alone_nodes < both_nodes

    def test_layer_norm_builds_only_the_gradients_of_its_trainable_gain_or_bias(
            self, monkeypatch):
        rng = np.random.default_rng(16)
        x = ad.constant(rng.standard_normal((2, 3, 4)))
        values = {"gain": 1.0 + 0.1 * rng.standard_normal(4), "bias": rng.standard_normal(4)}
        made = _count_made(monkeypatch)

        def grads_and_nodes(wanted):
            ops = {n: ad.leaf(n, v, n in wanted) for n, v in values.items()}
            out = _readout(ad.layer_norm(x, ops["gain"], ops["bias"]))
            made.clear()
            grads = ad.backward(out, {n: ops[n] for n in wanted})
            return {n: g.value for n, g in grads.items()}, Counter(made)

        both, both_nodes = grads_and_nodes(("gain", "bias"))
        gain, gain_nodes = grads_and_nodes(("gain",))
        bias, bias_nodes = grads_and_nodes(("bias",))
        np.testing.assert_array_equal(gain["gain"], both["gain"])
        np.testing.assert_array_equal(bias["bias"], both["bias"])
        assert gain.keys() == {"gain"} and bias.keys() == {"bias"}
        assert both_nodes - gain_nodes == Counter({"_sum_to": 1}) and not gain_nodes - both_nodes
        assert both_nodes - bias_nodes == Counter({"_ln_xhat": 1, "mul": 1, "_sum_to": 1})
        assert not bias_nodes - both_nodes

    def test_phi_gradients_bitwise_equal_with_backbone_requested(self, tiny_transformer):
        leaves = tiny_transformer.store.leaves()
        _, phi = mm.partition_params(tiny_transformer.store)
        loss = tiny_transformer.loss_fn(leaves, tiny_transformer.pairs)
        first = ad.backward(loss, {n: leaves[n] for n in phi})
        every = ad.backward(loss, leaves)
        readout = reduce(ad.add, [ad.sum_all(ad.mul(first[n], first[n])) for n in phi])
        second = ad.backward(readout, {n: leaves[n] for n in phi})
        second_every = ad.backward(readout, leaves)
        for n in phi:
            np.testing.assert_array_equal(first[n].value, every[n].value, err_msg=n)
            np.testing.assert_array_equal(second[n].value, second_every[n].value, err_msg=n)
        assert any(np.any(second[n].value != 0.0) for n in phi)

    def test_requested_node_with_inputs_below_the_floor_runs_no_vjp(self, monkeypatch):
        x = ad.leaf("x", np.array([0.5, -1.5]))
        h = ad.scale(x, 3.0)
        out = ad.sum_all(ad.mul(h, h))
        made = _count_made(monkeypatch)
        grads = ad.backward(out, {"h": h})
        np.testing.assert_array_equal(grads["h"].value, 2.0 * h.value)
        assert made["scale"] == 0


class TestBoundaryChecks:
    """Outside ``checked()`` only ``leaf()`` and ``backward`` check finiteness."""

    def test_ops_do_not_check_their_output_outside_checked(self):
        big = np.full((2,), 1e300)
        assert np.all(np.isinf(ad.mul(big, big).value))
        with ad.no_graph():
            assert np.all(np.isinf(ad.mul(big, big).value))

    def test_checked_scopes_nest_and_restore_also_when_an_op_raises(self):
        big = np.full((2,), 1e300)
        errstate = np.geterr()
        with ad.checked():
            with ad.checked():
                pass
            with pytest.raises(ad.NonFiniteError, match="'mul'"):
                ad.mul(big, big)
            with pytest.raises(ad.NonFiniteError, match="'mul'"):
                with ad.checked(), ad.no_graph():
                    ad.mul(big, big)
            with pytest.raises(ad.NonFiniteError, match="'mul'"):
                ad.mul(big, big)
            assert len(ad.add(1.0, 2.0).inputs) == 2
        assert np.all(np.isinf(ad.mul(big, big).value))
        assert np.geterr() == errstate

    def test_check_finite_sums_first_and_names_the_context(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ad.check_finite(np.array([1.5e308, 1.5e308, -1.0]), "x")  # only the sum overflows
            for bad in ([1.0, np.inf], [-np.inf, 1.0], [np.nan, 1.0], [np.inf, -np.inf]):
                with pytest.raises(ad.NonFiniteError, match="^non-finite values in x$"):
                    ad.check_finite(np.array(bad), "x")

    def test_leaf_rejects_non_finite_values(self):
        with pytest.raises(ad.NonFiniteError, match="leaf 'w'"):
            ad.leaf("w", [1.0, np.nan])

    @pytest.mark.parametrize("value_only", [False, True])
    def test_non_finite_output_names_the_first_op_that_made_it(self, value_only):
        # h is finite; h * h overflows, and the add and sum after it inherit the inf.
        x = ad.leaf("x", np.array([1.0, 2.0]))
        h = ad.scale(x, 1e200)
        out = ad.sum_all(ad.add(ad.mul(h, h), h))
        with pytest.raises(ad.NonFiniteError, match="output of 'mul'$"):
            if value_only:
                ad.gradient_values(out, {"x": x})
            else:
                ad.backward(out, {"x": x})

    def test_non_finite_constant_is_named(self):
        x = ad.leaf("x", np.array([1.0, 2.0]))
        out = ad.sum_all(ad.add(x, np.array([np.nan, 0.0])))
        with pytest.raises(ad.NonFiniteError, match="a constant$"):
            ad.gradient_values(out, {"x": x})

    def test_check_boundary_reruns_once_to_name_the_op(self):
        big = np.full((2,), 1e300)
        bad = ad.mul(big, big).value
        reruns = []

        def rerun():
            reruns.append(None)
            ad.mul(big, big)

        ad.check_boundary([("a", np.ones(2))], rerun)
        assert not reruns
        # A re-run that raises names the op.
        with pytest.raises(ad.NonFiniteError, match="output of 'mul'$"):
            ad.check_boundary([("a", np.ones(2)), ("b", bad)], rerun)
        assert len(reruns) == 1
        # Inside checked() the op has already raised: no re-run.
        with ad.checked(), pytest.raises(ad.NonFiniteError, match="^non-finite values in b$"):
            ad.check_boundary([("b", bad)], rerun)
        assert len(reruns) == 1
        # A re-run that stays finite leaves the boundary's own error.
        with pytest.raises(ad.NonFiniteError, match="^non-finite values in b$"):
            ad.check_boundary([("b", bad)], lambda: ad.mul(big, 1.0))

    def test_non_finite_recorded_gradient_names_the_vjp_op(self):
        x = ad.leaf("x", np.array([1e-200, 2e-200]))
        out = ad.sum_all(ad.scale(ad.scale(x, 1e300), 1e10))
        with pytest.raises(ad.NonFiniteError, match="output of 'scale'$"):
            ad.backward(out, {"x": x})


# Ops that map a non-finite input to a finite output: (bad input, op).
NON_FINITE_TO_FINITE = {
    "softmax_lastdim": ([-np.inf, 0.0, 1.0], ad.softmax_lastdim),
    "cross_entropy_with_logits": ([-np.inf, 0.0, 1.0],
                                  lambda x: ad.cross_entropy_with_logits(x, 1)),
    "mask_fill": ([np.nan, 0.0, 1.0],
                  lambda x: ad.mask_fill(x, np.array([True, False, False]), -1e9)),
    "slice": ([np.nan, 0.0, 1.0], lambda x: ad.slice_axis(x, 0, 1, 3)),
    "embed_lookup": ([[np.nan, np.inf], [0.0, 1.0]], lambda x: ad.embed_lookup(x, [1, 1])),
    "relu": ([-np.inf, 1.0], ad.relu),
    "_rsqrt": ([np.inf, 4.0], lambda x: ad._make("_rsqrt", (x,))),
    "_tanh": ([np.inf, -np.inf, 0.5], lambda x: ad._make("_tanh", (x,))),
}


class TestNonFiniteToFinite:
    """Each op that can drop a non-finite input checks only at the boundaries.

    It drops the entry or returns the limit there, and its VJP passes a zero
    adjoint back, so the loss and the gradient stay finite and nothing
    raises. Inside ``checked()`` the op that made the non-finite value raises.
    """

    @pytest.mark.parametrize("op", sorted(NON_FINITE_TO_FINITE))
    def test_finite_output_passes_the_boundaries(self, op):
        bad, fn = NON_FINITE_TO_FINITE[op]
        bad = np.asarray(bad)
        w = ad.leaf("w", np.full(bad.shape, 0.5))
        y = fn(ad.add(w, bad))
        assert y.op == op and np.isfinite(y.value).all()
        grads = ad.gradient_values(ad.sum_all(y), {"w": w})
        assert np.isfinite(grads["w"]).all()
        with pytest.raises(ad.NonFiniteError, match="output of 'add'$"):
            with ad.checked():
                fn(ad.add(w, bad))


def _released_run(build, values):
    """(values kept by the first release, gradients, second-order gradients) of ``build``.

    Each input enters as an interior copy, so a release can reach it, and the
    readout masks the op's output, which reads no value of it. A first
    backward, for a leaf ``z`` older than the op's graph, walks that graph
    without running its VJPs, so only the declarations decide what it
    releases. A second records the gradients, and a third differentiates
    through them. The first item holds the op's inputs whose values the first
    release kept, and whether it kept the op's output.
    """
    rng = np.random.default_rng(21)
    z = ad.leaf("z", np.array(1.5))
    leaves = {n: ad.leaf(n, v) for n, v in values.items()}
    y = build({n: ad.scale(x, 1.0) for n, x in leaves.items()})
    dropped = rng.random(y.shape) < 0.3
    out = ad.add(ad.sum_all(ad.mask_fill(y, dropped, 0.0)), ad.mul(z, z))
    ad.backward(out, {"z": z})
    kept = (tuple(i for i, x in enumerate(y.inputs) if x.value is not None), y.value is not None)
    grads = ad.backward(out, leaves)
    # Read now: no VJP reads the gradients, so the next backward releases them.
    first = {n: g.value for n, g in grads.items()}
    w = {n: rng.standard_normal(np.shape(v)) for n, v in values.items()}
    hvp = reduce(ad.add, [ad.sum_all(ad.mul(grads[n], ad.constant(w[n]))) for n in leaves])
    second = ad.backward(hvp, leaves)
    return kept, first, {n: g.value for n, g in second.items()}


class TestRelease:
    """A recording backward releases the values that no declared VJP read needs."""

    @pytest.mark.parametrize("op", sorted(ad._OPS))
    def test_declared_reads_suffice_and_change_no_bit(self, op, monkeypatch):
        build, values = _op_cases()[op]
        kept, grads, second = _released_run(build, values)
        assert kept == (ad._OPS[op].reads, ad._OPS[op].reads_output)

        monkeypatch.setattr(ad, "_release_unread", lambda *args: None)
        _, kept_grads, kept_second = _released_run(build, values)
        for n in values:
            np.testing.assert_array_equal(grads[n], kept_grads[n], err_msg=n)
            np.testing.assert_array_equal(second[n], kept_second[n], err_msg=n)

    @pytest.mark.parametrize("op", sorted(n for n, o in ad._OPS.items()
                                          if o.reads or o.reads_output))
    def test_an_undeclared_read_fails_loudly(self, op, monkeypatch):
        monkeypatch.setitem(ad._OPS, op, ad._OPS[op]._replace(reads=(), reads_output=False))
        with pytest.raises(ad.ReleasedValueError, match="released by a recording backward"):
            _released_run(*_op_cases()[op])

    @pytest.mark.parametrize("scope", [nullcontext, ad.no_graph], ids=["recording", "no_graph"])
    @pytest.mark.parametrize("op", sorted(ad._OPS))
    def test_reading_a_released_value_names_both_ops(self, op, scope):
        build, values = _op_cases()[op]
        leaves = {n: ad.leaf(n, v) for n, v in values.items()}
        copies = {n: ad.scale(x, 1.0) for n, x in leaves.items()}
        ad.backward(reduce(ad.add, [ad.sum_all(c) for c in copies.values()]), leaves)
        assert all(c.value is None for c in copies.values())
        with scope(), pytest.raises(ad.ReleasedValueError,
                                    match=f"^'{op}' read the value of a 'scale' node"):
            build(copies)

    def test_an_output_on_no_path_from_a_requested_node_gets_zeros_and_releases(
            self, monkeypatch):
        z = ad.leaf("z", np.ones((3, 2)))  # older than the graph, so the walk covers it
        x = ad.leaf("x", np.array([0.5, -1.5]))
        h1 = ad.scale(x, 3.0)
        h2 = ad.add(h1, 1.0)
        sq = ad.mul(h2, h2)
        out = ad.sum_all(ad.scale(sq, 2.0))
        scaled = out.inputs[0]
        made = _count_made(monkeypatch)
        grads = ad.backward(out, {"z": z})
        assert not made  # no VJP ran
        assert grads["z"].shape == (3, 2) and np.all(grads["z"].value == 0.0)
        assert h1.value is None and sq.value is None and scaled.value is None
        assert h2.value is not None and out.value is not None  # read by mul; the output

    def test_kept_and_released_nodes(self):
        x = ad.leaf("x", np.array([0.5, -1.5]))
        h = ad.scale(x, 3.0)
        hh = ad.mul(h, h)
        out = ad.sum_all(ad.scale(hh, 2.0))
        grads = ad.backward(out, {"x": x, "h": h})
        assert hh.value is None  # read by no VJP
        assert out.value is not None and h.value is not None  # output, requested
        assert all(g.value is not None for g in grads.values())
        with ad.no_graph():
            value_only = ad.backward(ad.sum_all(ad.mul(h, h)), {"x": x})
        assert value_only["x"].value is not None

    def test_non_finite_output_over_released_nodes_names_the_op(self):
        x = ad.leaf("x", np.ones(3))
        h = ad.scale(x, 2.0)
        loss = ad.sum_all(h)
        ad.backward(loss, {"x": x})
        assert h.value is None
        out = ad.mul(ad.scale(loss, 1e300), ad.constant(1e300))
        with pytest.raises(ad.NonFiniteError, match="output of 'mul'$"):
            ad.backward(out, {"x": x})

    def test_a_later_backward_over_another_output_keeps_what_this_graph_reads(
            self, tiny_transformer):
        # The second-order backward walks the forward nodes that the gradients
        # read, but not the loss's own op nodes that read them too.
        leaves = tiny_transformer.store.leaves()
        _, phi = mm.partition_params(tiny_transformer.store)
        wrt = {n: leaves[n] for n in phi}
        loss = tiny_transformer.loss_fn(leaves, tiny_transformer.pairs)
        first = ad.backward(loss, wrt)
        ad.backward(reduce(ad.add, [ad.sum_all(ad.mul(first[n], first[n])) for n in phi]), wrt)
        again = ad.backward(loss, wrt)
        for n in phi:
            np.testing.assert_array_equal(again[n].value, first[n].value, err_msg=n)

    def test_each_walked_node_goes_once_the_walk_has_passed_it(self, tiny_transformer,
                                                               monkeypatch):
        leaves = tiny_transformer.store.leaves()
        _, phi = mm.partition_params(tiny_transformer.store)
        wrt = {n: leaves[n] for n in phi}
        walk = {}  # id(node) -> the nodes the walk has passed when its VJP runs
        late = []

        def spied(vjp):
            def spy(node, *args):
                late.extend(m for m in walk[id(node)] if m.value is not None)
                return vjp(node, *args)
            return spy

        for op, entry in list(ad._OPS.items()):
            monkeypatch.setitem(ad._OPS, op, entry._replace(vjp=spied(entry.vjp)))

        def checked_backward(output):
            order = ad._topo_order((output,), min(x.serial for x in wrt.values()))
            kept = {id(output)} | {id(x) for x in wrt.values()}
            passed = []
            for n in reversed(order):
                walk[id(n)] = list(passed)
                if n.inputs and not n.read and id(n) not in kept:
                    passed.append(n)
            grads = ad.backward(output, wrt)
            assert all(m.value is None for m in passed)
            return grads

        first = checked_backward(tiny_transformer.loss_fn(leaves, tiny_transformer.pairs))
        checked_backward(reduce(ad.add, [ad.sum_all(ad.mul(first[n], first[n])) for n in phi]))
        assert len(walk) > 100 and not late


class TestRequiresGrad:
    """A node takes gradients when an input does; frozen leaves and constants do not."""

    def test_the_bit_spreads_from_trainable_leaves_while_recording(self):
        x = ad.leaf("x", [1.0, 2.0])
        w = ad.leaf("w", [3.0, 4.0], requires_grad=False)
        assert ad.mul(x, w).requires_grad and ad.scale(ad.mul(x, w), 2.0).requires_grad
        assert not ad.scale(w, 2.0).requires_grad and not ad.constant(1.0).requires_grad
        with ad.no_graph():
            assert not ad.mul(x, w).requires_grad

    def test_requesting_a_node_that_takes_no_gradient_raises(self):
        x = ad.leaf("x", [1.0, 2.0])
        w = ad.leaf("w", [3.0, 4.0], requires_grad=False)
        c = ad.constant([0.5, 0.5])
        out = ad.sum_all(ad.mul(ad.mul(x, w), c))
        for wrt in ({"w": w}, {"c": c}, {"x": x, "w2": ad.scale(w, 2.0)}):
            with pytest.raises(ad.FrozenNodeError, match="take no gradient"):
                ad.backward(out, wrt)
            with pytest.raises(ad.FrozenNodeError, match="take no gradient"):
                ad.gradient_values(out, wrt)

    def test_an_activation_feeding_only_a_frozen_weight_product_is_released(self):
        rng = np.random.default_rng(31)
        x = ad.leaf("x", rng.standard_normal((3, 4)))
        w = ad.leaf("w", rng.standard_normal((4, 5)), requires_grad=False)
        h = ad.scale(x, 2.0)
        y = ad.matmul(h, w)
        grads = ad.backward(ad.sum_all(ad.mul(y, y)), {"x": x})
        assert h.value is None  # only w's gradient, never built, would read it
        assert not h.read and w.read  # x's gradient reads w
        np.testing.assert_allclose(grads["x"].value, 4.0 * (2.0 * x.value @ w.value) @ w.value.T,
                                   rtol=1e-13)

    def test_a_frozen_backbone_holds_less_for_the_same_phi_gradients(self, tiny_transformer):
        t = tiny_transformer
        _, phi = mm.partition_params(t.store)

        def run(trainable):
            leaves = t.store.leaves(trainable)
            loss = t.loss_fn(leaves, t.pairs)
            grads = ad.backward(loss, {n: leaves[n] for n in phi})
            held = sum(n.value.nbytes for n in ad.Graph(loss).nodes
                       if n.inputs and n.value is not None)
            return {n: g.value for n, g in grads.items()}, held

        frozen, frozen_held = run(phi)
        every, every_held = run(None)
        for n in phi:
            np.testing.assert_array_equal(frozen[n], every[n], err_msg=n)
        assert frozen_held < every_held


def _row_mean(x):
    return ad.scale(ad.sum_to(x, x.shape[:-1] + (1,)), 1.0 / x.shape[-1])


def _chain_layer_norm_vjp(node, g, needs):
    """``layer_norm``'s VJP as the primitive chain that ``_layer_norm_grad`` replaced."""
    x, gain, bias = node.inputs
    xc = ad.sub(x, _row_mean(x))
    inv = ad._make("_rsqrt", (ad.add(_row_mean(ad.mul(xc, xc)), ad._LN_EPS),))
    xhat = ad.mul(xc, inv)
    dxhat = ad.mul(g, gain)
    dx = ad.mul(inv, ad.sub(dxhat, ad.add(_row_mean(dxhat),
                                          ad.mul(xhat, _row_mean(ad.mul(dxhat, xhat))))))
    return dx, ad.sum_to(ad.mul(g, xhat), gain.shape), ad.sum_to(g, bias.shape)


def _chain_gelu_vjp(node, g):
    """``gelu``'s VJP as the primitive chain that ``_gelu_grad`` replaced."""
    x = node.inputs[0]
    x2 = ad.mul(x, x)
    t = ad._make("_tanh", (ad.scale(ad.add(x, ad.scale(ad.mul(x2, x), ad._GELU_A)), ad._GELU_C),))
    du = ad.scale(ad.add(1.0, ad.scale(x2, 3.0 * ad._GELU_A)), ad._GELU_C)
    d = ad.add(ad.scale(ad.add(1.0, t), 0.5),
               ad.scale(ad.mul(ad.mul(x, ad.sub(1.0, ad.mul(t, t))), du), 0.5))
    return (ad.mul(g, d),)


@pytest.mark.parametrize("order", ["first", "second"])
def test_fused_norm_and_gelu_gradients_match_their_primitive_chains(tiny_transformer, order,
                                                                    monkeypatch):
    t = tiny_transformer
    _, phi = mm.partition_params(t.store)

    def phi_gradients():
        leaves = t.store.leaves(phi)
        wrt = {n: leaves[n] for n in phi}
        loss = t.loss_fn(leaves, t.pairs)
        assert {"layer_norm", "gelu"} <= {n.op for n in ad.Graph(loss).nodes}
        if order == "first":
            return ad.gradient_values(loss, wrt)
        first = ad.backward(loss, wrt)
        return ad.gradient_values(
            reduce(ad.add, [ad.sum_all(ad.mul(first[n], first[n])) for n in phi]), wrt)

    fused = phi_gradients()
    monkeypatch.setitem(ad._OPS, "layer_norm",
                        ad._OPS["layer_norm"]._replace(vjp=_chain_layer_norm_vjp))
    monkeypatch.setitem(ad._OPS, "gelu", ad._OPS["gelu"]._replace(vjp=_chain_gelu_vjp))
    chain = phi_gradients()
    for n in phi:
        scale = np.abs(chain[n]).max()
        assert scale > 0.0, n
        assert np.abs(fused[n] - chain[n]).max() <= 1e-12 * scale, n


# The fused kernels as they were written out of place, and the layer-norm
# forward as it was written with ndarray.mean, kept verbatim: the kernels
# must run the same IEEE operations in the same order.
def _out_of_place_centre_and_scale(x):
    xc = x + x.mean(axis=-1, keepdims=True) * -1.0
    return xc, 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ad._LN_EPS)


def _out_of_place_ln_xhat(attrs, x):
    xc, inv = _out_of_place_centre_and_scale(x)
    return xc * inv


def _out_of_place_layer_norm_grad(attrs, x, gain, g):
    xc, inv = _out_of_place_centre_and_scale(x)
    xhat = xc * inv
    dxhat = g * gain
    mean = dxhat.mean(axis=-1, keepdims=True)
    return inv * (dxhat + (mean + xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * -1.0)


def _out_of_place_gelu(attrs, x):
    return 0.5 * x * (1.0 + np.tanh(ad._GELU_C * (x + ad._GELU_A * (x * x * x))))


def _out_of_place_gelu_grad(attrs, x, g):
    x2 = x * x
    t = np.tanh((x + (x2 * x) * ad._GELU_A) * ad._GELU_C)
    sech2 = 1.0 + (t * t) * -1.0
    du = (1.0 + x2 * (3.0 * ad._GELU_A)) * ad._GELU_C
    return g * ((1.0 + t) * 0.5 + ((x * sech2) * du) * 0.5)


def _out_of_place_layer_norm(attrs, x, gain, bias):
    m = x.mean(axis=-1, keepdims=True)
    xc = x - m
    v = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(v + ad._LN_EPS) * gain + bias


def _out_of_place_softmax(attrs, x):
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


_OUT_OF_PLACE = {
    "layer_norm": (_out_of_place_layer_norm, ("x", "gain", "bias")),
    "_ln_xhat": (_out_of_place_ln_xhat, ("x",)),
    "_layer_norm_grad": (_out_of_place_layer_norm_grad, ("x", "gain", "g")),
    "gelu": (_out_of_place_gelu, ("x",)),
    "_gelu_grad": (_out_of_place_gelu_grad, ("x", "g")),
    "softmax_lastdim": (_out_of_place_softmax, ("x",)),
}


def _kernel_inputs(shape, gain_shape, g_shape=None, specials=False):
    rng = np.random.default_rng(sum(shape))
    arrays = {"x": 3.0 * rng.standard_normal(shape), "gain": rng.standard_normal(gain_shape),
              "g": rng.standard_normal(g_shape or shape)}
    arrays["bias"] = rng.standard_normal(gain_shape)
    if specials:
        # Whole rows of one special, and single entries among finite ones.
        flat_x, flat_g = arrays["x"].reshape(-1, shape[-1]), arrays["g"].reshape(-1, shape[-1])
        for row, special in enumerate([np.inf, -np.inf, np.nan]):
            flat_x[row] = special
            flat_x[row + 3, row] = special
            flat_g[row + 6, row + 1] = special
        flat_x[9, :3] = [np.inf, -np.inf, np.nan]
        arrays["gain"].reshape(-1)[2] = np.nan
    for a in arrays.values():
        a.flags.writeable = False
    return arrays


KERNEL_CASES = {
    "stacked": _kernel_inputs((3, 8, 12, 64), (3, 1, 1, 64)),
    "decode_rows": _kernel_inputs((10, 1, 64), (64,)),
    "two_dim": _kernel_inputs((5, 7), (7,)),
    "non_finite": _kernel_inputs((4, 12, 16), (4, 1, 16), specials=True),
    "wider_adjoint": _kernel_inputs((1, 6, 8), (8,), g_shape=(3, 6, 8)),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
@pytest.mark.parametrize("op", sorted(_OUT_OF_PLACE))
def test_in_place_kernels_are_bitwise_their_out_of_place_forms(op, case):
    reference, names = _OUT_OF_PLACE[op]
    arrays = KERNEL_CASES[case]
    inputs = [arrays[n] for n in names]
    with np.errstate(all="ignore"):
        want = reference(None, *inputs)
        got = ad._OPS[op].fwd(None, *inputs)  # a write into an input raises
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestErrorState:
    """``backward`` enters numpy's error state once and restores it on exit."""

    @staticmethod
    def _graph():
        # x * x overflows to inf inside a recorded op; the softmax maps its
        # -inf to 0, so the output and the gradient are finite.
        x = ad.leaf("x", np.array([1e200, -2.0, 3.0]))
        y = ad.softmax_lastdim(ad.scale(ad.mul(x, x), -1.0))
        return x, ad.sum_all(ad.mul(y, np.array([1.0, 2.0, 3.0])))

    @pytest.mark.parametrize("run", ["backward", "gradient_values"])
    def test_a_pass_leaves_the_error_state_as_it_found_it(self, run):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, out = self._graph()
            assert np.geterr() == before
            getattr(ad, run)(out, {"x": x})
        assert np.geterr() == before

    def test_a_vjp_that_overflows_under_checked_restores_it(self):
        before = np.geterr()
        x = ad.leaf("x", np.array([1e-200, 2e-200]))
        out = ad.sum_all(ad.scale(ad.scale(x, 1e300), 1e10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ad.checked(), pytest.raises(ad.NonFiniteError, match="output of 'scale'$"):
                ad.backward(out, {"x": x})
            assert np.geterr() == before
            with pytest.raises(ad.NonFiniteError, match="output of 'scale'$"):
                ad.backward(out, {"x": x})  # the boundary re-runs it under checked()
        assert np.geterr() == before
