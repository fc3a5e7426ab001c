"""Tensor engine tests: frozen closed-form values, invariants, and the
finite-difference oracle run over every differentiable op."""

import math

import numpy as np
import pytest

from tinytraj import autodiff as ad
from gradcheck import assert_grads_close, central_diff_grad

RNG = np.random.default_rng(20240817)


def rand(*shape):
    # gradient checks use inputs in [-2, 2]
    return RNG.uniform(-2.0, 2.0, size=shape)


def run_tape(builder, *arrays):
    """Run ``builder`` on watched copies of ``arrays``; return (loss, grads)."""
    tape = ad.Tape()
    tensors = [tape.watch(ad.Tensor(a.copy(), requires_grad=True)) for a in arrays]
    loss = builder(*tensors)
    ad.backward(loss)
    return loss, [t.grad for t in tensors]


# ---------------------------------------------------------------------------
# closed-form and frozen values
# ---------------------------------------------------------------------------


def test_matmul_value():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = ad.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    a = ad.Tensor(np.zeros((2, 3)))
    b = ad.Tensor(np.zeros((4, 2)))
    with pytest.raises(ad.ShapeMismatchError) as exc:
        ad.matmul(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_softmax_known_row():
    # softmax([0, ln 2]) = [1/3, 2/3]
    out = ad.softmax_rows(ad.Tensor([[0.0, math.log(2.0)]]))
    np.testing.assert_allclose(out.data, [[1.0 / 3.0, 2.0 / 3.0]], rtol=0, atol=1e-15)


def test_softmax_rows_sum_to_one():
    x = ad.Tensor(RNG.normal(0, 5, size=(40, 17)))
    y = ad.softmax_rows(x).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(40), rtol=0, atol=1e-12)
    assert (y >= 0).all()


def test_softmax_shift_invariance():
    x = RNG.normal(0, 3, size=(8, 9))
    shifted = ad.softmax_rows(ad.Tensor(x + 123.456)).data
    base = ad.softmax_rows(ad.Tensor(x)).data
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)


def test_softmax_extreme_scores_match_extended_precision():
    # oracle: evaluate the same row with 50-digit arithmetic
    import mpmath

    mpmath.mp.dps = 50
    row = [1000.0, 0.0, -5.0]
    out = ad.softmax_rows(ad.Tensor([row])).data[0]
    exps = [mpmath.exp(v - 1000.0) for v in row]
    total = sum(exps)
    expected = np.array([float(e / total) for e in exps])
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
    assert np.isfinite(out).all()


def test_gelu_known_value():
    # gelu(1) = 0.5 * (1 + erf(1/sqrt(2)))
    expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    out = ad.gelu(ad.Tensor([1.0]))
    np.testing.assert_allclose(out.data, [expected], rtol=0, atol=1e-15)
    assert abs(expected - 0.8413447460685429) < 1e-15


def test_layer_norm_closed_form_pair():
    # [-1, 1] with eps=1e-5: each entry maps to +/- 1/sqrt(1 + 1e-5)
    g = ad.Tensor(np.ones(2))
    b = ad.Tensor(np.zeros(2))
    out = ad.layer_norm(ad.Tensor([[-1.0, 1.0]]), g, b, eps=1e-5)
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.data, [[-expected, expected]], rtol=0, atol=1e-15)


def test_layer_norm_standardizes_rows():
    # variance invariant checked with a tiny eps so the eps bias (var/(var+eps))
    # stays far below the 1e-9 tolerance
    x = ad.Tensor(RNG.normal(3.0, 2.5, size=(12, 33)))
    g = ad.Tensor(np.ones(33))
    b = ad.Tensor(np.zeros(33))
    y = ad.layer_norm(x, g, b, eps=1e-12).data
    np.testing.assert_allclose(y.mean(axis=1), np.zeros(12), rtol=0, atol=1e-9)
    np.testing.assert_allclose(y.var(axis=1), np.ones(12), rtol=0, atol=1e-9)


def test_layer_norm_rejects_bad_eps_and_width():
    g = ad.Tensor(np.ones(1))
    b = ad.Tensor(np.zeros(1))
    with pytest.raises(ad.ShapeMismatchError):
        ad.layer_norm(ad.Tensor([[1.0]]), g, b)
    g2, b2 = ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3))
    with pytest.raises(ValueError):
        ad.layer_norm(ad.Tensor([[1.0, 2.0, 3.0]]), g2, b2, eps=0.0)


def test_huber_value_at_knee():
    # delta=1, residual 2 -> 1 * (2 - 0.5) = 1.5
    out = ad.huber(ad.Tensor([2.0, -2.0, 0.5]), delta=1.0)
    np.testing.assert_allclose(out.data, [1.5, 1.5, 0.125], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------


def test_backward_requires_scalar_loss():
    tape = ad.Tape()
    x = tape.watch(ad.Tensor(rand(3, 3), requires_grad=True))
    y = ad.mul(x, x)
    with pytest.raises(ValueError):
        ad.backward(y)


def test_backward_visits_shared_node_from_both_paths():
    # loss = sum(x*x + x*x) -> grad 4x; the shared square node must accumulate
    x = rand(4)
    _, (g,) = run_tape(lambda t: ad.tensor_sum(ad.add(ad.mul(t, t), ad.mul(t, t))), x)
    np.testing.assert_allclose(g, 4 * x, rtol=1e-12, atol=0)


def test_unreached_watched_tensor_gets_zero_grad():
    tape = ad.Tape()
    x = tape.watch(ad.Tensor(rand(3), requires_grad=True))
    unused = tape.watch(ad.Tensor(rand(3), requires_grad=True))
    loss = ad.tensor_sum(ad.mul(x, x))
    grads = ad.backward(loss)
    np.testing.assert_array_equal(grads[unused], np.zeros(3))


def test_closed_tape_stops_recording():
    tape = ad.Tape()
    x = tape.watch(ad.Tensor(rand(3), requires_grad=True))
    ad.backward(ad.tensor_sum(ad.mul(x, x)))
    # tape is now closed: further ops on x run untracked
    y = ad.mul(x, x)
    assert y.tape is None


def test_two_active_tapes_conflict():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.watch(ad.Tensor(rand(2), requires_grad=True))
    b = t2.watch(ad.Tensor(rand(2), requires_grad=True))
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_backward_is_deterministic():
    x = rand(5, 5)

    def build(t):
        return ad.tensor_sum(ad.gelu(ad.matmul(t, ad.transpose(t))))

    _, (g1,) = run_tape(build, x)
    _, (g2,) = run_tape(build, x)
    np.testing.assert_array_equal(g1, g2)


FOLD_RNG = np.random.default_rng(3)  # its own generator: RNG's draws feed the oracle below


@pytest.mark.parametrize(
    "parts",
    [
        FOLD_RNG.normal(size=(1, 3, 4)),
        FOLD_RNG.choice([0.0, -0.0], (6, 4, 5)),
        FOLD_RNG.normal(size=(25, 32, 128)),
        FOLD_RNG.normal(size=(25, 32)),
    ],
    ids=["one_sequence", "signed_zeros", "b25_32x128", "b25_32"],
)
def test_fold_is_the_reversed_cumsum_chain(parts):
    # the reference: the last sequence first, each earlier one added onto it
    expected = np.cumsum(parts[::-1], axis=0)[-1]
    got = ad._fold(parts)
    assert got.shape == parts.shape[1:] and not np.shares_memory(got, parts)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def test_fold_keeps_minus_zero_only_when_every_part_is_minus_zero():
    # -0.0 + -0.0 stays -0.0; -0.0 + 0.0 is +0.0
    assert np.signbit(ad._fold(np.full((3, 2), -0.0))).all()
    assert not np.signbit(ad._fold(np.array([[-0.0], [0.0], [-0.0]]))).any()


@pytest.mark.parametrize("kernel", ["numpy", "native"])
def test_one_wide_bias_gradient_of_a_padded_batch_equals_single_passes(kernel, monkeypatch):
    # numpy's own sum adds one column pairwise, so its grouping depends on the
    # padded length; the per-sequence sums add positions in order at every width
    if kernel == "native" and ad.KERNEL != "native":
        pytest.skip("no compiled kernel on this host")
    monkeypatch.setattr(ad, "_ops", ad._NUMPY if kernel == "numpy" else ad._kernels())
    rng = np.random.default_rng(17)
    lengths, s = [9, 20, 14], 24
    w = rng.normal(size=(3, s, 1)) * 2.0 ** rng.integers(-40, 40, size=(3, s, 1))
    w[np.arange(s) >= np.array(lengths)[:, None]] = 0.0  # padding passes zero gradient

    def bias_grad(rows):  # one tape, one add_bias pass per [S, 1] sequence or [B, S, 1] batch
        tape = ad.Tape()
        b = tape.watch(ad.Tensor(rng.normal(size=1), requires_grad=True))
        terms = [
            ad.tensor_sum(ad.mul(ad.add_bias(ad.Tensor(np.zeros(r.shape)), b), ad.Tensor(r)))
            for r in rows
        ]
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        ad.backward(total)
        return b.grad

    batched = bias_grad([w])
    single = bias_grad([w[row, :length] for row, length in enumerate(lengths)])
    np.testing.assert_array_equal(batched.view(np.int64), single.view(np.int64))


@pytest.mark.parametrize("kernel", ["numpy", "native"])
def test_linear_is_add_bias_of_matmul_bit_for_bit(kernel, monkeypatch):
    # a ragged padded batch, wide-ranging values, and both the shared-weight
    # and the 2-D form: the value and all three gradients, every bit
    if kernel == "native" and ad.KERNEL != "native":
        pytest.skip("no compiled kernel on this host")
    monkeypatch.setattr(ad, "_ops", ad._NUMPY if kernel == "numpy" else ad._kernels())
    rng = np.random.default_rng(23)
    lengths, s, k, n = [7, 12, 3], 12, 9, 13
    x = rng.normal(size=(3, s, k)) * 2.0 ** rng.integers(-20, 20, size=(3, s, k))
    padded = np.arange(s) >= np.array(lengths)[:, None]
    x[padded] = 0.0
    weights = rng.normal(size=(3, s, n))
    weights[padded] = 0.0  # padding passes zero gradient
    w, bias = rng.normal(size=(k, n)), rng.normal(size=n) * 1e3

    def run(op, xs, ws):
        tape = ad.Tape()
        ts = [tape.watch(ad.Tensor(a.copy(), requires_grad=True)) for a in (xs, w, bias)]
        out = op(*ts)
        ad.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(ws))))
        return [out.data] + [t.grad for t in ts]

    def composed(xt, wt, bt):
        return ad.add_bias(ad.matmul(xt, wt), bt)

    for xs, ws in ((x, weights), (x[1], weights[1])):
        got, expected = run(ad.linear, xs, ws), run(composed, xs, ws)
        for g, e in zip(got, expected):
            assert g.shape == e.shape
            np.testing.assert_array_equal(g.view(np.int64), e.view(np.int64))


@pytest.mark.parametrize("op", ["matmul", "linear"])
@pytest.mark.parametrize("kernel", ["numpy", "native"])
def test_one_sequence_equals_a_batch_of_one_bit_for_bit(kernel, op, monkeypatch):
    # [S, k] @ [k, n] is the one-sequence case of the shared-weight form:
    # the value and every gradient equal those of the same op on [1, S, k]
    if kernel == "native" and ad.KERNEL != "native":
        pytest.skip("no compiled kernel on this host")
    monkeypatch.setattr(ad, "_ops", ad._NUMPY if kernel == "numpy" else ad._kernels())
    rng = np.random.default_rng(29)
    s, k, n = 11, 9, 13
    x = rng.normal(size=(s, k)) * 2.0 ** rng.integers(-20, 20, size=(s, k))
    w, bias = rng.normal(size=(k, n)), rng.normal(size=n) * 1e3
    weights = rng.normal(size=(s, n))

    def run(xs, ws):
        tape = ad.Tape()
        ts = [tape.watch(ad.Tensor(a.copy(), requires_grad=True)) for a in (xs, w, bias)]
        out = ad.linear(*ts) if op == "linear" else ad.matmul(*ts[:2])
        ad.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(ws))))
        return [out.data] + [t.grad for t in ts]

    for got, expected in zip(run(x, weights), run(x[None], weights[None])):
        assert got.size == expected.size
        np.testing.assert_array_equal(got.view(np.int64).ravel(), expected.view(np.int64).ravel())


def test_linear_rejects_a_bias_of_the_wrong_width():
    with pytest.raises(ad.ShapeMismatchError):
        ad.linear(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros(3)))


def _minus_zero_rows(x):  # an all -0.0 row sums to -0.0, not to +0.0
    x = x.copy()
    x[..., 0, :] = -0.0
    return x


@pytest.mark.parametrize(
    "x",
    [
        FOLD_RNG.normal(size=(3, 1)),
        _minus_zero_rows(FOLD_RNG.choice([0.0, -0.0, 1e-310, -1.5], (6, 4, 9))),
        _minus_zero_rows(FOLD_RNG.normal(size=(25, 4, 32, 32))),
        np.zeros((2, 0)),
    ],
    ids=["one_column", "signed_zeros", "scores_25x4x32x32", "no_columns"],
)
def test_row_sums_is_the_cumsum_chain(x):
    # the reference: np.cumsum's last column, a chain from the first element
    expected = np.cumsum(x, axis=-1)[..., -1:]
    got = ad._row_sums(x)
    assert got.shape == expected.shape and not np.shares_memory(got, x)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------------------
# finite-difference oracle across every differentiable op
# ---------------------------------------------------------------------------

# Each entry: (name, forward builder on Tensors, list of input arrays).
# The numpy reference for finite differencing re-runs the same builder on
# fresh tensors, so the perturbed evaluation never reuses the tape.
_SOFTMAX_WEIGHTS = rand(4, 5)


def _loss(builder):
    return lambda *ts: ad.tensor_sum(builder(*ts))


OP_CASES = [
    ("add", _loss(ad.add), [rand(3, 4), rand(3, 4)]),
    ("sub", _loss(ad.sub), [rand(3, 4), rand(3, 4)]),
    ("mul", _loss(ad.mul), [rand(3, 4), rand(3, 4)]),
    ("scale", _loss(lambda t: ad.scale(t, -1.7)), [rand(4, 2)]),
    ("add_scalar", _loss(lambda t: ad.add_scalar(t, 0.37)), [rand(5)]),
    ("add_bias", _loss(ad.add_bias), [rand(4, 3), rand(3)]),
    ("matmul", _loss(ad.matmul), [rand(3, 4), rand(4, 2)]),
    ("transpose", _loss(lambda t: ad.mul(ad.transpose(t), ad.transpose(t))), [rand(3, 5)]),
    ("reshape", _loss(lambda t: ad.mul(ad.reshape(t, (6, 2)), ad.reshape(t, (6, 2)))), [rand(3, 4)]),
    ("concat", _loss(lambda a, b: ad.gelu(ad.concat([a, b], axis=1))), [rand(3, 2), rand(3, 3)]),
    ("stack", _loss(lambda a, b: ad.gelu(ad.stack([a, b], axis=0))), [rand(2, 3), rand(2, 3)]),
    ("slice_axis", _loss(lambda t: ad.mul(ad.slice_axis(t, 1, 1, 2), ad.slice_axis(t, 1, 0, 2))), [rand(3, 4)]),
    ("sum_axis", _loss(lambda t: ad.gelu(ad.tensor_sum(t, axis=0))), [rand(4, 3)]),
    ("mean_all", lambda t: ad.mean(ad.mul(t, t)), [rand(4, 3)]),
    ("mean_axis", _loss(lambda t: ad.gelu(ad.mean(t, axis=1))), [rand(4, 3)]),
    ("gather_rows", _loss(lambda t: ad.gelu(ad.gather_rows(t, [0, 2, 2, 1]))), [rand(4, 3)]),
    # weight the softmax outputs by a fixed matrix: summing them directly
    # gives a constant loss (rows sum to 1) with no gradient signal to check
    (
        "softmax_rows",
        _loss(lambda t: ad.mul(ad.softmax_rows(t), ad.Tensor(_SOFTMAX_WEIGHTS))),
        [rand(4, 5)],
    ),
    (
        "softmax_then_mix",
        _loss(lambda t, v: ad.matmul(ad.softmax_rows(t), v)),
        [rand(4, 4), rand(4, 3)],
    ),
    ("layer_norm", _loss(lambda x, g, b: ad.layer_norm(x, g, b)), [rand(5, 6), rand(6), rand(6)]),
    # leading batch axes: a weight shared by every sequence, per-head products
    ("add_bias_batched", _loss(ad.add_bias), [rand(2, 4, 3), rand(3)]),
    ("matmul_shared_weight", _loss(ad.matmul), [rand(2, 3, 4), rand(4, 2)]),
    ("matmul_batched", _loss(ad.matmul), [rand(2, 3, 3, 4), rand(2, 3, 4, 2)]),
    (
        "transpose_axes",
        _loss(lambda t: ad.mul(ad.transpose(t, (0, 2, 1)), ad.transpose(t, (0, 2, 1)))),
        [rand(2, 3, 4)],
    ),
    (
        "softmax_batched",
        _loss(lambda t: ad.mul(ad.softmax_rows(t), ad.Tensor(np.stack([_SOFTMAX_WEIGHTS] * 2)))),
        [rand(2, 4, 5)],
    ),
    (
        "layer_norm_batched",
        _loss(lambda x, g, b: ad.layer_norm(x, g, b)),
        [rand(2, 5, 6), rand(6), rand(6)],
    ),
    ("gelu", _loss(ad.gelu), [rand(4, 4)]),
    ("sin", _loss(ad.sin), [rand(3, 3)]),
    ("huber", _loss(lambda t: ad.huber(t, delta=0.9)), [rand(4, 4)]),
    ("linear", _loss(ad.linear), [rand(3, 4), rand(4, 2), rand(2)]),
    ("linear_shared_weight", _loss(ad.linear), [rand(2, 3, 4), rand(4, 2), rand(2)]),
]


@pytest.mark.parametrize("name,builder,arrays", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_match_finite_differences(name, builder, arrays):
    _, grads = run_tape(builder, *arrays)
    for ai, a in enumerate(arrays):
        def f(x, ai=ai):
            tape = ad.Tape()
            tensors = []
            for j, arr in enumerate(arrays):
                src = x if j == ai else arr
                tensors.append(tape.watch(ad.Tensor(src.copy(), requires_grad=True)))
            return float(builder(*tensors).data)

        numeric = central_diff_grad(f, a.copy())
        assert_grads_close(grads[ai], numeric, label=f"{name} input {ai}")
