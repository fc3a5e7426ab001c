"""The compiled kernel behind ``autodiff``: the contraction of ``_bmm`` and
the row-wise ops of softmax, layer norm, the per-sequence sums, the GELU and
its gradient.

The numpy bodies (``_bmm_numpy``, ``_softmax_numpy``, ...) are the oracle:
every compiled op, and every body of the contraction (AVX-512, AVX2 and the
baseline, as far as this CPU runs them), must give their bits (int64
patterns; a NaN's sign and payload aside, which numpy itself sets
differently for different row lengths), and when the kernel cannot be
built, loaded or checked, every op runs its numpy body instead.  A pass
above the work threshold (the per-sequence sums aside, which always run
whole) is shared, in chunks, with the kernel's worker thread: the cut must
move no bit, whoever calls.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import shlex
import signal
import subprocess
import sys
import sysconfig
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tinytraj import _kernel
from tinytraj import autodiff as ad
from tinytraj import model as tm

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan, 1e308, -1e308]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


def bits(x: np.ndarray) -> np.ndarray:  # int64 patterns, one pattern for every NaN
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


def native_ops() -> ad.Ops:
    if ad.KERNEL != "native":
        pytest.skip("no compiled kernel on this host")
    return ad._ops


@functools.cache
def _body(symbol):  # None when this CPU lacks the body
    runs = symbol.removeprefix("tinytraj_bmm_") in _kernel.bodies()
    return _kernel.native(symbol).bmm if runs else None


def native_kernel(symbol="tinytraj_bmm"):
    ops = native_ops()
    if symbol == "tinytraj_bmm":
        return ops.bmm
    if _body(symbol) is None:
        pytest.skip(f"this CPU does not run {symbol}")
    return _body(symbol)


def _layout(draw, x):
    # C order, transposed, every other row of a twice-as-tall array, or (with a
    # leading axis) heads split out of rows, as attention reads [B, S, H, hd]
    layout = draw(st.sampled_from(["c", "transposed", "sliced", "heads"]))
    if layout == "transposed":
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(x, -1, -2)), -1, -2)
    if layout == "heads" and x.ndim >= 3:
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(x, -3, -2)), -3, -2)
    if layout == "sliced":
        tall = np.repeat(x, 2, axis=-2)
        tall[..., 1::2, :] = np.nan  # never read
        return tall[..., ::2, :]
    return x


@st.composite
def operands(draw):
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3))
    m, n = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    k = draw(st.integers(0, 20))
    # a broadcasts over some leading axes, b may lack the outer ones
    a_lead = tuple(1 if draw(st.booleans()) else s for s in lead)
    b_lead = lead[draw(st.integers(0, len(lead))) :]
    a = draw(hnp.arrays(np.float64, a_lead + (m, k), elements=VALUES))
    b = draw(hnp.arrays(np.float64, b_lead + (k, n), elements=VALUES))
    return _layout(draw, a), _layout(draw, b)


NORMAL = np.random.default_rng(4).normal(size=(22, 19))


def gives_the_numpy_loops_bits(symbol):
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(operands())
    @example((np.array([[np.inf, 1e308], [1e308, 0.0]]), np.array([[0.0, -0.0], [-0.0, np.nan]])))
    @example((np.array([[-0.0], [5e-324]]), np.array([[1.0, -1e-310, 0.5]])))  # k = 1
    @example((np.full((9, 3), -0.0), np.ones((3, 19))))  # -0.0 terms through whole tiles
    # two whole tiles and a tail each way, where another summation order rounds differently
    @example((NORMAL[:9, :13], NORMAL[9:22]))
    # narrower than a tile: the output head's 3 columns, and 5
    @example((NORMAL[:9, :13], NORMAL[9:22, :3]))
    @example((NORMAL[:13, :9].T, NORMAL[:13, 9:14]))
    @example((np.zeros((9, 0)), np.zeros((0, 19))))  # k = 0
    def test(ops):
        a, b = ops
        native = native_kernel(symbol)
        with np.errstate(all="ignore"):
            expected = ad._bmm_numpy(a, b)
            got = native(a, b)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(bits(got), bits(expected))

    return test


# the dispatched entry point, and each body it may run, so that an AVX-512
# host tests all three
test_native_kernel_gives_the_numpy_loops_bits = gives_the_numpy_loops_bits("tinytraj_bmm")
test_baseline_kernel_gives_the_numpy_loops_bits = gives_the_numpy_loops_bits(
    "tinytraj_bmm_baseline"
)
test_avx2_kernel_gives_the_numpy_loops_bits = gives_the_numpy_loops_bits("tinytraj_bmm_avx2")
test_avx512_kernel_gives_the_numpy_loops_bits = gives_the_numpy_loops_bits("tinytraj_bmm_avx512")


def test_transposed_a_is_read_in_place():
    native = native_kernel()
    a = np.swapaxes(np.random.default_rng(1).normal(size=(25, 32, 128)), 1, 2)
    b = np.random.default_rng(2).normal(size=(25, 32, 32))
    native(a, b)  # the first call may allocate once for ctypes
    tracemalloc.start()
    try:
        out = native(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output, and far less than a's 800 KiB
    assert out.nbytes <= peak < out.nbytes + 64 * 1024


def test_split_heads_and_k_transposed_are_read_in_place():
    native = native_kernel()
    rng = np.random.default_rng(5)
    # q [B, H, S, hd] and k^T [B, H, hd, S] of [B, S, H, hd] projections
    q, k = (rng.normal(size=(25, 32, 4, 8)).transpose(0, 2, 1, 3) for _ in range(2))
    kt = np.swapaxes(k, -1, -2)
    native(q, kt)
    tracemalloc.start()
    try:
        out = native(q, kt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output and one product's packed k^T (2 KiB), far less than k's 200 KiB
    assert out.nbytes <= peak < out.nbytes + 16 * 1024
    np.testing.assert_array_equal(bits(out), bits(ad._bmm_numpy(q, kt)))


def test_a_whose_strides_are_not_whole_elements_is_copied_first():
    native = native_kernel()
    rows = np.zeros((6, 4), dtype=[("x", "f8"), ("flag", "i4")])  # packed: 12-byte elements
    rows["x"] = np.random.default_rng(3).normal(size=(6, 4))
    b = np.random.default_rng(4).normal(size=(4, 9))
    np.testing.assert_array_equal(bits(native(rows["x"], b)), bits(ad._bmm_numpy(rows["x"], b)))


def test_native_kernel_rejects_mismatched_inner_dimensions():
    native = native_kernel()
    with pytest.raises(ad.ShapeMismatchError):
        native(np.zeros((2, 3)), np.zeros((4, 2)))


def _minus_zero_start(a, b):  # -0.0 + -0.0 stays -0.0, but +0.0 + -0.0 is +0.0
    out = -ad._bmm_numpy(a[..., :0], b[..., :0, :])  # -0.0 everywhere
    for i in range(a.shape[-1]):
        out += a[..., i : i + 1] * b[..., i : i + 1, :]
    return out


def _last_two_terms_swapped(a, b):  # swapping the first two would change nothing: 0 + x is x
    k = a.shape[-1]
    order = [*range(k - 2), k - 1, k - 2] if k >= 3 else slice(None)
    return ad._bmm_numpy(a[..., order], b[..., order, :])


def with_bmm(bmm) -> ad.Ops:
    return ad._NUMPY._replace(bmm=bmm)


def test_self_check_catches_another_summation_order():
    assert _kernel.agrees_with_numpy(ad._NUMPY)
    reversed_order = lambda a, b: ad._bmm_numpy(a[..., ::-1], b[..., ::-1, :])  # noqa: E731
    assert not _kernel.agrees_with_numpy(with_bmm(reversed_order))
    assert not _kernel.agrees_with_numpy(with_bmm(_minus_zero_start))


def _tile_mutant(mr, mutation, narrow):
    # a kernel whose whole mr x 8 tiles (or narrow tiles: the last n % 8
    # columns of whole tile rows) are wrong and whose other elements are right
    def bmm(a, b):
        out = ad._bmm_numpy(a, b)
        m, n = out.shape[-2:]
        rows, cols = m - m % mr, slice(n - n % 8, n) if narrow else slice(0, n - n % 8)
        out[..., :rows, cols] = mutation(a[..., :rows, :], b[..., cols])
        return out

    return with_bmm(bmm)


TILE_MUTANTS = pytest.mark.parametrize("mutation", [_minus_zero_start, _last_two_terms_swapped])
TILE_ROWS = pytest.mark.parametrize("mr", [2, 4, 8])  # the baseline, AVX2 and AVX-512 bodies


@TILE_ROWS
@TILE_MUTANTS
def test_self_check_reaches_the_tiles(mr, mutation):
    assert not _kernel.agrees_with_numpy(_tile_mutant(mr, mutation, narrow=False))


@TILE_ROWS
@TILE_MUTANTS
def test_self_check_reaches_the_narrow_tiles(mr, mutation):
    assert not _kernel.agrees_with_numpy(_tile_mutant(mr, mutation, narrow=True))


def _pass_bits():
    # a ragged batch's output and every parameter gradient: each op and VJP
    cfg = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=2, max_seq=12)
    params = tm.init_params(cfg, np.random.default_rng(7))
    x = np.random.default_rng(8).normal(0.0, 1.0, (3, 12, 7))
    tm.bind_params(params, ad.Tape())
    pred = tm.forward_features(x, params, cfg, lengths=[12, 5, 9])
    weights = np.random.default_rng(9).normal(size=pred.shape)
    ad.backward(ad.tensor_sum(ad.mul(pred, ad.Tensor(weights))))
    grads = [t.grad for t in tm.named_parameters(params).values()]
    return np.concatenate([bits(a).ravel() for a in [pred.data, *grads]])


def _compile_fails():
    raise subprocess.CalledProcessError(1, ["cc"])


def _one_row_op_disagrees(mp):
    # every other op is right: the kernel must still not be used
    real = _kernel.row_ops
    mp.setattr(_kernel, "row_ops", lambda lib: {**real(lib), "softmax_vjp": _softmax_vjp_plus_zero})


@pytest.mark.parametrize(
    "break_step",
    [
        lambda mp: mp.setattr(_kernel, "compile_kernel", _compile_fails),
        lambda mp: mp.setattr(sysconfig, "get_config_var", lambda name: "/nonexistent/cc"),
        lambda mp: mp.setattr(_kernel, "agrees_with_numpy", lambda ops: False),
        _one_row_op_disagrees,
    ],
    ids=["compile_fails", "no_compiler", "self_check_fails", "one_row_op_disagrees"],
)
def test_without_a_usable_kernel_bmm_falls_back_to_numpy_with_the_same_bits(
    monkeypatch, break_step
):
    before = _pass_bits()  # on whichever kernel this host runs
    called = set()

    def spy(name, fn):
        def run(*args):
            called.add(name)
            return fn(*args)

        return run

    numpy_ops = ad.Ops(*(spy(name, fn) for name, fn in zip(ad.Ops._fields, ad._NUMPY)))
    monkeypatch.setattr(ad, "_NUMPY", numpy_ops)
    monkeypatch.setattr(ad, "_ops", None)  # choose again on the next call
    break_step(monkeypatch)
    after = _pass_bits()
    assert ad.KERNEL == "numpy" and ad._ops is numpy_ops
    assert called == set(ad.Ops._fields)  # every op ran its numpy body
    np.testing.assert_array_equal(after, before)


def test_kernel_is_reported_and_cached(tmp_path, monkeypatch):
    native_kernel()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(ad, "_ops", None)
    assert ad.KERNEL == "native"
    (lib,) = (tmp_path / "tinytraj").iterdir()  # no temp file left behind
    built = lib.stat().st_mtime_ns
    monkeypatch.setattr(ad, "_ops", None)
    assert _kernel.compile_kernel() == lib and lib.stat().st_mtime_ns == built
    with pytest.raises(AttributeError):
        ad.NO_SUCH_NAME  # noqa: B018


def test_the_compiler_is_asked_its_version_once_per_command(monkeypatch):
    native_kernel()
    asked = []
    run = subprocess.run

    def spy(cmd, *args, **kwargs):
        if cmd[-1] == "-v":
            asked.append(tuple(cmd[:-1]))
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    _kernel._about.cache_clear()
    _kernel._library()
    _kernel._library()
    cc = tuple(shlex.split(sysconfig.get_config_var("CC") or "cc"))
    assert asked == [cc]
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: "/nonexistent/cc")
    with pytest.raises(OSError):
        _kernel._library()
    assert asked == [cc, ("/nonexistent/cc",)]


# ---------------------------------------------------------------------------
# the row-wise ops


def assert_same_bits(got, expected):
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same_bits(g, e)
        return
    if expected is None:  # a GELU cdf that was not kept
        assert got is None
        return
    assert got.shape == expected.shape
    np.testing.assert_array_equal(bits(got), bits(expected))


def _rows(x: np.ndarray, row: list) -> np.ndarray:  # x with every row set to ``row``
    return np.broadcast_to(np.array(row, dtype=np.float64), x.shape).copy()


ROW_SHAPE = st.builds(
    lambda lead, n: lead + (n,),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3),
    st.one_of(st.integers(1, 12), st.sampled_from([32, 127, 128, 129, 136]), st.integers(1, 140)),
)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=VALUES)


@st.composite
def rows_like(draw, count):
    # ``count`` arrays of one shape whose last axis is the row
    shape = draw(ROW_SHAPE)
    return tuple(draw(arrays(shape)) for _ in range(count))


# -inf but for one finite entry, all -0.0, and a width of 129 (pairwise halves)
MINUS_INF_ROW = np.array([[-np.inf, -np.inf, 0.5, -np.inf], [-np.inf, 3.0, -np.inf, -np.inf]])
MINUS_ZERO_ROWS = np.full((2, 2, 3, 9), -0.0)
WIDE = np.random.default_rng(5).normal(size=(3, 129)) * 2.0 ** np.arange(-64, 65)


def row_op_test(name, strategy, *examples):
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(strategy)
    def test(args):
        op = getattr(native_ops(), name)
        with np.errstate(all="ignore"):
            assert_same_bits(op(*args), getattr(ad._NUMPY, name)(*args))

    for args in examples:
        test = example(args)(test)
    return test


@st.composite
def layer_norm_args(draw):
    (x,) = draw(rows_like(1))
    d = x.shape[-1]
    eps = draw(st.sampled_from([1e-5, 1e-12, 0.5, 5e-324]))
    return x, draw(arrays((d,))), draw(arrays((d,))), eps


@st.composite
def layer_norm_dx_args(draw):
    g, xhat = draw(rows_like(2))
    return g, draw(arrays(g.shape[-1:])), xhat, draw(arrays(g.shape[:-1] + (1,)))


@st.composite
def seq_sums_args(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(0, 12)), draw(st.integers(1, 70)))
    g = draw(arrays(shape))
    return (g, draw(arrays(shape))) if draw(st.booleans()) else (g,)


def _gelu_args(x):
    g = np.random.default_rng(6).normal(size=x.shape)
    with np.errstate(invalid="ignore"):  # inf * 0.0
        return g, x, ad._gelu_numpy(x)[1]


GELU_SPECIAL = np.array([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 40.0, -40.0])


test_native_softmax_gives_the_numpy_bits = row_op_test(
    "softmax", rows_like(1), (MINUS_INF_ROW,), (MINUS_ZERO_ROWS,), (WIDE,)
)
test_native_softmax_vjp_gives_the_numpy_bits = row_op_test(
    "softmax_vjp",
    rows_like(2),
    (np.abs(WIDE), _rows(WIDE, [-0.0])),  # g * y all -0.0: the chain keeps its sign
    (MINUS_ZERO_ROWS, MINUS_ZERO_ROWS),
)
test_native_layer_norm_gives_the_numpy_bits = row_op_test(
    "layer_norm",
    layer_norm_args(),
    (MINUS_ZERO_ROWS, np.ones(9), np.full(9, -0.0), 1e-5),  # the mean is +0.0, not -0.0
    (WIDE, np.ones(129), np.zeros(129), 1e-5),
)
test_native_layer_norm_dx_gives_the_numpy_bits = row_op_test(
    "layer_norm_dx",
    layer_norm_dx_args(),
    (WIDE, np.ones(129), WIDE[::-1], np.ones((3, 1))),
    (MINUS_ZERO_ROWS, np.ones(9), MINUS_ZERO_ROWS, np.ones((2, 2, 3, 1))),
)
test_native_seq_sums_gives_the_numpy_bits = row_op_test(
    "seq_sums",
    seq_sums_args(),
    (np.full((3, 4, 5), -0.0),),  # each sequence's sum starts from +0.0
    (WIDE.reshape(3, 1, 129),),  # more columns than one block
    (WIDE.reshape(3, 1, 129), WIDE[::-1].reshape(3, 1, 129)),
    (np.ones((2, 5, 1)) * [[[1e16]], [[1.0]]],),  # one column: in order too
    (WIDE.reshape(3, 129, 1),),  # where numpy's own sum would go pairwise
)
test_native_gelu_vjp_gives_the_numpy_bits = row_op_test(
    "gelu_vjp",
    rows_like(3),
    _gelu_args(WIDE),
    _gelu_args(GELU_SPECIAL),
)
# with its cdf kept for the VJP, and without (the output takes cdf's buffer)
test_native_gelu_gives_the_numpy_bits = row_op_test(
    "gelu",
    st.tuples(rows_like(1).map(lambda x: x[0]), st.booleans()),
    (WIDE, True),
    (WIDE, False),
    (GELU_SPECIAL, True),
    (np.swapaxes(WIDE, 0, 1), False),  # a transposed x
)


def _chain_from_plus_zero(x):  # +0.0 + -0.0 is +0.0: an all -0.0 row loses its sign
    out = np.zeros(x.shape[:-1] + (1,))
    for j in range(x.shape[-1]):
        out += x[..., j : j + 1]
    return out


def _softmax_plus_zero(x):
    y = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return y / _chain_from_plus_zero(y)


def _softmax_vjp_plus_zero(y, g):
    return y * (g - _chain_from_plus_zero(g * y))


def _plain_mean(x):  # left to right, where numpy sums 8 or more terms pairwise
    return _chain_from_plus_zero(x) / x.shape[-1]


def _layer_norm_plain_mean(x, gain, bias, eps):
    xc = x - _plain_mean(x)
    inv = 1.0 / np.sqrt(_plain_mean(xc * xc) + eps)
    return xc * inv * gain + bias, xc * inv, inv


def _layer_norm_dx_plain_mean(g, gain, xhat, inv):
    dxhat = g * gain
    return inv * (dxhat - _plain_mean(dxhat) - xhat * _plain_mean(dxhat * xhat))


def _seq_sums_first_to_last(g, w=None):  # the fold in the other order
    return np.cumsum(ad._seq_sums(g if w is None else g * w), axis=0)[-1]


def _seq_sums_from_first_position(g, w=None):  # not from +0.0
    g = g if w is None else g * w
    return ad._fold(np.cumsum(g, axis=1)[:, -1])


def _seq_sums_numpy_sum(g, w=None):  # numpy's sum: pairwise over one column
    return ad._fold((g if w is None else g * w).sum(axis=1))


def _gelu_erfc(x, keep_cdf=True):  # the same function, rounded differently: libm's erfc
    cdf = 0.5 * np.vectorize(math.erfc, otypes=[np.float64])(-x / ad._SQRT2)
    return x * cdf, cdf if keep_cdf else None


@pytest.mark.parametrize(
    "mutant",
    [
        {"softmax": _softmax_plus_zero, "softmax_vjp": _softmax_vjp_plus_zero},
        {"layer_norm": _layer_norm_plain_mean},
        {"layer_norm_dx": _layer_norm_dx_plain_mean},
        {"seq_sums": _seq_sums_first_to_last},
        {"seq_sums": _seq_sums_from_first_position},
        {"seq_sums": _seq_sums_numpy_sum},
        {"gelu": _gelu_erfc},
    ],
    ids=[
        "softmax_sum_from_plus_zero",
        "layer_norm_plain_mean",
        "layer_norm_dx_plain_mean",
        "seq_sums_first_to_last",
        "seq_sums_from_first_position",
        "seq_sums_pairwise_one_column",
        "gelu_erfc",
    ],
)
def test_self_check_catches_another_row_summation(mutant):
    assert not _kernel.agrees_with_numpy(ad._NUMPY._replace(**mutant))


def test_row_ops_reject_mismatched_shapes():
    ops = native_ops()
    with pytest.raises(ad.ShapeMismatchError):
        ops.softmax_vjp(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ad.ShapeMismatchError):
        ops.layer_norm(np.zeros((2, 3)), np.zeros(2), np.zeros(3), 1e-5)
    with pytest.raises(ad.ShapeMismatchError):
        ops.layer_norm_dx(np.zeros((2, 3)), np.zeros(3), np.zeros((2, 3)), np.zeros((3, 1)))
    with pytest.raises(ad.ShapeMismatchError):
        ops.seq_sums(np.zeros((2, 3, 4)), np.zeros((2, 3, 5)))
    with pytest.raises(ad.ShapeMismatchError):
        ops.seq_sums(np.zeros((3, 4)))
    with pytest.raises(ad.ShapeMismatchError):
        ops.gelu_vjp(np.zeros(3), np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# the split: a pass above the work threshold is shared, in chunks, by the
# caller and the kernel's worker thread; the per-sequence sums run whole

SPLIT_OPS = [name for name in ad.Ops._fields if name != "seq_sums"]


def split_pass(ops):
    # a contraction well above the threshold, cut between its 25 products
    rng = np.random.default_rng(12)
    return ops.bmm(rng.normal(size=(25, 32, 32)), rng.normal(size=(25, 32, 128)))


def _packed(b):  # b's columns not adjacent: each thread packs a product's b
    return np.swapaxes(np.ascontiguousarray(np.swapaxes(b, -1, -2)), -1, -2)


@st.composite
def split_cases(draw):
    # an op and its arguments, of a work on either side of the threshold
    # (32,768 multiply-adds or elements), cut into chunks of unequal size: an
    # odd number of products, or 8-row tiles of a product whose rows are not
    # a multiple of 8; the arrays come from a drawn seed, as hypothesis draws
    # large ones slowly
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def wide(*shape):  # 60 binades: another summation order rounds differently
        return rng.normal(size=shape) * 2.0 ** rng.integers(-30, 30, size=shape)

    name = draw(st.sampled_from(SPLIT_OPS))
    if name == "bmm":
        products = draw(st.sampled_from([1, 2, 3, 5]))
        m, k, n = draw(st.integers(1, 60)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
        a, b = wide(products, m, k), wide(products, k, n)
        b = _packed(b) if draw(st.booleans()) else b
        return name, (a[0], b[0]) if products == 1 and draw(st.booleans()) else (a, b)
    rows, n = draw(st.integers(1, 1500)), draw(st.integers(1, 48))
    x, g = wide(rows, n), wide(rows, n)
    near = rng.normal(size=(rows, n)) * 4.0  # where erf is neither 1 nor -1
    return name, {
        "softmax": (x,),
        "softmax_vjp": (np.abs(x), g),
        "layer_norm": (x, wide(n), wide(n), 1e-5),
        "layer_norm_dx": (g, wide(n), x, wide(rows, 1)),
        "gelu": (near, draw(st.booleans())),
        "gelu_vjp": (g, near, ad._gelu_numpy(near)[1]),
    }[name]


AT_THRESHOLD = NORMAL[:16, :16] @ np.ones((16, 2)), np.ones((2, 1024))  # 16 x 2 x 1024 = 32,768


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(split_cases())
@example(("bmm", AT_THRESHOLD))  # two chunks of 8 rows
@example(("bmm", (AT_THRESHOLD[0][:15], AT_THRESHOLD[1])))  # below it
@example(("bmm", (NORMAL[:3, :13][:, None], _packed(np.broadcast_to(NORMAL[:13, :16], (3, 13, 16))))))
@example(("bmm", (np.broadcast_to(NORMAL[:17, :19], (101, 17, 19)), NORMAL[:19, :17])))
def test_every_op_gives_the_same_bits_on_one_thread_and_on_two(case):
    name, args = case
    op = getattr(native_ops(), name)
    with np.errstate(all="ignore"):
        with _kernel._parts(1):
            whole = op(*args)
        with _kernel._parts(2):
            op(*args)  # wakes the worker, which then waits awake for the next pass
            cut = op(*args)
    assert_same_bits(cut, whole)


def test_thread_count_follows_the_cpus_the_process_may_run_on():
    native_ops()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _kernel.parts() == (2 if cpus >= 2 else 1)
    with _kernel._parts(1):
        assert _kernel.parts() == 1
    with _kernel._parts(2):
        assert _kernel.parts() == 2
    assert _kernel.parts() == (2 if cpus >= 2 else 1)


def test_threads_in_the_kernel_at_once_get_the_serial_bits():
    # ctypes drops the GIL, so callers meet in C: a caller that finds the
    # worker busy runs its pass whole.  More threads than cores.
    ops = native_ops()
    rng = np.random.default_rng(13)
    x = rng.normal(size=(25, 32, 128))
    q, k = rng.normal(size=(2, 25, 32, 4, 8)).transpose(0, 1, 3, 2, 4)  # [B, H, S, hd] heads
    cases = [
        ("bmm", (q, np.swapaxes(k, -1, -2))),  # kᵀ: each thread packs its own products' b
        ("bmm", (rng.normal(size=(25, 32, 32)), rng.normal(size=(25, 32, 128)))),
        ("bmm", (rng.normal(size=(800, 32)), _packed(rng.normal(size=(32, 128))))),
        ("softmax", (rng.normal(size=(25, 4, 32, 32)),)),
        ("layer_norm", (x, x[0, 0], x[1, 1], 1e-5)),
        ("gelu", (x,)),
    ]
    with _kernel._parts(1):
        expected = [getattr(ops, name)(*args) for name, args in cases]
    wrong, errors = [], []

    def caller():
        try:
            for _ in range(20):
                for (name, args), e in zip(cases, expected):
                    if not _kernel._same_bits([getattr(ops, name)(*args)], [e]):
                        wrong.append(name)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _kernel._parts(2):
            threads = [threading.Thread(target=caller) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not wrong


def test_each_thread_packs_into_its_own_buffer():
    # kᵀ's columns are not adjacent: the two threads pack different
    # products' b side by side, so a shared buffer would mix them now and then
    ops = native_ops()
    q, k = np.random.default_rng(15).normal(size=(2, 25, 32, 4, 8)).transpose(0, 1, 3, 2, 4)
    kt = np.swapaxes(k, -1, -2)
    with _kernel._parts(1):
        expected = ops.bmm(q, kt)
    with _kernel._parts(2):
        wrong = sum(not np.array_equal(ops.bmm(q, kt), expected) for _ in range(2000))
    assert wrong == 0


FORK = """
import os, sys, time
import numpy as np
from tinytraj import _kernel, autodiff as ad
rng = np.random.default_rng(14)
a, b = rng.normal(size=(25, 32, 32)), rng.normal(size=(25, 32, 128))
with _kernel._parts(2):
    expected = ad._bmm(a, b)  # the worker starts
    pid = os.fork()
    if pid == 0:  # the worker thread is not in the child: a split pass must still end
        os._exit(0 if np.array_equal(ad._bmm(a, b), expected) else 3)
deadline = time.monotonic() + 30
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.01)
os.kill(pid, 9)
sys.exit("the child's split pass did not end")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_fork_child_finishes_a_split_pass_and_the_worker_never_delays_exit():
    native_ops()
    env = {**os.environ, "PYTHONPATH": str(Path(_kernel.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", FORK], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_an_idle_worker_burns_no_cpu_and_python_sees_no_thread():
    ops = native_ops()
    threads = threading.active_count()
    with _kernel._parts(2):
        split_pass(ops)  # the worker spins for a moment, then sleeps
    assert threading.active_count() == threads
    before = time.process_time()  # every thread of the process
    time.sleep(0.5)
    assert time.process_time() - before < 0.05


def test_the_worker_blocks_every_signal():
    ops = native_ops()
    with _kernel._parts(2):
        split_pass(ops)
    tasks = Path("/proc/self/task")
    if not tasks.is_dir():
        pytest.skip("no /proc to read a thread's signal mask from")
    masks = [
        int(line.split()[1], 16)
        for task in tasks.iterdir()
        if (task / "comm").read_text().strip() == "tinytraj-split"
        for line in (task / "status").read_text().splitlines()
        if line.startswith("SigBlk:")
    ]
    assert masks  # one worker per loaded copy of the library
    for mask in masks:
        for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP, signal.SIGUSR1, signal.SIGCHLD,
                    signal.SIGALRM, signal.SIGPIPE):
            assert mask >> (sig - 1) & 1, signal.Signals(sig).name


def _wrong_when_cut(name):
    # the numpy body, but one output entry off by an ulp when the pass's
    # work reaches the threshold: a cut that goes wrong only where a cut is made
    threshold = ctypes.c_long.in_dll(_kernel._library(), "tinytraj_split_work").value
    body = getattr(ad._NUMPY, name)

    def op(*args):
        out = body(*args)
        first = out[0] if isinstance(out, tuple) else out
        work = np.size(args[0])  # elements; multiply-adds of a contraction
        work *= args[1].shape[-1] if name == "bmm" else 1
        if work >= threshold:
            first.flat[-1] = np.nextafter(first.flat[-1], np.inf)
        return out

    return ad._NUMPY._replace(**{name: op})


@pytest.mark.parametrize("name", SPLIT_OPS)
def test_self_check_reaches_the_cut_of_every_op(name):
    native_ops()
    assert not _kernel.agrees_with_numpy(_wrong_when_cut(name))
