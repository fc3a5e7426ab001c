"""The compiled contraction kernel behind ``autodiff._bmm``.

The numpy rank-1 loop ``_bmm_numpy`` is the oracle: the compiled kernel,
both the entry point this CPU dispatches to and the baseline body, must give
its bits (int64 patterns; a NaN's sign and payload aside, which
numpy's own loop sets differently for different row lengths), and when the
kernel cannot be built or loaded, ``_bmm`` runs the numpy loop instead.
"""

from __future__ import annotations

import subprocess
import sysconfig
import tracemalloc

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


def native_kernel(symbol="tinytraj_bmm"):
    if ad.KERNEL != "native":
        pytest.skip("no compiled kernel on this host")
    return ad._contract if symbol == "tinytraj_bmm" else _kernel.native(symbol)


def _layout(draw, x):
    # C order, transposed, or every other row of a twice-as-tall array
    layout = draw(st.sampled_from(["c", "transposed", "sliced"]))
    if layout == "transposed":
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(x, -1, -2)), -1, -2)
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


# the dispatched entry point, and the baseline body it runs on a CPU without
# AVX2, so that an AVX2 host tests both
test_native_kernel_gives_the_numpy_loops_bits = gives_the_numpy_loops_bits("tinytraj_bmm")
test_baseline_kernel_gives_the_numpy_loops_bits = gives_the_numpy_loops_bits(
    "tinytraj_bmm_baseline"
)


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


def test_self_check_catches_another_summation_order():
    assert _kernel.agrees_with_numpy(ad._bmm_numpy)
    reversed_order = lambda a, b: ad._bmm_numpy(a[..., ::-1], b[..., ::-1, :])  # noqa: E731
    assert not _kernel.agrees_with_numpy(reversed_order)
    assert not _kernel.agrees_with_numpy(_minus_zero_start)


@pytest.mark.parametrize("mr", [2, 4])  # rows in a tile: the baseline and the AVX2 body
@pytest.mark.parametrize("mutation", [_minus_zero_start, _last_two_terms_swapped])
def test_self_check_reaches_the_tiles(mr, mutation):
    # a kernel whose whole mr x 8 tiles are wrong and whose row and column
    # tails are right must not pass the check
    def tile_mutant(a, b):
        out = ad._bmm_numpy(a, b)
        m, n = out.shape[-2:]
        rows, cols = m - m % mr, n - n % 8
        out[..., :rows, :cols] = mutation(a[..., :rows, :], b[..., :cols])
        return out

    assert not _kernel.agrees_with_numpy(tile_mutant)


def _forward_bits():
    cfg = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=2, max_seq=12)
    params = tm.init_params(cfg, np.random.default_rng(7))
    x = np.random.default_rng(8).normal(0.0, 1.0, (3, 12, 7))
    return bits(tm.forward_features(x, params, cfg, lengths=[12, 5, 9]).data)


def _compile_fails():
    raise subprocess.CalledProcessError(1, ["cc"])


@pytest.mark.parametrize(
    "break_step",
    [
        lambda mp: mp.setattr(_kernel, "compile_kernel", _compile_fails),
        lambda mp: mp.setattr(sysconfig, "get_config_var", lambda name: "/nonexistent/cc"),
        lambda mp: mp.setattr(_kernel, "agrees_with_numpy", lambda bmm: False),
    ],
    ids=["compile_fails", "no_compiler", "self_check_fails"],
)
def test_without_a_usable_kernel_bmm_falls_back_to_numpy_with_the_same_bits(
    monkeypatch, break_step
):
    before = _forward_bits()  # on whichever kernel this host runs
    monkeypatch.setattr(ad, "_contract", None)  # choose again on the next call
    break_step(monkeypatch)
    after = _forward_bits()
    assert ad.KERNEL == "numpy" and ad._contract is ad._bmm_numpy
    np.testing.assert_array_equal(after, before)


def test_kernel_is_reported_and_cached(tmp_path, monkeypatch):
    native_kernel()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(ad, "_contract", None)
    assert ad.KERNEL == "native"
    (lib,) = (tmp_path / "tinytraj").iterdir()  # no temp file left behind
    built = lib.stat().st_mtime_ns
    monkeypatch.setattr(ad, "_contract", None)
    assert _kernel.compile_kernel() == lib and lib.stat().st_mtime_ns == built
    with pytest.raises(AttributeError):
        ad.NO_SUCH_NAME  # noqa: B018
