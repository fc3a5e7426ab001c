"""The GELU's ``erf`` against ``scipy.special.erf``, whose bits it keeps.

``autodiff._erf_of_scaled`` (the numpy body) and the compiled GELU pass
compute ``erf(x / sqrt 2)`` by cephes' algorithm, the one scipy runs, with
libm's ``exp``.  A table recorded from scipy 1.17.1 pins the bits without
scipy; where scipy is importable, it is the oracle on a million inputs that
cover every branch edge.
"""

from __future__ import annotations

import math
import subprocess

import numpy as np
import pytest

from tinytraj import _kernel
from tinytraj import autodiff as ad

# (x.hex(), erf(x / sqrt 2).hex()) from scipy.special.erf 1.17.1: ±0,
# subnormals, ordinary values, x / sqrt 2 just below, at and above 1, 8 and
# the MAXLOG cut (26.64), huge values, ±inf and NaN
ERF_TABLE = [
    ("0x0.0p+0", "0x0.0p+0"),
    ("-0x0.0p+0", "-0x0.0p+0"),
    ("0x0.0000000000001p-1022", "0x0.0000000000001p-1022"),
    ("-0x0.0000000000001p-1022", "-0x0.0000000000001p-1022"),
    ("0x1.0000000000000p-1022", "0x0.cc42299ea1b28p-1022"),
    ("-0x0.012688b70e62bp-1022", "-0x0.00eb011101102p-1022"),
    ("0x1.87e92154ef7acp-665", "0x1.38b31061767fap-665"),
    ("0x1.5798ee2308c3ap-27", "0x1.1226ab0db7918p-27"),
    ("-0x1.f75104d551d69p-16", "-0x1.9196a490152d6p-16"),
    ("0x1.999999999999ap-4", "0x1.464507526870fp-4"),
    ("-0x1.0000000000000p-2", "-0x1.944d158b76b61p-3"),
    ("0x1.0000000000000p-1", "0x1.881d788cab1dap-2"),
    ("0x1.8000000000000p-1", "0x1.17eeffd4a62d8p-1"),
    ("-0x1.0000000000000p+0", "-0x1.5d897a241a6fap-1"),
    ("0x1.4000000000000p+0", "0x1.93d08bb5158f5p-1"),
    ("0x1.6a09e667f3bccp+0", "0x1.af767a741088ap-1"),
    ("0x1.6a09e667f3bcdp+0", "0x1.af767a741088ap-1"),
    ("0x1.6a09e667f3bcep+0", "0x1.af767a741088cp-1"),
    ("-0x1.6a09e667f3bcdp+0", "-0x1.af767a741088ap-1"),
    ("-0x1.6a09e667f3bcep+0", "-0x1.af767a741088cp-1"),
    ("0x1.6a09e667f3bccp+3", "0x1.0000000000000p+0"),
    ("0x1.6a09e667f3bcdp+3", "0x1.0000000000000p+0"),
    ("0x1.6a09e667f3bcep+3", "0x1.0000000000000p+0"),
    ("-0x1.6a09e667f3bcdp+3", "-0x1.0000000000000p+0"),
    ("-0x1.6a09e667f3bcep+3", "-0x1.0000000000000p+0"),
    ("0x1.2d6abe44afc42p+5", "0x1.0000000000000p+0"),
    ("0x1.2d6abe44afc43p+5", "0x1.0000000000000p+0"),
    ("0x1.2d6abe44afc44p+5", "0x1.0000000000000p+0"),
    ("-0x1.2d6abe44afc43p+5", "-0x1.0000000000000p+0"),
    ("-0x1.2d6abe44afc44p+5", "-0x1.0000000000000p+0"),
    ("0x1.8000000000000p+0", "0x1.bb96e49da6e04p-1"),
    ("-0x1.0000000000000p+1", "-0x1.e8b4307d3627ap-1"),
    ("0x1.4000000000000p+1", "0x1.f9a42c6a06d8cp-1"),
    ("0x1.8000000000000p+1", "0x1.fe9e21e067a4ap-1"),
    ("-0x1.c000000000000p+1", "-0x1.ffc30486da910p-1"),
    ("0x1.0000000000000p+2", "0x1.fff7b294355a8p-1"),
    ("0x1.4000000000000p+2", "0x1.ffffecc35d0dfp-1"),
    ("-0x1.8000000000000p+2", "-0x1.ffffffef0cf11p-1"),
    ("0x1.c000000000000p+2", "0x1.fffffffffa5f1p-1"),
    ("0x1.0000000000000p+3", "0x1.ffffffffffff5p-1"),
    ("0x1.1000000000000p+3", "0x1.0000000000000p+0"),
    ("-0x1.2000000000000p+3", "-0x1.0000000000000p+0"),
    ("0x1.4000000000000p+3", "0x1.0000000000000p+0"),
    ("0x1.6000000000000p+3", "0x1.0000000000000p+0"),
    ("0x1.8000000000000p+3", "0x1.0000000000000p+0"),
    ("0x1.e000000000000p+3", "0x1.0000000000000p+0"),
    ("-0x1.4000000000000p+4", "-0x1.0000000000000p+0"),
    ("0x1.e000000000000p+4", "0x1.0000000000000p+0"),
    ("0x1.2800000000000p+5", "0x1.0000000000000p+0"),
    ("0x1.3000000000000p+5", "0x1.0000000000000p+0"),
    ("0x1.9000000000000p+6", "0x1.0000000000000p+0"),
    ("-0x1.2a05f20000000p+33", "-0x1.0000000000000p+0"),
    ("0x1.7e43c8800759cp+996", "0x1.0000000000000p+0"),
    ("-0x1.fffffffffffffp+1023", "-0x1.0000000000000p+0"),
    ("inf", "0x1.0000000000000p+0"),
    ("-inf", "-0x1.0000000000000p+0"),
    ("nan", "nan"),
    ("0x1.921fb54442d18p+1", "0x1.ff23c1f0934b3p-1"),
    ("-0x1.5bf0a8b145769p+1", "-0x1.fca3e162c0950p-1"),
    ("0x1.5956b87528a49p-1", "0x1.fffffffffffffp-2"),
    ("0x1.6b851eb851eb8p+0", "0x1.b05430a5bdbb0p-1"),
    ("-0x1.ccccccccccccdp+0", "-0x1.db351519e68b1p-1"),
    ("0x1.0666666666666p+3", "0x1.ffffffffffffep-1"),
    ("0x1.0cccccccccccdp+3", "0x1.0000000000000p+0"),
]
TABLE_X = np.array([float.fromhex(x) for x, _ in ERF_TABLE])
TABLE_ERF = np.array([float.fromhex(e) for _, e in ERF_TABLE])


def bits(x: np.ndarray) -> np.ndarray:  # int64 patterns, one pattern for every NaN
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


@pytest.fixture(params=["numpy", "native"])
def gelu_ops(request) -> ad.Ops:
    if request.param == "numpy":
        return ad._NUMPY
    try:  # not through load(): a wrong erf must fail here, not fall back to numpy
        return _kernel.native()
    except (OSError, RuntimeError, subprocess.SubprocessError):
        pytest.skip("no C compiler on this host")


def assert_gelu_keeps_erf_bits(ops: ad.Ops, x: np.ndarray, erf: np.ndarray) -> None:
    """``ops.gelu`` gives cdf = 0.5 * (1.0 + erf) and y = x * cdf for this
    erf of x / sqrt 2, with and without keeping cdf."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0.0, signaling NaNs, x * x
        cdf = 0.5 * (1.0 + erf)
        y = x * cdf
        got_y, got_cdf = ops.gelu(x)
        assert np.shape(got_y) == got_cdf.shape == x.shape
        assert ops.gelu_vjp(np.ones_like(x), x, got_cdf).shape == x.shape
        assert np.array_equal(bits(got_cdf), bits(cdf))
        assert np.array_equal(bits(got_y), bits(y))
        assert np.array_equal(bits(ops.gelu(x, False)[0]), bits(y))


def test_erf_gives_the_recorded_scipy_bits():
    assert len(ERF_TABLE) == 64
    assert np.array_equal(bits(ad._erf_of_scaled(TABLE_X)), bits(TABLE_ERF))


def test_gelu_keeps_the_recorded_erf_bits(gelu_ops, monkeypatch):
    assert_gelu_keeps_erf_bits(gelu_ops, TABLE_X, TABLE_ERF)
    # a 0-d input keeps its shape, through the op and its VJP, as ad.sin does
    for x, erf in zip(TABLE_X[::8], TABLE_ERF[::8]):
        assert_gelu_keeps_erf_bits(gelu_ops, np.array(x), np.array(erf))
    monkeypatch.setattr(ad, "_ops", gelu_ops)
    tape = ad.Tape()
    x = tape.watch(ad.Tensor(1.0, requires_grad=True))
    y = ad.gelu(x)
    ad.backward(y)
    assert y.shape == x.grad.shape == ad.gelu(ad.Tensor(1.0)).shape == ()


def test_the_table_is_scipys():
    special = pytest.importorskip("scipy.special")
    assert np.array_equal(bits(special.erf(TABLE_X / math.sqrt(2.0))), bits(TABLE_ERF))


@pytest.fixture(scope="module")
def million():
    """1,040,000 inputs and scipy's erf of each over sqrt 2: ±2,000 ulps
    around every x whose x / sqrt 2 is 1, 8 or the MAXLOG cut; ±0, ±inf, NaN
    and subnormals; ordinary values at the scales a GELU sees and past the
    cut; and random bit patterns."""
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(17)
    steps = np.arange(-2000, 2000)
    edges = []
    for t in (1.0, 8.0, math.sqrt(ad._MAXLOG)):
        x = t * math.sqrt(2.0)
        edges += [x + steps * np.spacing(x), -x - steps * np.spacing(x)]
    special_values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308])
    tiny = rng.integers(-(2**52), 2**52, 20_000 - special_values.size).view(np.float64)
    patterns = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    x = np.concatenate(
        [
            *edges,
            special_values,
            tiny,
            rng.normal(size=400_000) * 2.0,
            rng.uniform(-60.0, 60.0, 396_000),
            patterns,
        ]
    )
    assert x.size >= 10**6
    with np.errstate(invalid="ignore"):  # signaling NaNs among the bit patterns
        return x, special.erf(x / math.sqrt(2.0))


def test_erf_gives_scipys_bits_on_a_million_inputs(million):
    x, erf = million
    with np.errstate(invalid="ignore"):
        assert np.array_equal(bits(ad._erf_of_scaled(x)), bits(erf))


def test_gelu_keeps_scipys_erf_bits_on_a_million_inputs(gelu_ops, million):
    assert_gelu_keeps_erf_bits(gelu_ops, *million)
