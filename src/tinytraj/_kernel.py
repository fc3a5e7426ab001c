"""Build, cache and load ``_kernel.c``, the compiled contraction behind
``autodiff._bmm``.

The source is compiled with the C compiler Python was built with
(``sysconfig``'s ``CC``) into ``$XDG_CACHE_HOME/tinytraj`` (default
``~/.cache/tinytraj``), under a name keyed by the source, the flags and the
compiler's version, and loaded with ``ctypes``.  A loaded kernel is used only
if it gives the numpy loop's bits on a short check; otherwise, or when there
is no compiler, ``load`` returns None and ``_bmm`` runs the numpy loop.

The C side reads ``a`` through its strides, so the transposed operands of the
backward pass are not copied; ``b``, usually a small weight, is made
C-contiguous.  ``tinytraj_bmm`` runs the AVX2 tile on CPUs that have it and
the baseline tile otherwise; ``native("tinytraj_bmm_baseline")`` gives the
baseline on any CPU, for the tests.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import ShapeMismatchError, _bmm_numpy

Contraction = Callable[[np.ndarray, np.ndarray], np.ndarray]

SOURCE = Path(__file__).with_name("_kernel.c")
# no -ffast-math, -Ofast or -march: each term stays one rounded multiply and
# one rounded add, in _bmm_numpy's order
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


def compile_kernel() -> Path:
    """The shared library built from ``_kernel.c``, compiled into the user
    cache unless a build of the same source, flags and compiler is there."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    # -v names the compiler's version and target
    about = subprocess.run(cc + ["-v"], capture_output=True, text=True, check=True, timeout=60)
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join([*cc, *FLAGS, about.stdout, about.stderr]).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "tinytraj"
    lib = cache / f"kernel-{key.hexdigest()[:16]}.so"
    if not lib.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            cmd = cc + [*FLAGS, "-o", tmp, str(SOURCE)]
            subprocess.run(cmd, capture_output=True, check=True, timeout=120)
            os.replace(tmp, lib)  # atomic: a concurrent loader sees all of it or nothing
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def contraction(fn: Callable) -> Contraction:
    """``_bmm`` on the C function ``fn``, contracting [L, m, k] @ [L, k, n]
    after broadcasting the operands.  ``a`` is passed with its element
    strides, so a transposed or sliced view is read in place; it is copied
    only when its leading axes do not fold into one stride.  ``b`` and the
    output are C-contiguous."""

    def bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise ShapeMismatchError(f"_bmm: cannot multiply {a.shape} by {b.shape}")
        lead, (m, k), n = a.shape[:-2], a.shape[-2:], b.shape[-1]
        if b.shape[:-2] != lead:  # broadcasting costs microseconds; skip it when it is a no-op
            lead = np.broadcast_shapes(lead, b.shape[:-2])
            a, b = np.broadcast_to(a, lead + (m, k)), np.broadcast_to(b, lead + (k, n))
        batch = math.prod(lead)
        # reshape is a view wherever the leading axes fold into one stride
        a = np.asarray(a, dtype=np.float64).reshape(batch, m, k)
        s0, s1, s2 = a.strides
        if (s0 | s1 | s2) % 8 or not a.flags.aligned:  # strides that are not whole elements
            a = np.ascontiguousarray(a)
            s0, s1, s2 = a.strides
        b = np.ascontiguousarray(b, dtype=np.float64)
        out = np.empty(lead + (m, n), dtype=np.float64)
        fn(a.ctypes.data, s0 // 8, s1 // 8, s2 // 8, b.ctypes.data, out.ctypes.data, batch, m, k, n)
        return out

    return bmm


def bits(x: np.ndarray) -> np.ndarray:
    """int64 bit patterns with every NaN made one: a NaN's sign and payload
    are not part of the contraction rule."""
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


def agrees_with_numpy(bmm: Contraction) -> bool:
    """Whether ``bmm`` gives ``_bmm_numpy``'s bits on ±0, a subnormal, ±inf,
    NaN and ordinary values; with a broadcast leading axis (stride 0), a
    transposed and a sliced operand; on 9 x 13 @ 13 x 19 products, which fill
    two tiles each way and leave a row and a column tail; and at k = 0."""
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1e308, -1.0 / 3.0, 2.5])
    a, b = rng.choice(special, (2, 3, 5)), rng.choice(special, (5, 9))
    x, y = rng.normal(size=(9, 26)), rng.normal(size=(13, 19))
    cases = [
        (special[:, None], special[None, :]),  # k = 1: every pair, -0.0 products too
        (a, b),
        (np.swapaxes(b, 0, 1), np.swapaxes(a, 1, 2)),
        (rng.choice(special, (9, 13)), rng.choice(special, (13, 19))),
        # a fused multiply-add or another order rounds these differently
        (x[:, :13], y),
        (np.ascontiguousarray(x[:, :13].T).T, y),  # a transposed a
        (x[:, ::2], y),  # a column stride of 2
        (np.broadcast_to(x[:, 1:14], (2, 9, 13)), np.stack([y, -y])),  # a batch stride of 0
        (np.full((9, 3), -0.0), np.abs(y[:3])),  # -0.0 terms: +0.0 + -0.0 is +0.0
        (x[:, :0], y[:0]),  # k = 0: every element is the +0.0 it starts from
    ]
    with np.errstate(all="ignore"):
        return all(np.array_equal(bits(bmm(p, q)), bits(_bmm_numpy(p, q))) for p, q in cases)


def native(symbol: str = "tinytraj_bmm") -> Contraction:
    """The contraction on the C function ``symbol`` of the compiled kernel:
    ``tinytraj_bmm`` picks the fastest body this CPU runs,
    ``tinytraj_bmm_baseline`` is the body for the baseline target."""
    fn = getattr(ctypes.CDLL(str(compile_kernel())), symbol)
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    # a and its three strides, b, out, batch, m, k, n
    fn.argtypes = [ptr, size, size, size, ptr, ptr, size, size, size, size]
    fn.restype = None
    return contraction(fn)


def load() -> Contraction | None:
    """The compiled contraction, or None when it cannot be built or loaded
    or does not agree with ``_bmm_numpy``."""
    try:
        bmm = native()
    # RuntimeError: Path.home() when the home directory cannot be resolved
    except (OSError, RuntimeError, subprocess.SubprocessError, AttributeError):
        return None
    return bmm if agrees_with_numpy(bmm) else None
