"""Build, cache and load ``_kernel.c``, the compiled kernel behind
``autodiff``: the contraction of ``_bmm`` and the row-wise passes of
``softmax_rows``, ``layer_norm``, the per-sequence gradient sums, GELU and
its gradient; and behind ``data``'s JSONL reader, its chunk parser.

The source is compiled with the C compiler Python was built with
(``sysconfig``'s ``CC``) into ``$XDG_CACHE_HOME/tinytraj`` (default
``~/.cache/tinytraj``), under a name keyed by the source, the flags and the
compiler's version (asked once per process), and loaded with ``ctypes``.
``load`` returns an ``autodiff.Ops`` of the compiled entry points only if
every one of them gives its numpy body's bits on a short check; otherwise,
or when there is no compiler, it returns None and every op runs numpy.

The C side reads both operands through their strides, over two leading axes
(batch and heads) and the row and column, so the transposed operands of the
backward pass, attention's split heads and ``kᵀ`` are not copied; a ``b``
whose columns are not adjacent is packed into a ``k x n`` buffer, one
product at a time.  ``tinytraj_bmm`` runs the widest tile the CPU has:
AVX-512 (8 x 8), AVX2 (4 x 8) or the baseline (2 x 8); ``bodies()`` lists
those this CPU runs, and ``native(f"tinytraj_bmm_{body}")`` runs one of
them, for the tests.  The row ops check shapes and make every array
C-contiguous float64 before a pointer is passed; ``np.exp`` stays numpy's,
between C passes.  The GELU forward is one C pass that computes ``erf``
itself, by scipy's algorithm and with libm's ``exp``, so it gives
``scipy.special.erf``'s bits without scipy (it is linked with ``-lm``).

Every compiled pass but the per-sequence sums whose work reaches the
kernel's threshold is shared, inside the C call, by the calling thread and
the kernel's own worker thread (built with ``-pthread``) when the process
may run on 2 or more CPUs (``parts()``): each takes chunks of the pass until
none is left.  A cut never crosses an element's chain, so the bits do not
depend on the thread count; Python sees no thread, and a second thread
calling in while the worker is busy runs its pass whole.  The contraction
gets a packing buffer for each thread.  ``_parts`` forces 1 or 2 threads,
for the tests.

Per call on a shared 2-vCPU x86-64 host (best of 5; numpy body → compiled):
softmax of causal ``[25, 4, 32, 32]`` scores 1.35–1.42 → 0.46–0.47 ms, its VJP
0.56–0.62 → 0.17 ms; layer norm of ``[25, 32, 32]`` 0.25–0.27 → 0.09 ms, its
``dx`` 0.28–0.29 → 0.07 ms; the GELU VJP of ``[25, 32, 128]`` 1.33–1.50 →
0.45–0.46 ms, its forward (best of 7) 5.0–7.1 → 1.27–1.78 ms keeping ``cdf``
and 5.2–7.2 → 0.77–1.04 ms without (the numpy body calls libm's ``exp`` once
per entry past 1; a C pass around scipy's ``erf`` took 1.90–1.96 and
1.41–1.46 ms); the output head ``(800, 32) @ (32, 3)`` 93 → 39–41 µs with its
narrow tile.  With the AVX-512 body, one thread → two (best of 9 × 100
calls, wrapper included): ``(800, 32) @ (32, 128)`` 151–154 → 85–87 µs,
q·kᵀ ``[25, 4, 32, 8] @ [25, 4, 8, 32]`` 70–71 → 54–55 µs, the GELU
forward of ``[25, 32, 128]`` keeping ``cdf`` 1,173–1,189 → 823–984 µs, the
softmax VJP of causal ``[25, 4, 32, 32]`` scores 118–122 → 46–53 µs; on
one thread the AVX2 body takes ``(800, 32) @ (32, 128)`` in 214–221 µs.
Inside a training step the shared passes gain less (about 1.3×): their
inputs were mostly written on the other core.

``load_parser`` returns the reader's chunk parser, ``tinytraj_parse_chunk``
on the same library, only if it takes and declines the lines of
``PARSE_CASES`` as it must and gives ``json.loads``'s ids and bits for those
it takes; else None, and the reader reads every line by the per-line path,
``json.loads`` and ``data.trajectory_from_record``.  It checks no op, so
reading a JSONL file never runs the ops' check.  One call parses a reader
chunk (16 lines): the lines of the plain shape, ``{"id": <string>,
"points": [[lat, lon, t], ...]}`` with at least two points, go into
float64/float64/int64 columns; every other line is declined (see
``_kernel.c``) and takes the per-line path.  On a shared 2-vCPU x86-64 host
a chunk of the ``ingest`` benchmark's file (16 lines of 4 to 64 points)
takes 174–202 µs per call, wrapper included, 156–166 µs of it in C (best of
5 × 5 passes over the file's 122 chunks).  It reads no byte past the lines
it is given.

``reusing_memory`` is the scope ``training.train`` runs its epochs in: inside
it numpy allocates array data with the kernel's allocator, a version-1
``PyDataMem_Handler`` named ``tinytraj``.  Freed blocks of 4 KB or more wait
in one LIFO list per exact size, under a mutex, for the next block of that
size (a reused block is zeroed for ``np.zeros``), up to 64 MB in all; each
block keeps its own size in a 16-byte header, so numpy's idea of it does
not matter.  Every waiting block is freed when the scope ends, and a block
freed after it goes straight back to ``free``.  Without it glibc gives each
step's large temporaries back to the system and faults them in again on the
next step.  The handler is wrapped in a capsule named ``mem_handler`` and
installed with ``PyDataMem_SetHandler``, slot 304 of numpy's ``_ARRAY_API``
table, called through ``ctypes.PYFUNCTYPE`` so the GIL stays held; numpy
keeps the handler per ``contextvars`` context, so the scope covers the
calling thread only and is undone on every way out.  It is used only if an
array made with it set reports its name, and never when the ops run numpy.
No bit moves: the allocator only decides where values live.  On a shared
2-vCPU x86-64 host a warm 100-step ``train`` benchmark round went from
79,614–125,454 minor faults and 209–354 ms of system CPU to 54–2,526 faults
and 16–45 ms (three rounds in each of two processes per side).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import json
import math
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import autodiff
from .autodiff import (
    _INV_SQRT_2PI,
    _NUMPY,
    Ops,
    ShapeMismatchError,
    _bmm_numpy,
    _gelu_numpy,
    _gelu_vjp_numpy,
    _layer_norm_dx_numpy,
    _layer_norm_numpy,
    _seq_sums_numpy,
    _softmax_numpy,
    _softmax_vjp_numpy,
)

Contraction = Callable[[np.ndarray, np.ndarray], np.ndarray]

SOURCE = Path(__file__).with_name("_kernel.c")
# no -ffast-math, -Ofast or -march: each term stays one rounded multiply and
# one rounded add, in _bmm_numpy's order
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")
LIBS = ("-lm",)  # the GELU's erf calls libm's exp


@functools.cache
def _about(cc: tuple[str, ...]) -> tuple[str, str]:
    # what ``cc -v`` prints, the compiler's version and target: asked once
    # per process and compiler command, not at every library load
    about = subprocess.run([*cc, "-v"], capture_output=True, text=True, check=True, timeout=60)
    return about.stdout, about.stderr


def compile_kernel() -> Path:
    """The shared library built from ``_kernel.c``, compiled into the user
    cache unless a build of the same source, flags and compiler is there."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join([*cc, *FLAGS, *LIBS, *_about(tuple(cc))]).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "tinytraj"
    lib = cache / f"kernel-{key.hexdigest()[:16]}.so"
    if not lib.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            cmd = cc + [*FLAGS, "-o", tmp, str(SOURCE), *LIBS]
            subprocess.run(cmd, capture_output=True, check=True, timeout=120)
            os.replace(tmp, lib)  # atomic: a concurrent loader sees all of it or nothing
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def _four_axes(x: np.ndarray, lead: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """``x`` and its element strides as [L0, L1, rows, cols], where a missing
    leading axis has length 1.  ``x`` is itself, a view, or, for more than two
    leading axes that do not fold into one stride or strides that are not
    whole elements, a copy."""
    if len(lead) > 2:
        x = x.reshape((1, math.prod(lead)) + x.shape[-2:])
    s = (0, 0, *x.strides)[-4:]
    if (s[0] | s[1] | s[2] | s[3]) % 8 or not x.flags.aligned:
        x = np.ascontiguousarray(x)
        s = (0, 0, *x.strides)[-4:]
    return x, (s[0] // 8, s[1] // 8, s[2] // 8, s[3] // 8)


def contraction(fn: Callable) -> Contraction:
    """``_bmm`` on the C function ``fn``, contracting [..., m, k] @ [..., k, n]
    after broadcasting the operands.  Both are passed with their element
    strides over two leading axes, so a transposed, sliced or broadcast view
    is read in place; the output is C-contiguous."""

    def bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise ShapeMismatchError(f"_bmm: cannot multiply {a.shape} by {b.shape}")
        lead, (m, k), n = a.shape[:-2], a.shape[-2:], b.shape[-1]
        if b.shape[:-2] != lead:  # broadcasting costs microseconds; skip it when it is a no-op
            lead = np.broadcast_shapes(lead, b.shape[:-2])
            a, b = np.broadcast_to(a, lead + (m, k)), np.broadcast_to(b, lead + (k, n))
        a, a_strides = _four_axes(np.asarray(a, dtype=np.float64), lead)
        b, b_strides = _four_axes(np.asarray(b, dtype=np.float64), lead)
        # where b's columns are not adjacent, each thread packs one product's b
        # at a time into its half of this
        pack = None if b_strides[3] == 1 else np.empty(2 * k * n)
        out = np.empty(lead + (m, n), dtype=np.float64)
        l0, l1 = (1, 1, *a.shape[:-2])[-2:]
        fn(
            a.ctypes.data, *a_strides, b.ctypes.data, *b_strides,
            None if pack is None else pack.ctypes.data, out.ctypes.data, l0, l1, m, k, n,
        )
        return out

    return bmm


def _c(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64, order="C")  # a 0-d array stays 0-d


def _same_shape(op: str, *arrays: np.ndarray) -> None:
    if any(x.shape != arrays[0].shape for x in arrays):
        raise ShapeMismatchError(f"{op}: shapes {[x.shape for x in arrays]} differ")


def row_ops(lib: ctypes.CDLL) -> dict[str, Callable]:
    """The row-wise ops of ``Ops`` on the C functions of ``lib``.  Shapes are
    checked and every array is made C-contiguous float64 before a pointer is
    passed; a shape the C side does not cover (an empty row, no sequence)
    runs the numpy body."""
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    shift, scale, softmax_vjp_c, layer_norm_c, layer_norm_dx_c, seq_sums_c, gelu_c, gelu_vjp_c = (
        getattr(lib, f"tinytraj_{name}")
        for name in (
            "softmax_shift", "softmax_scale", "softmax_vjp", "layer_norm", "layer_norm_dx",
            "seq_sums", "gelu", "gelu_vjp",
        )
    )
    for fn, args in [
        (shift, [ptr, ptr, ptr, size, size]),  # x, y, mx, rows, n
        (scale, [ptr, ptr, ptr, size, size]),  # x, mx, y, rows, n
        (softmax_vjp_c, [ptr, ptr, ptr, size, size]),  # y, g, dx, rows, n
        # x, gain, bias, eps, out, xhat, inv, rows, d
        (layer_norm_c, [ptr, ptr, ptr, ctypes.c_double, ptr, ptr, ptr, size, size]),
        (layer_norm_dx_c, [ptr, ptr, ptr, ptr, ptr, size, size]),  # g, gain, xhat, inv, dx, rows, d
        (seq_sums_c, [ptr, ptr, ptr, size, size, size]),  # g, w or NULL, out, batch, seq, d
        (gelu_c, [ptr, ptr, ptr, size]),  # x, cdf or NULL, y, size
        (gelu_vjp_c, [ptr, ptr, ptr, ptr, ctypes.c_double, ptr, size]),  # g, x, cdf, e, c, dx, size
    ]:
        fn.argtypes, fn.restype = args, None

    def softmax(x: np.ndarray) -> np.ndarray:
        x = _c(x)
        if x.ndim < 1 or x.shape[-1] == 0:
            return _softmax_numpy(x)
        n = x.shape[-1]
        y, mx = np.empty_like(x), np.empty(x.size // n)
        shift(x.ctypes.data, y.ctypes.data, mx.ctypes.data, mx.size, n)
        np.exp(y, out=y)  # never on a -inf: the shift left 0.0 there
        scale(x.ctypes.data, mx.ctypes.data, y.ctypes.data, mx.size, n)
        return y

    def softmax_vjp(y: np.ndarray, g: np.ndarray) -> np.ndarray:
        y, g = _c(y), _c(g)
        _same_shape("softmax_vjp", y, g)
        if y.ndim < 1 or y.shape[-1] == 0:
            return _softmax_vjp_numpy(y, g)
        n = y.shape[-1]
        dx = np.empty_like(y)
        softmax_vjp_c(y.ctypes.data, g.ctypes.data, dx.ctypes.data, y.size // n, n)
        return dx

    def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
        x, gain, bias = _c(x), _c(gain), _c(bias)
        if x.ndim < 1 or x.shape[-1] == 0:
            return _layer_norm_numpy(x, gain, bias, eps)
        d = x.shape[-1]
        if gain.shape != (d,) or bias.shape != (d,):
            raise ShapeMismatchError(f"layer_norm: {x.shape} by gain/bias {gain.shape}/{bias.shape}")
        out, xhat = np.empty_like(x), np.empty_like(x)
        inv = np.empty(x.shape[:-1] + (1,))
        layer_norm_c(
            x.ctypes.data, gain.ctypes.data, bias.ctypes.data, float(eps),
            out.ctypes.data, xhat.ctypes.data, inv.ctypes.data, x.size // d, d,
        )
        return out, xhat, inv

    def layer_norm_dx(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray, inv: np.ndarray):
        g, gain, xhat, inv = _c(g), _c(gain), _c(xhat), _c(inv)
        _same_shape("layer_norm_dx", g, xhat)
        if g.ndim < 1 or g.shape[-1] == 0:
            return _layer_norm_dx_numpy(g, gain, xhat, inv)
        d = g.shape[-1]
        if gain.shape != (d,) or inv.shape != g.shape[:-1] + (1,):
            raise ShapeMismatchError(f"layer_norm_dx: {g.shape} by gain {gain.shape}, inv {inv.shape}")
        dx = np.empty_like(g)
        layer_norm_dx_c(
            g.ctypes.data, gain.ctypes.data, xhat.ctypes.data, inv.ctypes.data, dx.ctypes.data,
            g.size // d, d,
        )
        return dx

    def seq_sums(g: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        if g.ndim != 3:
            raise ShapeMismatchError(f"seq_sums: expected [B, S, d], got {g.shape}")
        if w is not None:
            _same_shape("seq_sums", g, w)
        if g.shape[0] == 0:
            return _seq_sums_numpy(g, w)
        g, w = _c(g), None if w is None else _c(w)
        out = np.empty(g.shape[2])
        seq_sums_c(g.ctypes.data, None if w is None else w.ctypes.data, out.ctypes.data, *g.shape)
        return out

    def gelu(x: np.ndarray, keep_cdf: bool = True):
        x = _c(x)
        y, cdf = np.empty_like(x), np.empty_like(x) if keep_cdf else None
        gelu_c(x.ctypes.data, None if cdf is None else cdf.ctypes.data, y.ctypes.data, x.size)
        return y, cdf

    def gelu_vjp(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
        g, x, cdf = _c(g), _c(x), _c(cdf)
        _same_shape("gelu_vjp", g, x, cdf)
        e = np.multiply(-0.5, x, out=np.empty_like(x))  # an array even when x is 0-d
        e *= x
        np.exp(e, out=e)  # numpy's exp; the C pass then writes dx over it
        gelu_vjp_c(
            g.ctypes.data, x.ctypes.data, cdf.ctypes.data, e.ctypes.data, _INV_SQRT_2PI,
            e.ctypes.data, e.size,
        )
        return e

    return {
        "softmax": softmax,
        "softmax_vjp": softmax_vjp,
        "layer_norm": layer_norm,
        "layer_norm_dx": layer_norm_dx,
        "seq_sums": seq_sums,
        "gelu": gelu,
        "gelu_vjp": gelu_vjp,
    }


def _arrays(results) -> list[np.ndarray]:
    # every array of a list of results, tuples flattened; a None result (a
    # GELU cdf that was not kept) has no array
    out = []
    for r in results:
        out += _arrays(r) if isinstance(r, tuple) else [] if r is None else [np.asarray(r)]
    return out


def _same_bits(got: list, expected: list) -> bool:
    """Whether two lists of results (arrays or tuples of arrays) have the same
    shapes and bits, a NaN's sign and payload aside; no array is copied."""
    got, expected = _arrays(got), _arrays(expected)
    if [g.shape for g in got] != [e.shape for e in expected]:
        return False
    return all(
        np.all((g.view(np.int64) == e.view(np.int64)) | (np.isnan(g) & np.isnan(e)))
        for g, e in zip(got, expected)
    )


SPECIAL = np.array([0.0, -0.0, 5e-324, -1e-310, np.inf, -np.inf, np.nan, 1e308, -1.0 / 3.0, 2.5])


def _row_cases(rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """Two sets of six rows, x and g, for each width 2, 3, 8, 9, 32 and 129
    (the width-9 sets are 4-D): ordinary values over a wide range of scales,
    where another summation order rounds differently; all -0.0; -inf but for
    one finite entry; special values; ±0 and subnormals; a NaN among ordinary
    values."""
    wide = rng.normal(size=(2, 6, 129)) * 2.0 ** rng.integers(-30, 30, size=(2, 6, 129))
    special = rng.choice(SPECIAL, (2, 129))
    tiny = rng.choice([0.0, -0.0, 5e-324, -5e-324], (2, 129))
    cases = []
    for n in (2, 3, 8, 9, 32, 129):
        rows = wide[:, :, :n].copy()
        rows[:, 1] = -0.0
        rows[:, 2] = -np.inf
        rows[:, 2, n // 2] = 1.5
        rows[:, 3], rows[:, 4] = special[:, :n], tiny[:, :n]
        rows[:, 5, n // 3] = np.nan
        if n == 9:
            rows = rows.reshape(2, 1, 2, 3, n)
        cases.append((rows[0], rows[1]))
    return cases


def _cut_cases() -> Iterator[tuple[str, tuple]]:
    """Ops and arguments whose work reaches the split threshold (32,768
    multiply-adds or elements), each cut into 3 or 4 chunks of unequal size:
    3 products of 24 x 20 @ 20 x 25, one product each, and one 45 x 30 @ 30
    x 25 product, in runs of 8, 16, 8 and 13 rows, each with b's columns
    adjacent and packed; 1,025 rows of 33 for the row ops and the GELU's
    33,825 elements.  The per-sequence sums are never cut.  One case at a
    time: they are large enough to raise a process's peak memory if all
    were held at once."""
    # values over 16 binades, where another summation order rounds
    # differently; each array is a slice of one pool, 7,919 values on from
    # the last one's start, wrapping round
    pool = np.random.default_rng(2).normal(size=40_000) * np.exp2(np.arange(40_000) % 16 - 8.0)
    starts = iter(range(0, 10**6, 7919))

    def wide(*shape):
        size = math.prod(shape)
        start = next(starts) % (pool.size - size + 1)
        return pool[start : start + size].reshape(shape)

    def packed(b):
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(b, -1, -2)), -1, -2)

    a3, b3, a1, b1 = wide(3, 24, 20), wide(3, 20, 25), wide(45, 30), wide(30, 25)
    yield "bmm", (a3, b3)
    yield "bmm", (a3, packed(b3))
    yield "bmm", (a1, b1)
    yield "bmm", (a1, packed(b1))
    x, g, gain, bias = wide(1025, 33), wide(1025, 33), wide(33), wide(33)
    yield "softmax", (x,)
    yield "softmax_vjp", (_softmax_numpy(x), g)
    yield "layer_norm", (x, gain, bias, 1e-5)
    yield "layer_norm_dx", (g, gain, *_layer_norm_numpy(x, gain, bias, 1e-5)[1:])
    near = x / 2.0**6  # where erf is neither 1 nor -1
    yield "gelu", (near,)
    yield "gelu", (near, False)
    yield "gelu_vjp", (g, near, _gelu_numpy(near)[1])


def agrees_with_numpy(ops: Ops) -> bool:
    """Whether every op of ``ops`` gives the bits of the numpy body.

    The contraction, against ``_bmm_numpy``: ±0, a subnormal, ±inf, NaN and
    ordinary values; a broadcast leading axis (stride 0), a transposed and a
    sliced ``a``, a transposed and a column-strided ``b``, and two leading
    axes split out of the rows of ``[B, S, H, hd]`` arrays, as attention
    reads them; 9 x 13 @ 13 x 19 products, which fill two tiles each way and
    leave a row and a column tail; 3 and 5 columns, narrower than a tile; and
    k = 0.  The row ops on ``_row_cases``: rows of widths 2, 3, 8, 9, 32 and
    129, 2-D and 4-D, with ±0, all -0.0 rows, -inf rows with one finite
    entry, subnormals and NaN; softmax up to width 32; the GELU forward, with
    and without its ``cdf``, and the per-sequence sums of three sequences at
    every width and, at 129, of ordinary values times a second factor, of
    ordinary values one column wide over 129 positions, and of all -0.0 (each
    sequence's sum starts from +0.0); the GELU gradient at 129.  Last, every
    op but the per-sequence sums on ``_cut_cases``, large enough to be shared
    by two threads where the CPUs allow."""
    rng = np.random.default_rng(0)
    a, b = rng.choice(SPECIAL, (2, 3, 5)), rng.choice(SPECIAL, (5, 9))
    x, y = rng.normal(size=(9, 26)), rng.normal(size=(13, 19))
    more = np.random.default_rng(1)  # its own draws: rng's feed the row cases
    heads, keys = more.normal(size=(2, 9, 3, 13)), more.choice(SPECIAL, (2, 11, 3, 13))
    values = more.normal(size=(2, 3, 3, 11))
    products = [
        (SPECIAL[:, None], SPECIAL[None, :]),  # k = 1: every pair, -0.0 products too
        (a, b),
        (np.swapaxes(b, 0, 1), np.swapaxes(a, 1, 2)),
        (rng.choice(SPECIAL, (9, 13)), rng.choice(SPECIAL, (13, 19))),
        # a fused multiply-add or another order rounds these differently
        (x[:, :13], y),
        (np.ascontiguousarray(x[:, :13].T).T, y),  # a transposed a
        (x[:, ::2], y),  # a column stride of 2
        (np.broadcast_to(x[:, 1:14], (2, 9, 13)), np.stack([y, -y])),  # a batch stride of 0
        (x[:, :13], y[:, :3]),  # narrow tiles
        (x[:, :13].T.reshape(1, 13, 9), rng.choice(SPECIAL, (1, 9, 5))),
        (x[:, :13], y[:, ::2]),  # b's columns 2 apart
        (x[:, :13], np.ascontiguousarray(y.T).T),  # a transposed b
        # [B, H, S, hd] heads of [B, S, H, hd] rows, and k^T: strided leading axes
        (heads.transpose(0, 2, 1, 3), keys.transpose(0, 2, 3, 1)),
        (heads.transpose(0, 2, 1, 3)[:, :, :, :3], values.transpose(0, 2, 1, 3)),
        (np.full((9, 3), -0.0), np.abs(y[:3])),  # -0.0 terms: +0.0 + -0.0 is +0.0
        (np.full((9, 3), -0.0), np.abs(y[:3, :5])),
        (x[:, :0], y[:0]),  # k = 0: every element is the +0.0 it starts from
    ]
    got, expected = [], []
    with np.errstate(all="ignore"):
        for p, q in products:
            got.append(ops.bmm(p, q))
            expected.append(_bmm_numpy(p, q))
        for x, g in _row_cases(rng):
            d = x.shape[-1]
            gain, bias = rng.normal(size=d), rng.choice(SPECIAL, d)
            ln = _layer_norm_numpy(x, gain, bias, 1e-5)
            got += [ops.layer_norm(x, gain, bias, 1e-5), ops.layer_norm_dx(g, gain, *ln[1:])]
            expected += [ln, _layer_norm_dx_numpy(g, gain, *ln[1:])]
            checks = [
                (ops.seq_sums, _seq_sums_numpy, (x.reshape(3, 2, d),)),  # 3 sequences
                (ops.gelu, _gelu_numpy, (x,)),
                (ops.gelu, _gelu_numpy, (x, False)),
            ]
            if d < 129:  # the softmax passes have no path that depends on the width
                # g's all -0.0 row times |x| >= +0.0 is all -0.0: the chain keeps its sign
                checks += [
                    (ops.softmax, _softmax_numpy, (x,)),
                    (ops.softmax_vjp, _softmax_vjp_numpy, (np.abs(x), g)),
                ]
            else:  # once, on every kind of value
                # three sequences of ordinary values, where another fold order rounds
                # differently, times a second factor; then all -0.0
                plain = np.stack([x[0], g[0], gain])[:, None]
                cdf = _gelu_numpy(x)[1]
                checks += [
                    (ops.seq_sums, _seq_sums_numpy, (plain, np.roll(plain, 1, axis=0))),
                    # one column, which numpy's own sum would add pairwise
                    (ops.seq_sums, _seq_sums_numpy, (plain.reshape(3, d, 1),)),
                    (ops.seq_sums, _seq_sums_numpy, (np.full((3, 2, d), -0.0),)),
                    (ops.gelu_vjp, _gelu_vjp_numpy, (g, x, cdf)),
                ]
            for op, oracle, args in checks:
                got.append(op(*args))
                expected.append(oracle(*args))
        return _same_bits(got, expected) and all(
            _same_bits([getattr(ops, name)(*args)], [getattr(_NUMPY, name)(*args)])
            for name, args in _cut_cases()
        )


def _library() -> ctypes.CDLL:
    # one copy per built file: every handle shares the library's worker
    return ctypes.CDLL(str(compile_kernel()))


def bodies() -> list[str]:
    """The contraction bodies this CPU runs, fastest first: ``avx512``,
    ``avx2`` and ``baseline``, as far as the CPU has them.  ``native`` runs
    the first; ``native(f"tinytraj_bmm_{body}")`` runs any of them."""
    fn = _library().tinytraj_bmm_body
    fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_char_p
    names = []
    while (name := fn(len(names))) is not None:
        names.append(name.decode())
    return names


def parts() -> int:
    """The number of threads that share a compiled pass above the work
    threshold: 2 when this process may run on 2 or more CPUs, else 1."""
    fn = _library().tinytraj_parts
    fn.argtypes, fn.restype = [], ctypes.c_int
    return fn()


@contextlib.contextmanager
def _parts(count: int):
    # the tests' hook: every pass of the block runs on ``count`` (1 or 2)
    # threads, whatever the CPU count; the split never moves a bit
    fn = _library().tinytraj_set_parts
    fn.argtypes, fn.restype = [ctypes.c_int], None
    fn(count)
    try:
        yield
    finally:
        fn(0)


def native(bmm_symbol: str = "tinytraj_bmm") -> Ops:
    """Every op on the compiled kernel, the contraction on the C function
    ``bmm_symbol``: ``tinytraj_bmm`` picks the fastest body this CPU runs,
    ``tinytraj_bmm_<body>`` runs one of ``bodies()``."""
    lib = _library()
    bmm = getattr(lib, bmm_symbol)
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    # a and its four strides, b and its four strides, pack or NULL, out, l0, l1, m, k, n
    bmm.argtypes = [ptr, *[size] * 4, ptr, *[size] * 4, ptr, ptr, *[size] * 5]
    bmm.restype = None
    return Ops(bmm=contraction(bmm), **row_ops(lib))


ChunkParser = Callable[[list[bytes]], tuple[list, tuple[np.ndarray, np.ndarray, np.ndarray]]]


def chunk_parser(lib: ctypes.CDLL) -> ChunkParser:
    """``tinytraj_parse_chunk`` of ``lib`` on a list of lines as the file
    iterator gives them (each ending at its newline, the last perhaps not).
    Returns, per line, ``(id, point count)`` when the pass took it, else
    None, and the points of the lines taken as ``lat``/``lon``/``t`` columns
    (float64, float64, int64; views of buffers sized for the chunk)."""
    fn = lib.tinytraj_parse_chunk
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    # buf, its size, its line count, meta, lat, lon, t, their capacity
    fn.argtypes = [ctypes.c_char_p, size, size, ptr, ptr, ptr, ptr, size]
    fn.restype = size

    def parse(lines: list[bytes]):
        buf = b"".join(lines)
        cap = len(buf) // 8  # a point takes at least 8 bytes: [0,0,0] and a , or ]
        meta = np.empty((len(lines), 3), np.intp)  # point count, id start, id end
        lat, lon, t = np.empty(cap), np.empty(cap), np.empty(cap, np.int64)
        n = fn(
            buf, len(buf), len(lines), meta.ctypes.data,
            lat.ctypes.data, lon.ctypes.data, t.ctypes.data, cap,
        )
        taken = [
            (buf[a:b].decode("ascii"), count) if count else None for count, a, b in meta.tolist()
        ]
        return taken, (lat[:n], lon[:n], t[:n])

    return parse


# the parser's load check: lines it must take, whose ids and bits must be
# json.loads's, and lines it must decline (True / False)
PARSE_CASES = [
    (True, b'{"id": "a", "points": [[-0, -0.0, 0], [1e400, -1e-400, -0], [5e-324, 1E5, 1]]}\n'),
    # 17 significant digits, the longest integers taken, a halfway case
    (True, b'{"id": "b", "points": [[0.30000000000000004, 123456789012345, 999999999999999999],'
           b' [-123456789012345, 9007199254740993.0, -5], [2.2250738585072011e-308, 1.5e-320, 7]]}\n'),
    (True, b'\t{ "points" :[ [ 52.5 ,13.25 , 60 ] ,\r[52.0,13,61]] , "id":"c ~!" }\r\n'),
    (False, b'{"id": "\\u00e9", "points": [[1.0, 2.0, 3], [1.0, 2.0, 4]]}\n'),  # an escape
    (False, '{"id": "\u00e9", "points": [[1.0, 2.0, 3], [1.0, 2.0, 4]]}\n'.encode()),  # non-ASCII
    (False, b'{"id": "\t", "points": [[1.0, 2.0, 3], [1.0, 2.0, 4]]}\n'),  # a raw control byte
    (False, b'{"id": "d", "points": [[NaN, 2.0, 3], [1.0, 2.0, 4]]}\n'),
    (False, b'{"id": "d", "points": [[1.0, 2.0, 1e3], [1.0, 2.0, 4000]]}\n'),  # a float time
    (False, b'{"id": "d", "points": [[1.0, 2.0, 1000000000000000000], [1.0, 2.0, 4]]}\n'),
    (False, b'{"id": "d", "points": [[1234567890123456, 2.0, 3], [1.0, 2.0, 4]]}\n'),
    (False, b'{"id": "d", "points": [[1.0, 2.0, 3]]}\n'),  # one point
    (False, b'{"id": "d", "points": [[1.0, 2.0, 3], [1.0, 2.0, 4]], "x": 0}\n'),  # another key
    (False, b'{"id": "d", "id": "e", "points": [[1.0, 2.0, 3], [1.0, 2.0, 4]]}\n'),
    (False, b'{"id": "d", "points": [[01, 2.0, 3], [1.0, 2.0, 4]]}\n'),
    (False, b'\x0c{"id": "d", "points": [[1.0, 2.0, 3], [1.0, 2.0, 4]]}\n'),  # not JSON whitespace
    (False, b"\n"),
    (True, b'{"id": "", "points": [[1, 2, 3], [4, 5, 6]]}'),  # a last line without a newline
]


def parser_agrees(parse: ChunkParser) -> bool:
    """Whether ``parse`` takes exactly the lines of ``PARSE_CASES`` it must,
    with the ids, point counts and column bits of ``json.loads`` (lat and
    lon as numpy makes float64 of json's ints and floats, t as int64)."""
    must, lines = zip(*PARSE_CASES)
    taken, got = parse(list(lines))
    if [rec is not None for rec in taken] != list(must):
        return False
    records = [json.loads(line) for line, rec in zip(lines, taken) if rec is not None]
    if [rec for rec in taken if rec is not None] != [(r["id"], len(r["points"])) for r in records]:
        return False
    points = [p for r in records for p in r["points"]]
    want = [np.array([p[i] for p in points], np.float64 if i < 2 else np.int64) for i in range(3)]
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def load_parser() -> ChunkParser | None:
    """The compiled chunk parser, or None when the kernel cannot be built or
    loaded or the parser fails ``parser_agrees``: then the reader reads
    every line by the per-line path.  Unlike ``load``, this checks no op."""
    try:
        parse = chunk_parser(_library())
    except (OSError, RuntimeError, subprocess.SubprocessError, AttributeError):
        return None
    return parse if parser_agrees(parse) else None


def load() -> Ops | None:
    """The compiled kernel, or None when it cannot be built or loaded or any
    of its ops does not agree with its numpy body: then every op runs numpy."""
    try:
        ops = native()
    # RuntimeError: Path.home() when the home directory cannot be resolved
    except (OSError, RuntimeError, subprocess.SubprocessError, AttributeError):
        return None
    return ops if agrees_with_numpy(ops) else None


HANDLER_NAME = "tinytraj"  # the allocator's name, as numpy reports it
HANDLER_CAPSULE = b"mem_handler"  # the capsule name numpy requires of a handler
SET_HANDLER_SLOT = 304  # PyDataMem_SetHandler in numpy's _ARRAY_API table (numpy >= 1.22)


def _multiarray():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return _multiarray_umath


@functools.cache
def _allocator() -> tuple[object, Callable, ctypes.CDLL] | None:
    """The compiled allocator's handler capsule, numpy's
    ``PyDataMem_SetHandler`` and the library, or None when the kernel
    cannot be built or loaded, or an array made with the handler set does
    not report its name."""
    try:
        lib = _library()
        handler = ctypes.addressof(ctypes.c_char.in_dll(lib, "tinytraj_mem_handler"))
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError):
        return None
    # PYFUNCTYPE: each call holds the GIL, and a set exception is raised
    capsule_new = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)
    umath = _multiarray()
    api = capsule_pointer(("PyCapsule_GetPointer", ctypes.pythonapi))(umath._ARRAY_API, None)
    slot = ctypes.cast(api, ctypes.POINTER(ctypes.c_void_p))[SET_HANDLER_SLOT]
    set_handler = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.py_object)(slot)
    capsule = capsule_new(("PyCapsule_New", ctypes.pythonapi))(handler, HANDLER_CAPSULE, None)
    for fn in (lib.tinytraj_mem_open, lib.tinytraj_mem_close):
        fn.argtypes, fn.restype = [], None
    previous = set_handler(capsule)
    try:
        name = umath.get_handler_name(np.empty(1))
    finally:
        set_handler(previous)
    return (capsule, set_handler, lib) if name == HANDLER_NAME else None


@contextlib.contextmanager
def reusing_memory() -> Iterator[None]:
    """Inside the block, numpy's arrays get their memory from the compiled
    allocator, which keeps freed blocks of 4 KB or more for the next block
    of the same size (see ``_kernel.c``), up to 64 MB; on leaving it, numpy's
    previous handler is restored and every kept block is freed.  numpy holds
    the handler per ``contextvars`` context, so other threads and contexts
    keep their own.  An array made inside and freed after is freed by the
    allocator, to ``free``.  Nothing is installed when the ops run numpy, or
    when ``_allocator`` is None."""
    allocator = _allocator() if autodiff.KERNEL == "native" else None
    if allocator is None:
        yield
        return
    capsule, set_handler, lib = allocator
    lib.tinytraj_mem_open()
    previous = set_handler(capsule)
    try:
        yield
    finally:
        set_handler(previous)
        lib.tinytraj_mem_close()
