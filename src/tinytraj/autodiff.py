"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Design notes:
  * Storage is a float64 numpy array, possibly a strided view (a transpose
    or reshape is not copied); shapes are explicit and the only broadcasting
    allowed is trailing-axis bias addition (``add_bias``, ``linear``) and a
    2-D weight shared by every sequence of a ``[B, S, k]`` batch (``matmul``,
    ``linear``).
  * One ``Tape`` per forward pass.  Operations record nodes eagerly, so the
    tape is already topologically ordered; ``backward`` walks it once in
    reverse, accumulating vector-Jacobian products.
  * Reductions that cross sequence positions (matmul contractions, softmax row
    sums) accumulate in a fixed left-to-right order that does not depend on
    how many other rows/columns are present.  This keeps causal-model outputs
    bit-identical when a sequence is truncated or a future position is
    perturbed, which plain BLAS kernels do not guarantee.
  * The summation rules of the row-wise ops, which are numpy's:
      - a softmax row sum (forward and VJP) is ``np.cumsum``'s chain: it
        starts from the row's first element, so an all ``-0.0`` row sums to
        ``-0.0``, and adds the rest left to right (``_row_sums``);
      - a layer-norm mean is ``np.mean``: ``+0.0`` plus numpy's pairwise sum
        of the row (eight accumulators, ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``,
        then the tail in order; halved above 128 terms), divided by ``d``;
      - the gradient of a parameter shared by the sequences of a batch (layer
        norm's gain and bias, the bias of ``add_bias`` and ``linear``, the
        mask fill values) is each sequence's sum over its positions, from
        ``+0.0`` in order at every width, folded last sequence first
        (``Ops.seq_sums``); an unbatched input is one sequence.
    ``softmax_rows``, ``layer_norm``, GELU and its VJP run these in C too,
    one pass where numpy takes several; ``np.exp`` stays numpy's.
  * GELU's ``erf`` is scipy's algorithm (cephes ``erf``: two rational
    approximations and libm's ``exp``, each step one rounded IEEE
    operation), computed here (``_erf_of_scaled``) and in the C pass alike,
    so both give ``scipy.special.erf``'s bits and scipy is never imported.
  * The contraction rule: each element of a matrix product starts from +0.0
    and adds its ``k`` terms in order, each term one rounded multiply then one
    rounded add.  ``_bmm`` runs it in C (``_kernel.c``, compiled on first use
    with the interpreter's C compiler, ``-O3 -ffp-contract=off``: no fused
    multiply-add, no fast-math), register-tiled without reordering any
    element's terms and reading both operands through their strides, so the
    transposed operands of a VJP and of attention are not copied.  It falls
    back to the numpy loop ``_bmm_numpy`` by itself when there is no compiler
    or the compiled kernel fails its check against the numpy bodies on load.  Both give the same
    bits; a NaN's sign and payload are not part of the rule (numpy's own loop
    picks them differently for different row lengths).  ``KERNEL`` reads
    ``"native"`` or ``"numpy"``: which of the two this process runs, for
    every op at once (``Ops``).
  * A leading batch axis changes no bit.  Gradients of parameters shared by
    the sequences of a ``[B, S, ...]`` batch are per-sequence partial sums
    folded last sequence first (``_fold``: a copy of the last part, then each
    earlier part added onto it in place), which is exactly how a tape holding
    one forward pass per sequence accumulates them.  So a batched pass equals
    ``B`` single-sequence passes bit for bit, and zero-padded positions
    whose output gradient is zero add exact zeros after every valid term.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "Tape",
    "Tensor",
    "add",
    "add_bias",
    "add_scalar",
    "backward",
    "concat",
    "gather_rows",
    "gelu",
    "huber",
    "layer_norm",
    "linear",
    "matmul",
    "mean",
    "mul",
    "record_op",
    "reshape",
    "scale",
    "sin",
    "slice_axis",
    "softmax_rows",
    "stack",
    "sub",
    "tensor_sum",
    "transpose",
]


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class Tape:
    """Ordered record of one forward pass, consumed by ``backward``.

    A tape is single-threaded and single-use: after ``backward`` runs it is
    closed and further operations on tensors that still point at it fall back
    to plain (untracked) evaluation.
    """

    def __init__(self) -> None:
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._watched: list[Tensor] = []
        self.active = True

    def watch(self, t: "Tensor") -> "Tensor":
        """Attach ``t`` to this tape so its gradient is produced by backward."""
        t.tape = self
        t.grad = None
        self._watched.append(t)
        return t

    def _record(self, out: "Tensor", inputs: tuple["Tensor", ...], vjp: Callable) -> None:
        self._nodes.append((out, inputs, vjp))

    def close(self) -> None:
        """Stop recording and drop the node list (backward does this itself);
        call directly to abandon a pass without running backward."""
        self.active = False
        self._nodes.clear()

    def __len__(self) -> int:
        return len(self._nodes)


class Tensor:
    """A dense float64 array plus autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "tape")

    def __init__(self, data, requires_grad: bool = False, tape: Tape | None = None):
        # a view stays a view: the kernels read strides or make their own copies
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _resolve_tape(inputs: Iterable[Tensor]) -> Tape | None:
    """Pick the single active tape among the inputs (None means untracked)."""
    tape: Tape | None = None
    for t in inputs:
        cand = t.tape
        if cand is None or not cand.active:
            continue
        if tape is None:
            tape = cand
        elif tape is not cand:
            raise ValueError("operands belong to two different active tapes")
    return tape


def record_op(inputs: Sequence[Tensor], out_data: np.ndarray, vjp: Callable) -> Tensor:
    """Create the output tensor of an op and record it on the inputs' tape.

    ``vjp(grad_out)`` must return one gradient array (or None) per input, in
    order.  Modules use this hook to define their own differentiable ops
    without touching the engine.
    """
    inputs = tuple(inputs)
    tape = _resolve_tape(inputs)
    out = Tensor(out_data, tape=tape)
    if tape is not None:
        tape._record(out, inputs, vjp)
    return out


def backward(loss: Tensor, tape: Tape | None = None) -> dict[Tensor, np.ndarray]:
    """Reverse sweep from a scalar loss; seeds with gradient 1.

    Visits each tape node exactly once in reverse recording order.  Returns a
    map from every watched / grad-requiring tensor to its gradient and also
    deposits the gradient on ``t.grad`` (zeros for watched tensors the loss
    does not reach).  The tape is closed afterwards.
    """
    tape = tape if tape is not None else loss.tape
    if tape is None:
        raise ValueError("loss is not attached to a tape")
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")

    nodes = tape._nodes
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    while nodes:
        # popping releases each node's saved activations once its VJP ran
        node_out, node_inputs, vjp = nodes.pop()
        g = grads.pop(id(node_out), None)
        if g is None:
            continue  # the loss does not depend on this node
        input_grads = vjp(g)
        for inp, gi in zip(node_inputs, input_grads):
            if gi is None:
                continue
            prev = grads.get(id(inp))
            grads[id(inp)] = gi if prev is None else prev + gi
            if inp.requires_grad:
                leaves[id(inp)] = inp

    for t in tape._watched:
        leaves.setdefault(id(t), t)

    result: dict[Tensor, np.ndarray] = {}
    for t in leaves.values():
        g = grads.get(id(t))
        if g is None:
            g = np.zeros_like(t.data)
        g = np.ascontiguousarray(g, dtype=np.float64)
        t.grad = g
        result[t] = g

    tape.close()
    return result


# ---------------------------------------------------------------------------
# deterministic kernels
# ---------------------------------------------------------------------------


def _bmm_numpy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Rank-1 accumulation, strictly sequential over the contraction axis.
    # Each output element is summed in an order that depends only on its own
    # row of `a` and column of `b`, never on how many other rows/columns are
    # in the call, so truncating a matrix reproduces the surviving entries
    # bit-for-bit (BLAS tiling does not promise that).  Leading axes
    # ([..., m, k] @ [..., k, n], broadcast) are independent products.
    k = a.shape[-1]
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros(lead + (a.shape[-2], b.shape[-1]), dtype=np.float64)
    for i in range(k):
        out += a[..., i : i + 1] * b[..., i : i + 1, :]
    return out


def _fold(parts: np.ndarray) -> np.ndarray:
    # parts[b] is sequence b's share of a shared parameter's gradient.  A
    # reverse tape visits the last sequence first and adds the earlier ones
    # onto it, in place: the chain cumsum over the reversed axis computes,
    # without its B running sums.
    out = parts[-1].copy()
    for part in parts[-2::-1]:
        out += part
    return out


def _seq_sums(g: np.ndarray) -> np.ndarray:
    # [B, S, d] -> [B, d]: each sequence's sum over its positions, from +0.0
    # in order at every width (numpy's own sum goes pairwise over one column)
    out = np.zeros((g.shape[0], g.shape[2]))
    for p in range(g.shape[1]):
        out += g[:, p]
    return out


def _row_sums(x: np.ndarray) -> np.ndarray:
    # [..., n] -> [..., 1]: np.cumsum's chain over the last axis, from the
    # first column, added left to right in place.  Appending zeros to a row
    # (masked positions) can never change the sum of its prefix, unlike
    # pairwise summation whose grouping depends on the row length.
    out = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        out += x[..., j : j + 1]
    return out


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# The numpy bodies of the row-wise kernels: the fallback when there is no
# compiled kernel, and the oracle it is checked against.


def _softmax_numpy(x: np.ndarray) -> np.ndarray:
    y = x - np.max(x, axis=-1, keepdims=True)  # subtract the row max first
    np.exp(y, out=y)  # in place: one score-sized array fewer at the peak
    y /= _row_sums(y)
    return y


def _softmax_vjp_numpy(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return y * (g - _row_sums(g * y))


def _layer_norm_numpy(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    # (output, xhat, inv) over the last axis; the VJP needs xhat and inv
    xc = x - np.mean(x, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(xc * xc, axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def _layer_norm_dx_numpy(
    g: np.ndarray, gain: np.ndarray, xhat: np.ndarray, inv: np.ndarray
) -> np.ndarray:
    dxhat = g * gain
    return inv * (
        dxhat
        - np.mean(dxhat, axis=-1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    )


def _seq_sums_numpy(g: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    # [B, S, d] -> [d]: the gradient of a parameter shared by a batch's
    # sequences, from its per-position terms g (or g * w)
    return _fold(_seq_sums(g if w is None else g * w))


# cephes' erf, the algorithm of scipy.special.erf, and its coefficients (the
# C kernel holds the same): erf(x) = x T(x^2) / U(x^2) for
# |x| <= 1, else 1 - erfc(x) with erfc(x) = exp(-x^2) P(x) / Q(x) below 8 and
# exp(-x^2) R(x) / S(x) from 8 on, and 0 once -x^2 < -_MAXLOG; U, Q and S
# have a leading 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2


def _horner(x: np.ndarray, coef: Sequence[float], leading_one: bool = False) -> np.ndarray:
    # cephes' polevl (or p1evl, with a leading coefficient of 1): each step
    # one rounded multiply, then one rounded add
    acc = x + coef[0] if leading_one else np.full_like(x, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _erf_of_scaled(x: np.ndarray) -> np.ndarray:
    # erf(x / sqrt(2)) in one fresh array, with scipy.special.erf's bits: the
    # cephes algorithm above, as the C pass runs it.  t T(t^2) / U(t^2) on
    # every t has the bits of cephes' -erf(-t) for t < 0 (negation is exact),
    # -0.0 and NaN included; the entries past 1 are redone with erf's sign
    # put back.  exp is libm's (math.exp), whose bits the C pass shares and
    # np.exp's SIMD loops do not, so it runs per element, on those entries only.
    t = x / _SQRT2
    with np.errstate(over="ignore", invalid="ignore"):  # only past 1, redone below
        z = t * t
        out = t * _horner(z, _ERF_T) / _horner(z, _ERF_U, True)
    far = np.abs(t) > 1.0
    a = np.abs(t[far])
    with np.errstate(over="ignore"):
        kept = a * a <= _MAXLOG  # -a^2 >= -MAXLOG; past it erfc underflows to 0
    erf = np.ones_like(a)
    a = a[kept]
    p = np.where(a < 8.0, _horner(a, _ERFC_P), _horner(a, _ERFC_R))
    q = np.where(a < 8.0, _horner(a, _ERFC_Q, True), _horner(a, _ERFC_S, True))
    e = np.array([math.exp(v) for v in (-a * a).tolist()], dtype=np.float64)
    erf[kept] = 1.0 - e * p / q
    out[far] = np.copysign(erf, t[far])
    return out


def _gelu_numpy(x: np.ndarray, keep_cdf: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    # (x * cdf, cdf) with cdf = 0.5 * (1.0 + erf(x / sqrt 2)); without
    # keep_cdf the output takes cdf's buffer and cdf is None
    cdf = _erf_of_scaled(x)
    cdf += 1.0
    cdf *= 0.5
    if not keep_cdf:
        return np.multiply(x, cdf, out=cdf), None
    return x * cdf, cdf


def _gelu_vjp_numpy(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return g * (cdf + x * pdf)


class Ops(NamedTuple):
    """One implementation of every deterministic kernel: ``_NUMPY``, the
    numpy bodies, or the compiled kernel ``_kernel.load`` checks against
    them.  Both give the same bits."""

    bmm: Callable[[np.ndarray, np.ndarray], np.ndarray]
    softmax: Callable[[np.ndarray], np.ndarray]
    softmax_vjp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    layer_norm: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]
    layer_norm_dx: Callable[..., np.ndarray]
    seq_sums: Callable[..., np.ndarray]
    gelu: Callable[..., tuple[np.ndarray, np.ndarray | None]]
    gelu_vjp: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


_NUMPY = Ops(
    _bmm_numpy,
    _softmax_numpy,
    _softmax_vjp_numpy,
    _layer_norm_numpy,
    _layer_norm_dx_numpy,
    _seq_sums_numpy,
    _gelu_numpy,
    _gelu_vjp_numpy,
)
_ops: Ops | None = None  # chosen on first use


def _kernels() -> Ops:
    # the compiled kernel, else the numpy bodies, chosen on first use; the
    # choice holds for every op and for the process (_kernel imports this
    # module, hence the import in here)
    global _ops
    if _ops is None:
        from . import _kernel

        _ops = _kernel.load() or _NUMPY
    return _ops


def _bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # [..., m, k] @ [..., k, n] by the contraction rule of the module
    # docstring, on the compiled kernel when this host can build it
    return _kernels().bmm(a, b)


def __getattr__(name: str):
    # KERNEL is computed on each read, never stored: "native" or "numpy"
    if name == "KERNEL":
        return "numpy" if _kernels() is _NUMPY else "native"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The 2-D product [m, k] @ [k, n]: every projection of a batch runs
    # through here with its [B, S] rows folded into m, which is row-local.
    return _bmm(a, b)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return record_op((a, b), a.data + b.data, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    return record_op((a, b), a.data - b.data, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return record_op((a, b), ad * bd, lambda g: (g * bd, g * ad))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return record_op((a,), a.data * c, lambda g: (g * c,))


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return record_op((a,), a.data + c, lambda g: (g,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """``x + b`` where ``b`` broadcasts along the trailing axis of ``x``.

    For a ``[B, S, d]`` batch the bias gradient is folded per sequence.
    """
    if b.ndim != 1 or x.ndim < 2 or x.shape[-1] != b.shape[0]:
        raise ShapeMismatchError(f"add_bias: shapes {x.shape} and {b.shape} are incompatible")
    d = b.shape[0]

    def vjp(g: np.ndarray):
        return g, _kernels().seq_sums(g if g.ndim == 3 else g.reshape(1, -1, d))

    return record_op((x, b), x.data + b.data, vjp)


def _is_constant(t: Tensor) -> bool:
    # No active tape and no gradient wanted: backward can neither report nor
    # pass on a gradient for it (the feature input, Time2Vec's taus).
    return not t.requires_grad and (t.tape is None or not t.tape.active)


def _product(a: Tensor, b: Tensor, op: str) -> tuple[np.ndarray, Callable]:
    # a @ b in a fresh array, and its VJP: (da, db), None for a constant operand
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"{op}: inner dimensions of {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    const_a, const_b = _is_constant(a), _is_constant(b)
    if b.ndim > 2:
        if a.shape[:-2] != b.shape[:-2]:
            raise ShapeMismatchError(f"{op}: leading axes of {a.shape} and {b.shape} differ")

        def vjp_batched(g: np.ndarray):
            return (
                None if const_a else _bmm(g, np.swapaxes(bd, -1, -2)),
                None if const_b else _bmm(np.swapaxes(ad, -1, -2), g),
            )

        return _bmm(ad, bd), vjp_batched
    if a.ndim > 3:
        raise ShapeMismatchError(f"{op}: cannot multiply {a.shape} by {b.shape}")
    k, n = bd.shape
    rows = ad.reshape(-1, k)  # [B*S, k]: each row's product is row-local
    seqs = ad.reshape(-1, *ad.shape[-2:])  # an [S, k] sequence is one [1, S, k]

    def vjp_shared(g: np.ndarray):
        da = None if const_a else _mm(g.reshape(-1, n), bd.T).reshape(ad.shape)
        gs = g.reshape(seqs.shape[:-1] + (n,))
        return da, None if const_b else _fold(_bmm(np.swapaxes(seqs, 1, 2), gs))

    return _mm(rows, bd).reshape(ad.shape[:-1] + (n,)), vjp_shared


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with deterministic, truncation-stable accumulation.

    Two forms: ``[B, S, k] @ [k, n]``, a weight shared by every sequence of a
    batch (its gradient is folded per sequence), of which ``[S, k] @ [k, n]``
    is the one-sequence case; and ``[..., m, k] @ [..., k, n]`` with equal
    leading axes, one independent product per leading index (attention
    heads).  The VJP skips the product for a constant operand and returns
    None for it.
    """
    return record_op((a, b), *_product(a, b, "matmul"))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``add_bias(matmul(x, w), b)`` as one op: the bias is added onto the
    fresh product in place, so every bit of the value and of the three
    gradients is the same, one pass and one array fewer."""
    if b.ndim != 1 or w.ndim != 2 or w.shape[-1] != b.shape[0]:
        raise ShapeMismatchError(f"linear: weight {w.shape} and bias {b.shape} are incompatible")
    out, product_vjp = _product(x, w, "linear")
    out += b.data
    d = b.shape[0]

    def vjp(g: np.ndarray):
        return (*product_vjp(g), _kernels().seq_sums(g if g.ndim == 3 else g.reshape(1, -1, d)))

    return record_op((x, w, b), out, vjp)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Swap the last two axes, or permute all axes by ``axes``."""
    if axes is None:
        if a.ndim < 2:
            raise ShapeMismatchError(f"transpose: expected at least 2 axes, got {a.shape}")
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    inverse = tuple(np.argsort(axes))
    return record_op((a,), a.data.transpose(axes), lambda g: (g.transpose(inverse),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    orig = a.shape
    return record_op((a,), a.data.reshape(shape), lambda g: (g.reshape(orig),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g: np.ndarray):
        return tuple(np.split(g, offsets, axis=axis))

    return record_op(tensors, np.concatenate([t.data for t in tensors], axis=axis), vjp)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("stack: need at least one tensor")

    def vjp(g: np.ndarray):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return record_op(tensors, np.stack([t.data for t in tensors], axis=axis), vjp)


def slice_axis(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice ``[start, start+length)`` along one axis."""
    if not (0 <= start and start + length <= a.shape[axis]):
        raise ShapeMismatchError(
            f"slice_axis: [{start}, {start + length}) out of bounds for axis {axis} of {a.shape}"
        )
    idx = tuple(slice(start, start + length) if ax == axis else slice(None) for ax in range(a.ndim))

    def vjp(g: np.ndarray):
        z = np.zeros_like(a.data)
        z[idx] = g
        return (z,)

    return record_op((a,), a.data[idx], vjp)


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    orig = a.shape
    if axis is None:
        def vjp(g: np.ndarray):
            return (np.full(orig, float(g)),)

        return record_op((a,), np.sum(a.data), vjp)

    def vjp_axis(g: np.ndarray):
        return (np.ascontiguousarray(np.broadcast_to(np.expand_dims(g, axis), orig)),)

    return record_op((a,), np.sum(a.data, axis=axis), vjp_axis)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    orig = a.shape
    if axis is None:
        n = a.size

        def vjp(g: np.ndarray):
            return (np.full(orig, float(g) / n),)

        return record_op((a,), np.mean(a.data), vjp)

    n_axis = orig[axis]

    def vjp_axis(g: np.ndarray):
        return (np.ascontiguousarray(np.broadcast_to(np.expand_dims(g, axis), orig)) / n_axis,)

    return record_op((a,), np.mean(a.data, axis=axis), vjp_axis)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows of a 2-D table by integer index (embedding lookup)."""
    if table.ndim != 2:
        raise ShapeMismatchError(f"gather_rows: expected a 2-D table, got {table.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"gather_rows: index out of range for table with {table.shape[0]} rows")

    def vjp(g: np.ndarray):
        z = np.zeros_like(table.data)
        np.add.at(z, idx, g)
        return (z,)

    return record_op((table,), table.data[idx], vjp)


# ---------------------------------------------------------------------------
# neural-network ops
# ---------------------------------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, stable under large scores.

    Rows may contain -inf entries (disallowed attention slots) as long as at
    least one entry is finite; those slots come out exactly 0.
    """
    if x.ndim < 2:
        raise ShapeMismatchError(f"softmax_rows: expected at least 2 axes, got {x.shape}")
    ops = _kernels()
    y = ops.softmax(x.data)

    def vjp(g: np.ndarray):
        return (ops.softmax_vjp(y, g),)

    return record_op((x,), y, vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then scale+shift."""
    d = x.shape[-1]
    if d < 2:
        raise ShapeMismatchError("layer_norm: trailing axis must have length >= 2")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match axis length {d}"
        )
    if not eps > 0:
        raise ValueError("layer_norm: eps must be positive")
    ops = _kernels()
    out, xhat, inv = ops.layer_norm(x.data, gain.data, bias.data, eps)
    gd = gain.data

    def vjp(g: np.ndarray):
        seqs = g.shape if g.ndim == 3 else (1, -1, d)  # [B, S, d], else one sequence
        gs, xs = g.reshape(seqs), xhat.reshape(seqs)
        return ops.layer_norm_dx(g, gd, xhat, inv), ops.seq_sums(gs, xs), ops.seq_sums(gs)

    return record_op((x, gain, bias), out, vjp)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit.

    ``cdf = 0.5 * (1.0 + erf(x / sqrt 2))`` is kept for the VJP only when
    ``x`` is on an active tape; otherwise the output ``x * cdf`` is written
    over cdf's array, one array of ``x``'s size fewer.
    """
    xd = x.data
    ops = _kernels()
    if _resolve_tape((x,)) is None:
        return Tensor(ops.gelu(xd, False)[0])
    out, cdf = ops.gelu(xd)

    def vjp(g: np.ndarray):
        return (ops.gelu_vjp(g, xd, cdf),)

    return record_op((x,), out, vjp)


def sin(x: Tensor) -> Tensor:
    xd = x.data
    return record_op((x,), np.sin(xd), lambda g: (g * np.cos(xd),))


def huber(x: Tensor, delta: float = 1.0) -> Tensor:
    """Elementwise Huber penalty: quadratic inside ``delta``, linear outside."""
    if not delta > 0:
        raise ValueError("huber: delta must be positive")
    xd = x.data
    absx = np.abs(xd)
    out = np.where(absx <= delta, 0.5 * xd * xd, delta * (absx - 0.5 * delta))

    def vjp(g: np.ndarray):
        return (g * np.clip(xd, -delta, delta),)

    return record_op((x,), out, vjp)
