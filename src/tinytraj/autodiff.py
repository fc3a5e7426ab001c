"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Design notes:
  * Storage is a C-contiguous float64 numpy array; shapes are explicit and the
    only broadcasting allowed is trailing-axis bias addition (``add_bias``)
    and a 2-D weight shared by every sequence of a ``[B, S, k]`` batch
    (``matmul``).
  * One ``Tape`` per forward pass.  Operations record nodes eagerly, so the
    tape is already topologically ordered; ``backward`` walks it once in
    reverse, accumulating vector-Jacobian products.
  * Reductions that cross sequence positions (matmul contractions, softmax row
    sums) accumulate in a fixed left-to-right order that does not depend on
    how many other rows/columns are present.  This keeps causal-model outputs
    bit-identical when a sequence is truncated or a future position is
    perturbed, which plain BLAS kernels do not guarantee.
  * A leading batch axis changes no bit.  Gradients of parameters shared by
    the sequences of a ``[B, S, ...]`` batch are per-sequence partial sums
    folded last sequence first, which is exactly how a tape holding one
    forward pass per sequence accumulates them.  So a batched pass equals
    ``B`` single-sequence passes bit for bit, and zero-padded positions
    whose output gradient is zero add exact zeros after every valid term.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

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
        # note: np.asarray keeps 0-d scalars 0-d, unlike ascontiguousarray
        self.data: np.ndarray = np.asarray(data, dtype=np.float64, order="C")
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

    # Small operator sugar; tensor-tensor only, except scalars for * and +.
    def __add__(self, other):
        if isinstance(other, Tensor):
            if other.ndim == 1 and self.ndim >= 2 and self.shape[-1] == other.shape[0]:
                return add_bias(self, other)
            return add(self, other)
        return add_scalar(self, float(other))

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return add_scalar(self, -float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


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


def _bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The 2-D product [m, k] @ [k, n]: every projection of a batch runs
    # through here with its [B, S] rows folded into m, which is row-local.
    return _bmm(a, b)


def _fold(parts: np.ndarray) -> np.ndarray:
    # parts[b] is sequence b's share of a shared parameter's gradient.  A
    # reverse tape visits the last sequence first and adds the earlier ones
    # onto it; cumsum over the reversed axis is that same sequential chain.
    # The copy lets the [B, ...] running sums go.
    return np.cumsum(parts[::-1], axis=0)[-1].copy()


def _seq_sums(g: np.ndarray) -> np.ndarray:
    # [B, S, d] -> [B, d]: each sequence's sum over its positions.  On a
    # C-contiguous array numpy adds whole position rows in order, as it does
    # for one [S, d] sequence; a strided view could be summed pairwise.
    return np.ascontiguousarray(g).sum(axis=1)


def _row_sums(x: np.ndarray) -> np.ndarray:
    # Left-to-right sum over the last axis via cumsum: appending zeros to a
    # row (masked positions) can never change the sum of its prefix, unlike
    # pairwise summation whose grouping depends on the row length.
    return np.cumsum(x, axis=-1)[..., -1:]


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
        if g.ndim == 3:
            return g, _fold(_seq_sums(g))
        return g, g.reshape(-1, d).sum(axis=0)

    return record_op((x, b), x.data + b.data, vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with deterministic, truncation-stable accumulation.

    Three forms: ``[m, k] @ [k, n]``; ``[B, S, k] @ [k, n]``, a weight shared
    by every sequence of a batch (its gradient is folded per sequence); and
    ``[..., m, k] @ [..., k, n]`` with equal leading axes, one independent
    product per leading index (attention heads).
    """
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul: inner dimensions of {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    if a.ndim == b.ndim:
        if a.shape[:-2] != b.shape[:-2]:
            raise ShapeMismatchError(f"matmul: leading axes of {a.shape} and {b.shape} differ")
        if a.ndim == 2:
            return record_op((a, b), _mm(ad, bd), lambda g: (_mm(g, bd.T), _mm(ad.T, g)))

        def vjp_batched(g: np.ndarray):
            return _bmm(g, np.swapaxes(bd, -1, -2)), _bmm(np.swapaxes(ad, -1, -2), g)

        return record_op((a, b), _bmm(ad, bd), vjp_batched)
    if a.ndim != 3 or b.ndim != 2:
        raise ShapeMismatchError(f"matmul: cannot multiply {a.shape} by {b.shape}")
    k, n = bd.shape
    rows = ad.reshape(-1, k)  # [B*S, k]: each row's product is row-local

    def vjp_shared(g: np.ndarray):
        da = _mm(g.reshape(-1, n), bd.T).reshape(ad.shape)
        return da, _fold(_bmm(np.swapaxes(ad, 1, 2), g))

    return record_op((a, b), _mm(rows, bd).reshape(ad.shape[:-1] + (n,)), vjp_shared)


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
    m = np.max(x.data, axis=-1, keepdims=True)  # subtract the row max first
    e = np.exp(x.data - m)
    y = e / _row_sums(e)

    def vjp(g: np.ndarray):
        dot = _row_sums(g * y)
        return (y * (g - dot),)

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
    mu = np.mean(x.data, axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gd = gain.data

    def vjp(g: np.ndarray):
        if g.ndim == 3:  # [B, S, d]: fold per sequence
            dgain, dbias = _fold(_seq_sums(g * xhat)), _fold(_seq_sums(g))
        else:
            dgain = (g * xhat).reshape(-1, d).sum(axis=0)
            dbias = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gd
        dx = inv * (
            dxhat
            - np.mean(dxhat, axis=-1, keepdims=True)
            - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
        )
        return dx, dgain, dbias

    return record_op((x, gain, bias), xhat * gd + bias.data, vjp)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd / _SQRT2))

    def vjp(g: np.ndarray):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return (g * (cdf + xd * pdf),)

    return record_op((x,), xd * cdf, vjp)


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
