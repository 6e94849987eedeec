"""Observer belief dynamics and their mixed-monotone interval bounds.

The observer updates its belief by ``b' = H_a @ b``.  Because beliefs sum to
one, the last coordinate is redundant and the update restricted to the first
N-1 coordinates is affine: ``F_a(x) = (A1 - A2) x + B`` with all of A1, A2, B
nonnegative.  Splitting the positive and negative parts gives the
decomposition function ``f(x, y) = A1 x - A2 y + B``, which is monotone
increasing in x and decreasing in y with ``f(x, x) = F_a(x)``.  Evaluating f
at the two corners of a box therefore bounds the exact one-step image of the
whole box:

    F_a([lo, hi])  is contained in  [f(lo, hi), f(hi, lo)]

That two-corner bound is what the finite abstraction is built from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import Mdp, _freeze

__all__ = [
    "belief_update",
    "reduce_belief",
    "lift_belief",
    "AffineDecomposition",
    "decomposition",
    "decomp_eval",
    "IntervalBox",
    "reach_box",
    "reach_boxes",
]


def belief_update(b: np.ndarray, action: str, m: Mdp) -> np.ndarray:
    """One observer update: the belief after seeing ``action``.

    ``ndarray.dot``, as in :meth:`~.synthesis.EditEngine.step`: on a belief
    vector it is bitwise equal to ``@`` (a test pins this) and cheaper to
    call.
    """
    b = np.asarray(b, dtype=float)
    return m.matrix(action).dot(b)


def reduce_belief(b: np.ndarray) -> np.ndarray:
    """Drop the last (redundant) coordinate of a belief vector."""
    return np.asarray(b, dtype=float)[:-1].copy()


def lift_belief(x: np.ndarray) -> np.ndarray:
    """Restore the full belief from reduced coordinates; the last entry is
    one minus the rest."""
    x = np.asarray(x, dtype=float)
    return np.append(x, 1.0 - x.sum())


@dataclass(frozen=True)
class AffineDecomposition:
    """Per-action split ``f(x, y) = a1 @ x - a2 @ y + b`` of the reduced
    belief update.

    ``a1`` is the leading (N-1) x (N-1) block of the transition matrix, ``b``
    is the first N-1 entries of its last column, and every column of ``a2``
    equals ``b``.  All entries are nonnegative, which is what makes f
    monotone in x and antitone in y.
    """

    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a1", _freeze(self.a1))
        object.__setattr__(self, "a2", _freeze(self.a2))
        object.__setattr__(self, "b", _freeze(self.b))

    @property
    def dim(self) -> int:
        return self.b.shape[0]


def decomposition(m: Mdp, action: str) -> AffineDecomposition:
    """Build the decomposition of the reduced update for one action.

    Expects a canonically ordered model (last state non-secret does not
    matter here, but the reduced coordinates are the first N-1 states).
    """
    h = m.matrix(action)
    n = m.n
    a1 = h[: n - 1, : n - 1]
    b = h[: n - 1, n - 1]
    a2 = np.tile(b[:, None], (1, n - 1))
    return AffineDecomposition(a1=a1, a2=a2, b=b)


def decomp_eval(d: AffineDecomposition, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate ``f(x, y) = a1 @ x - a2 @ y + b``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (d.dim,) or y.shape != (d.dim,):
        raise ValueError(f"expected vectors of length {d.dim}")
    return d.a1 @ x - d.a2 @ y + d.b


@dataclass(frozen=True)
class IntervalBox:
    """Axis-aligned box ``[lo, hi]``, lo <= hi componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _freeze(self.lo))
        object.__setattr__(self, "hi", _freeze(self.hi))
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must have the same shape")
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, x: np.ndarray) -> bool:
        """Closed-box membership."""
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def corners(self) -> np.ndarray:
        """All 2^dim corner points, lexicographic in (lo, hi) choices."""
        cols = [(self.lo[k], self.hi[k]) for k in range(self.dim)]
        return np.array(list(itertools.product(*cols)), dtype=float)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalBox):
            return NotImplemented
        return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)

    def __hash__(self):
        return hash((self.lo.tobytes(), self.hi.tobytes()))


def _matvec(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # ``a @ x`` for each row x of xs, as one BLAS matrix-vector product per
    # row.  Each row of ``a`` yields one dot product with x, rounded as in
    # the single-vector ``a @ x``, also when ``a`` stacks several matrices
    # by rows, so a stacked product gives each block's product bit for bit.
    # ``xs @ a.T``, ``a @ xs.T`` and einsum are matrix-matrix products,
    # which OpenBLAS computes with fused multiply-adds in another order, so
    # they can differ in the last bit.
    return np.matmul(a, xs[:, :, None])[:, :, 0]


def _stacked_reach_boxes(
    ds, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`reach_boxes` under every decomposition of ``ds`` at once:
    boxes x len(ds) x dim arrays whose ``[:, j]`` is ``reach_boxes(ds[j],
    lo, hi)``, bit for bit.

    The ``[a1; a2]`` blocks of all decompositions are stacked by rows, so
    each corner takes one matrix-vector product per box (see
    :func:`_matvec`).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a = np.concatenate([block for d in ds for block in (d.a1, d.a2)])
    b = np.array([d.b for d in ds])
    shape = (len(lo), len(ds), 2, a.shape[1])  # per box, per d: a1 @ x, then a2 @ x
    at_lo = _matvec(a, lo).reshape(shape)
    at_hi = _matvec(a, hi).reshape(shape)
    return at_lo[:, :, 0] - at_hi[:, :, 1] + b, at_hi[:, :, 0] - at_lo[:, :, 1] + b


def reach_boxes(
    d: AffineDecomposition, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two-corner reach boxes of many boxes at once.

    Row ``r`` of the result is ``[f(lo[r], hi[r]), f(hi[r], lo[r])]`` for
    the box ``[lo[r], hi[r]]`` (``lo`` and ``hi`` are boxes x dim arrays).
    """
    rlo, rhi = _stacked_reach_boxes((d,), lo, hi)
    return rlo[:, 0], rhi[:, 0]


def reach_box(d: AffineDecomposition, box: IntervalBox) -> IntervalBox:
    """Two-corner over-approximation ``[f(lo, hi), f(hi, lo)]`` of the
    one-step image of ``box``: the one-box case of :func:`reach_boxes`.

    The box may leave [0, 1]; the cell-overlap stage ignores cells outside
    the belief domain.
    """
    lo, hi = reach_boxes(d, box.lo[None, :], box.hi[None, :])
    return IntervalBox(lo=lo[0], hi=hi[0])
