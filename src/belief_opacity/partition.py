"""Grid partition of the reduced belief domain and its cell classification.

The reduced beliefs live in X = {x >= 0, sum(x) <= 1}.  We cover [0, 1]^d
with axis-aligned cells and classify each one:

* ``excluded``: the cell's lower corner already sums to >= 1, so the cell
  meets X at most in a measure-zero set and can never contain a belief;
* ``bad``: the secret mass at the cell's upper corner exceeds the threshold
  (the secret mass is a nondecreasing linear form of the reduced
  coordinates, so the upper corner attains the cell maximum);
* ``safe``: everything else.

The upper-corner test is exact for cells fully inside X and conservative for
cells straddling the simplex boundary; we accept the conservatism.

A :class:`Partition` keeps its cells as flat arrays (corners as cells x d
float arrays, statuses and ids as tuples), classified in one vectorized
pass; :class:`PartitionCell` objects are built only on request.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import IntervalBox
from .model import Mdp, _freeze

__all__ = [
    "SAFE",
    "BAD",
    "EXCLUDED",
    "PartitionCell",
    "Partition",
    "RefinementFailedError",
    "build_grid",
    "locate_cell",
    "overlapping_cells",
    "refine_initial",
    "partition_to_csv",
    "partition_to_svg",
]

SAFE = "safe"
BAD = "bad"
EXCLUDED = "excluded"


class RefinementFailedError(RuntimeError):
    """Bisection budget exhausted with the initial cell still bad."""


@dataclass(frozen=True)
class PartitionCell:
    id: int
    box: IntervalBox
    status: str


@dataclass(frozen=True, eq=False)
class Partition:
    """Interval cells covering [0, 1]^dim, stored row by row in ascending id
    order.

    Row ``r`` is the cell ``ids[r]`` with box ``[lo[r], hi[r]]`` (``lo`` and
    ``hi`` are read-only cells x dim float arrays) and status ``status[r]``.
    ``cells`` builds the matching :class:`PartitionCell` objects on first
    use; the abstraction never needs them.

    ``grid_edges`` are the per-axis edges of the grid the partition was
    built on; grid cells are numbered in row-major order over them.  An
    unrefined grid cell is the cell whose id equals its grid index;
    ``splits`` maps each grid cell that refinement bisected to the ids of
    the cells it now holds, in ascending order.  Together they index
    :func:`locate_cell` and :func:`overlapping_cells`; ids are not dense
    once a grid cell is split.
    """

    lo: np.ndarray
    hi: np.ndarray
    status: tuple[str, ...]
    ids: tuple[int, ...]
    grid_edges: tuple[tuple[float, ...], ...]
    splits: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "lo", _freeze(self.lo).reshape(-1, self.dim))
        object.__setattr__(self, "hi", _freeze(self.hi).reshape(-1, self.dim))
        object.__setattr__(self, "status", tuple(self.status))
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def dim(self) -> int:
        return len(self.grid_edges)

    @cached_property
    def _axes(self) -> tuple[tuple[tuple[float, ...], int], ...]:
        """Per axis, the inner grid edges and the number of grid cells: a
        coordinate v in [0, 1] lies in the half-open grid cell
        ``bisect_right(inner, v)``, and 1.0 in the last one."""
        return tuple((edges[1:-1], len(edges) - 1) for edges in self.grid_edges)

    @cached_property
    def _fast(self):
        """The fast exit of :func:`_locate`: the id of the cell owning a list
        of ``dim`` floats, or -1 where :func:`_search` must decide.

        x's half-open grid cell, when unsplit and not excluded, wins
        outright if no grid cell is split (every other candidate's lower
        corner is componentwise no larger) or if x lies on none of its lower
        faces (it is then the only candidate).  Points outside [0, 1] on
        some axis, NaN included, get -1.  The closure holds the partition's
        tables, not the partition, so caching it makes no reference cycle.
        """
        axes, status = self._axes, self.status
        if not self.splits:  # an unsplit grid cell's id is its grid index and its row
            def fast(xs: list) -> int:
                idx = 0
                for v, (inner, n_k) in zip(xs, axes):
                    if not 0.0 <= v <= 1.0:
                        return -1
                    idx = idx * n_k + bisect_right(inner, v)
                return idx if status[idx] != EXCLUDED else -1
            return fast

        # per grid cell, its status when unsplit and EXCLUDED when split:
        # the ids below the grid's size are exactly the unsplit grid cells
        by_grid = [EXCLUDED] * math.prod(n_k for _, n_k in axes)
        for cell_id, s in zip(self.ids, status):
            if cell_id < len(by_grid):
                by_grid[cell_id] = s
        by_grid = tuple(by_grid)

        def fast_split(xs: list) -> int:
            idx = 0
            for v, (inner, n_k) in zip(xs, axes):
                if not 0.0 <= v <= 1.0:
                    return -1
                i = bisect_right(inner, v)
                if i and inner[i - 1] == v:  # on a lower face of x's grid cell
                    return -1
                idx = idx * n_k + i
            return idx if by_grid[idx] != EXCLUDED else -1
        return fast_split

    @cached_property
    def _grid_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid cell g holds the rows ``cells[start[g]:start[g + 1]]``."""
        grid = np.array(self.ids)  # an unsplit grid cell's id is its index
        for g, members in self.splits.items():
            grid[[self.row(cid) for cid in members]] = g
        cells = np.argsort(grid, kind="stable")
        count = math.prod(len(e) - 1 for e in self.grid_edges)
        return np.searchsorted(grid[cells], np.arange(count + 1)), cells

    def _cell_at(self, row: int) -> PartitionCell:
        box = IntervalBox(lo=self.lo[row], hi=self.hi[row])
        return PartitionCell(id=self.ids[row], box=box, status=self.status[row])

    @cached_property
    def cells(self) -> tuple[PartitionCell, ...]:
        return tuple(self._cell_at(r) for r in range(len(self.ids)))

    def row(self, cell_id: int) -> int:
        """Row of cell ``cell_id`` in ``lo``, ``hi``, ``status`` and ``ids``;
        ``KeyError`` for an id the partition does not hold."""
        r = bisect_left(self.ids, cell_id)  # ids ascend
        if r == len(self.ids) or self.ids[r] != cell_id:
            raise KeyError(cell_id)
        return r

    def cell(self, cell_id: int) -> PartitionCell:
        return self._cell_at(self.row(cell_id))

    def safe_cells(self) -> tuple[PartitionCell, ...]:
        return tuple(self._cell_at(r) for r, s in enumerate(self.status) if s == SAFE)

    def counts(self) -> dict[str, int]:
        return {s: self.status.count(s) for s in (SAFE, BAD, EXCLUDED)}


def _classify(lo: np.ndarray, hi: np.ndarray, m: Mdp) -> list[str]:
    """Status of each box ``[lo[r], hi[r]]``: excluded when the lower corner
    sums to >= 1, bad when the upper corner's secret mass exceeds the
    threshold, safe otherwise.  Row sums over C-ordered rows add each row as
    ``row.sum()`` does, so one box and many classify alike."""
    if len(m.secret) and max(m.secret) >= m.n - 1:
        raise ValueError("model must be canonically ordered (last state non-secret)")
    excluded = np.ascontiguousarray(lo).sum(axis=1) >= 1.0
    bad = hi[:, m.secret_indices].sum(axis=1) > m.threshold
    return np.where(excluded, EXCLUDED, np.where(bad, BAD, SAFE)).tolist()


MAX_GRID_CELLS = 5_000_000  # the cube of an N = 6 model at width 0.05 has 3.2 M


def _axis_count(width: float) -> float:
    """Cells along an axis of this width (``inf`` when 1 / width overflows)."""
    if not math.isfinite(width) or width <= 0:
        raise ValueError(f"grid widths must be positive and finite, got {width}")
    inv = 1.0 / width
    if not math.isfinite(inv):
        return math.inf
    count = round(inv) if abs(inv - round(inv)) <= 1e-9 * inv else math.ceil(inv)
    return max(count, 1)


def _axis_edges(width: float, count: int) -> np.ndarray:
    edges = [min(i * width, 1.0) for i in range(count + 1)]
    edges[-1] = 1.0
    return np.array(edges)


def build_grid(widths, m: Mdp) -> Partition:
    """Axis-aligned grid over [0, 1]^(N-1), each cell classified.

    ``widths`` is one positive, finite value per reduced dimension (a scalar
    is broadcast).  A width that does not divide 1 gets a truncated final
    cell.  Excluded cells are kept in the listing for plotting but never
    become abstraction states.  A grid of more than :data:`MAX_GRID_CELLS`
    cells is refused before anything is allocated.
    """
    dim = m.n - 1
    if np.isscalar(widths):
        widths = [float(widths)] * dim
    widths = [float(w) for w in widths]
    if len(widths) != dim:
        raise ValueError(f"expected {dim} grid widths, got {len(widths)}")
    counts = [_axis_count(w) for w in widths]
    if math.prod(counts) > MAX_GRID_CELLS:
        raise ValueError(
            f"grid widths {widths} give more than {MAX_GRID_CELLS} cells; use larger widths"
        )
    edges = [_axis_edges(w, c) for w, c in zip(widths, counts)]
    # row-major over the grid: the last axis varies fastest
    lo = np.stack([g.ravel() for g in np.meshgrid(*[e[:-1] for e in edges], indexing="ij")], 1)
    hi = np.stack([g.ravel() for g in np.meshgrid(*[e[1:] for e in edges], indexing="ij")], 1)
    return Partition(
        lo=lo,
        hi=hi,
        status=_classify(lo, hi, m),
        ids=range(len(lo)),
        grid_edges=tuple(tuple(e.tolist()) for e in edges),
    )


def locate_cell(x, p: Partition) -> int:
    """Id of the cell owning ``x``, an array or list of ``p.dim`` coordinates.

    Ownership follows the half-open convention (a point on a shared face
    belongs to the cell whose lower corner touches it), except that points
    on the outer boundary of the belief domain fall back to the adjacent
    non-excluded cell.  Both rules collapse to one deterministic pick: among
    non-excluded cells whose closed box contains x, take the one with the
    lexicographically largest lower corner (then the largest id).
    Coordinates within 1e-9 outside [0, 1] are clamped onto it; anything
    further out, NaN included, raises ``ValueError``, as does a point in no
    non-excluded cell.
    """
    xs = np.asarray(x, dtype=float).tolist()
    if len(xs) != p.dim:
        raise ValueError(f"expected a point of dimension {p.dim}")
    return _locate(xs, p)


def _locate(xs: list, p: Partition) -> int:
    """:func:`locate_cell` on a list of exactly ``p.dim`` floats: the
    partition's bound fast exit (see ``Partition._fast``), or else
    :func:`_search`, which runs the one grid search,
    :func:`overlapping_cells`, on the point."""
    cell = p._fast(xs)
    return cell if cell >= 0 else _search(xs, p)


def _search(xs: list, p: Partition) -> int:
    """The ownership rule by search: validate and clamp ``xs``, then take the
    largest (lower corner, id) among the non-excluded cells whose closed box
    holds it, which are the cells :func:`overlapping_cells` finds for the
    box [x, x] under the ``closed`` rule."""
    for v in xs:
        if not -1e-9 <= v <= 1.0 + 1e-9:
            raise ValueError(f"point {xs!r} outside the unit box")
    xs = [min(max(v, 0.0), 1.0) for v in xs]
    x = np.array([xs])
    _, rows = overlapping_cells(p, x, x, "closed")
    keys = [(p.lo[r].tolist(), p.ids[r]) for r in rows.tolist() if p.status[r] != EXCLUDED]
    if not keys:
        raise ValueError(f"point {xs!r} outside the belief domain")
    return max(keys)[1]


def _runs(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs ``start[j], ..., start[j] + count[j] - 1`` end to end: run numbers and values."""
    ends = np.cumsum(count)
    offset = np.repeat(ends - count - start, count)
    return np.repeat(np.arange(len(count)), count), np.arange(len(offset)) - offset


_OVERLAP_RULES = {"strict": np.less, "closed": np.less_equal}
_BLOCK = 128  # boxes searched at once, which bounds the temporary arrays


def _overlap_rule(mode: str):
    """Elementwise test whether the intervals ``[alo, ahi]`` and ``[blo, bhi]``
    meet, comparing the larger lower end with the smaller upper end:
    ``strict`` requires the interiors to meet, ``closed`` also counts shared
    end points."""
    try:
        less = _OVERLAP_RULES[mode]
    except KeyError:
        raise ValueError(f"unknown overlap mode {mode!r}") from None
    return lambda alo, ahi, blo, bhi: less(np.maximum(alo, blo), np.minimum(ahi, bhi))


def overlapping_cells(p: Partition, lo: np.ndarray, hi: np.ndarray, mode: str):
    """Every (box, cell) pair that overlaps under ``mode`` (see
    :func:`_overlap_rule`), for the boxes ``[lo[b], hi[b]]``: arrays of box
    indices and cell rows, ordered by box, then grid index, then row.

    Per axis, a box's closed index range of grid cells comes from
    ``grid_edges``; the ranges are expanded with array arithmetic, keeping
    the pairs that pass on that axis, and each split grid cell is replaced
    by those of its cells that pass.
    """
    meets = _overlap_rule(mode)
    edges = [np.asarray(e) for e in p.grid_edges]
    boxes, rows = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for first in range(0, len(lo), _BLOCK):
        blo, bhi = lo[first:first + _BLOCK], hi[first:first + _BLOCK]
        box, g = np.arange(len(blo)), np.zeros(len(blo), dtype=np.intp)
        for k, e in enumerate(edges):
            # grid cell i meets [blo, bhi] as closed intervals, as either
            # rule requires, exactly when e_i <= bhi and blo <= e_(i+1)
            low = np.maximum(np.searchsorted(e, blo[:, k], "left") - 1, 0)
            high = np.minimum(np.searchsorted(e, bhi[:, k], "right"), len(e) - 1)
            pair, i = _runs(low[box], np.maximum(high - low, 0)[box])
            box, g = box[pair], g[pair] * (len(e) - 1) + i
            keep = meets(blo[box, k], bhi[box, k], e[i], e[i + 1])
            box, g = box[keep], g[keep]
        row = g  # without splits, a grid cell's index is its id and its row
        if p.splits:  # each grid cell's cells, tested on every axis
            start, cells = p._grid_cells
            pair, j = _runs(start[g], start[g + 1] - start[g])
            box, row = box[pair], cells[j]
            keep = np.all(meets(blo[box], bhi[box], p.lo[row], p.hi[row]), axis=-1)
            box, row = box[keep], row[keep]
        boxes.append(box + first)
        rows.append(row)
    return np.concatenate(boxes), np.concatenate(rows)


# the bisection budget of refine_initial
_MAX_BISECTIONS = 32


def refine_initial(p: Partition, x0: np.ndarray, m: Mdp) -> Partition:
    """Bisect the cell containing ``x0`` until that cell is safe.

    ``x0`` itself must satisfy the opacity bound; the loop splits along the
    secret dimension with the most room between x0 and the cell's upper
    face (ties to the lowest dimension), reclassifies both halves, and stops
    once x0's cell is safe.  Raises :class:`RefinementFailedError` after
    ``_MAX_BISECTIONS`` bisections.  Returns ``p`` itself when x0's cell is
    not bad.  Halves get fresh ids above every existing one, and only the
    grid cell holding x0's cell is re-indexed.
    """
    x0 = np.asarray(x0, dtype=float)
    first = p.row(locate_cell(x0, p))
    if p.status[first] != BAD:
        return p
    secret_dims = [k for k in sorted(m.secret) if k < p.dim]
    # halves not split again, by id: (lo, hi, status)
    added: dict[int, tuple[np.ndarray, np.ndarray, str]] = {}
    next_id = p.ids[-1] + 1
    cell_id, lo, hi, status = p.ids[first], p.lo[first], p.hi[first], BAD
    for _ in range(_MAX_BISECTIONS if secret_dims else 0):
        room = [(float(hi[k] - x0[k]), k) for k in secret_dims]
        _, axis = max(room, key=lambda t: (t[0], -t[1]))
        mid = 0.5 * (lo[axis] + hi[axis])
        lo_half_hi = hi.copy()
        lo_half_hi[axis] = mid
        hi_half_lo = lo.copy()
        hi_half_lo[axis] = mid
        los = np.array([lo, hi_half_lo])
        his = np.array([lo_half_hi, hi])
        lower, upper = _classify(los, his, m)
        added.pop(cell_id, None)
        added[next_id] = (los[0], his[0], lower)
        added[next_id + 1] = (los[1], his[1], upper)
        # x0 lay in the split cell, so it now lies in one of the halves; the
        # upper half has the larger lower corner and wins when it holds x0
        # and is not excluded (locate_cell's rule, without a lookup).
        half = 1 if x0[axis] >= mid and upper != EXCLUDED else 0
        cell_id, lo, hi, status = next_id + half, los[half], his[half], (lower, upper)[half]
        next_id += 2
        if status != BAD:
            break
    if status == BAD:
        raise RefinementFailedError(
            f"initial cell still bad after {_MAX_BISECTIONS} bisections; "
            "the opacity threshold may be too tight around the initial belief"
        )
    # Every bisection after the first splits a half made here, so row
    # `first` is the only cell of p that goes.  Its grid cell is the split
    # one that holds it, or else its id (an unsplit grid cell's id is its
    # grid index).
    g = next((k for k, held in p.splits.items() if p.ids[first] in held), p.ids[first])
    kept = tuple(i for i in p.splits.get(g, (g,)) if i != p.ids[first])
    new_lo, new_hi, new_status = zip(*added.values())
    return Partition(
        lo=np.concatenate([np.delete(p.lo, first, axis=0), new_lo]),
        hi=np.concatenate([np.delete(p.hi, first, axis=0), new_hi]),
        status=p.status[:first] + p.status[first + 1:] + new_status,
        ids=p.ids[:first] + p.ids[first + 1:] + tuple(added),
        grid_edges=p.grid_edges,
        splits={**p.splits, g: kept + tuple(added)},
    )


def partition_to_csv(p: Partition) -> str:
    """One row per cell: id, lower corner, upper corner, status."""
    header = ["id"]
    header += [f"lo{k}" for k in range(p.dim)]
    header += [f"hi{k}" for k in range(p.dim)]
    header += ["status"]
    lines = [",".join(header)]
    for cid, lo, hi, status in zip(p.ids, p.lo.tolist(), p.hi.tolist(), p.status):
        lines.append(",".join([str(cid), *map(repr, lo), *map(repr, hi), status]))
    return "\n".join(lines) + "\n"


def partition_to_svg(p: Partition, m: Mdp, initial: np.ndarray | None = None) -> str:
    """Plot a two-dimensional partition: shaded bad cells, safe-cell ids,
    the simplex boundary, the threshold line, and optionally the initial
    belief."""
    if p.dim != 2:
        raise ValueError("SVG export is only available for two reduced dimensions")
    size, margin = 500.0, 40.0

    def sx(v: float) -> str:
        return f"{margin + v * size:.2f}"

    def sy(v: float) -> str:
        return f"{margin + (1.0 - v) * size:.2f}"

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{int(size + 2 * margin)}" height="{int(size + 2 * margin)}" '
        f'viewBox="0 0 {int(size + 2 * margin)} {int(size + 2 * margin)}">',
        f'<rect x="{sx(0)}" y="{sy(1)}" width="{size:.2f}" height="{size:.2f}" '
        'fill="white" stroke="black"/>',
    ]
    for cid, lo, hi, status in zip(p.ids, p.lo.tolist(), p.hi.tolist(), p.status):
        if status == EXCLUDED:
            continue
        w = (hi[0] - lo[0]) * size
        h = (hi[1] - lo[1]) * size
        fill = "#d98c8c" if status == BAD else "none"
        out.append(
            f'<rect x="{sx(lo[0])}" y="{sy(hi[1])}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}" fill-opacity="0.6" stroke="#999999" stroke-width="0.5"/>'
        )
        if status == SAFE:
            cx = 0.5 * (lo[0] + hi[0])
            cy = 0.5 * (lo[1] + hi[1])
            out.append(
                f'<text x="{sx(cx)}" y="{sy(cy)}" font-size="12" text-anchor="middle" '
                f'dominant-baseline="middle" fill="#333333">{cid}</text>'
            )
    # simplex boundary x0 + x1 = 1
    out.append(
        f'<line x1="{sx(0)}" y1="{sy(1)}" x2="{sx(1)}" y2="{sy(0)}" '
        'stroke="#2b6cb0" stroke-width="1.5"/>'
    )
    # threshold boundary on the secret mass
    lam = m.threshold
    secret_dims = [k for k in sorted(m.secret) if k < 2]
    if len(secret_dims) == 2 and 0.0 <= lam <= 1.0:
        out.append(
            f'<line x1="{sx(0)}" y1="{sy(lam)}" x2="{sx(lam)}" y2="{sy(0)}" '
            'stroke="#b03030" stroke-width="1.5" stroke-dasharray="6,3"/>'
        )
    elif len(secret_dims) == 1 and 0.0 <= lam <= 1.0:
        k = secret_dims[0]
        if k == 0:
            out.append(
                f'<line x1="{sx(lam)}" y1="{sy(0)}" x2="{sx(lam)}" y2="{sy(1)}" '
                'stroke="#b03030" stroke-width="1.5" stroke-dasharray="6,3"/>'
            )
        else:
            out.append(
                f'<line x1="{sx(0)}" y1="{sy(lam)}" x2="{sx(1)}" y2="{sy(lam)}" '
                'stroke="#b03030" stroke-width="1.5" stroke-dasharray="6,3"/>'
            )
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        out.append(
            f'<circle cx="{sx(initial[0])}" cy="{sy(initial[1])}" r="5" fill="black"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
