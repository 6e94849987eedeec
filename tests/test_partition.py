import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import belief_opacity as bo
from conftest import random_mdp


def two_state_model(secret_first=True, lam=0.8, pi0=(0.75, 0.25)):
    return bo.Mdp(
        states=("sA", "sB"),
        pi0=np.array(pi0),
        actions=("a",),
        trans={"a": np.array([[0.6, 0.4], [0.4, 0.6]])},
        secret=frozenset({0} if secret_first else {1}),
        threshold=lam,
    )


class TestBuildGrid:
    def test_three_state_counts(self, partition3):
        counts = partition3.counts()
        assert len(partition3.cells) == 25
        assert counts == {"safe": 6, "bad": 9, "excluded": 10}

    def test_single_cell_two_state_model(self):
        p = bo.build_grid(1.0, two_state_model(lam=1.0))
        assert len(p.cells) == 1
        assert p.cells[0].status == bo.SAFE
        np.testing.assert_array_equal(p.cells[0].box.lo, [0.0])
        np.testing.assert_array_equal(p.cells[0].box.hi, [1.0])

    def test_zero_threshold_marks_positive_corners_bad(self, mdp3):
        from dataclasses import replace

        p = bo.build_grid(0.2, replace(mdp3, threshold=0.0))
        counts = p.counts()
        assert counts["safe"] == 0
        assert counts["bad"] == 15

    def test_non_dividing_width_truncates(self, mdp3):
        p = bo.build_grid([0.3, 0.5], mdp3)
        lo0 = sorted({float(c.box.lo[0]) for c in p.cells})
        hi0 = sorted({float(c.box.hi[0]) for c in p.cells})
        assert lo0 == [i * 0.3 for i in range(4)]  # last cell truncated at 1
        assert hi0[-1] == 1.0

    def test_bad_widths_rejected(self, mdp3):
        for width in (-0.1, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                bo.build_grid(width, mdp3)
        with pytest.raises(ValueError):
            bo.build_grid([0.2], mdp3)  # needs one width per dimension


class TestGridCeiling:
    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        # the ceiling must be checked before any edge list is built
        def allocate(*args):
            raise AssertionError("grid edges built before the size check")

        monkeypatch.setattr(bo.partition, "_axis_edges", allocate)

    @pytest.mark.parametrize("width", [1e-5, 1e-300, 5e-324])
    def test_too_many_cells_rejected_before_allocating(self, mdp3, width):
        with pytest.raises(ValueError, match="more than 5000000 cells"):
            bo.build_grid(width, mdp3)

    def test_one_fine_axis_is_enough(self, mdp3):
        with pytest.raises(ValueError, match="more than"):
            bo.build_grid([0.5, 1e-7], mdp3)

    def test_ceiling_is_inclusive(self, mdp3, monkeypatch):
        monkeypatch.undo()
        monkeypatch.setattr(bo.partition, "MAX_GRID_CELLS", 100)
        assert len(bo.build_grid(0.1, mdp3).ids) == 100
        with pytest.raises(ValueError, match="more than 100 cells"):
            bo.build_grid(1 / 11, mdp3)


def reference_status(box, m):
    """The per-cell classification rule, written out: excluded when the lower
    corner sums to >= 1, bad when the upper corner's secret mass exceeds the
    threshold."""
    if float(box.lo.sum()) >= 1.0:
        return bo.EXCLUDED
    if float(box.hi[sorted(m.secret)].sum()) > m.threshold:
        return bo.BAD
    return bo.SAFE


class TestArrayPartition:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_status_matches_classify_cell(self, n):
        rng = np.random.default_rng(100 + n)
        corner_sums_one = truncated = 0
        for widths in (0.25, 0.3, [0.5, 0.3, 0.25, 0.2][: n - 1]):
            m = random_mdp(rng, n, threshold=float(rng.uniform(0.2, 0.9)))
            p = bo.build_grid(widths, m)
            cells = p.cells
            assert [c.id for c in cells] == list(p.ids) == list(range(len(cells)))
            assert list(p.status) == [c.status for c in cells]
            assert list(p.status) == [bo.classify_cell(c.box, m) for c in cells]
            assert list(p.status) == [reference_status(c.box, m) for c in cells]
            corner_sums_one += sum(float(c.box.lo.sum()) == 1.0 for c in cells)
            truncated += sum(bool(np.any(c.box.hi - c.box.lo < 0.2)) for c in cells)
        assert truncated > 0
        if n > 2:
            assert corner_sums_one > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lazy_cells_match_the_arrays_after_refining(self, n):
        rng = np.random.default_rng(200 + n)
        refined = 0
        for _ in range(6):
            m = random_mdp(rng, n)
            m = replace(m, threshold=min(1.0, m.secret_mass(m.pi0) + 0.01))
            p = bo.build_grid(0.3, m)
            x0 = bo.reduce_belief(m.pi0)
            if p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
                p = bo.refine_initial(p, x0, m)
                refined += 1
            assert list(p.ids) == sorted(p.ids)
            assert len(p.cells) == len(p.ids) == len(p.status) == len(p.lo) == len(p.hi)
            for row, c in enumerate(p.cells):
                assert (c.id, c.status) == (p.ids[row], p.status[row])
                assert c.box.lo.tobytes() == p.lo[row].tobytes()
                assert c.box.hi.tobytes() == p.hi[row].tobytes()
                assert p.cell(c.id) == c
                assert c.status == reference_status(c.box, m)
            assert p.counts() == {s: [c.status for c in p.cells].count(s)
                                  for s in (bo.SAFE, bo.BAD, bo.EXCLUDED)}
            assert p.safe_cells() == tuple(c for c in p.cells if c.status == bo.SAFE)
        assert refined > 0


class TestClassifyCell:
    def test_shaded_cell_is_bad(self, mdp3):
        box = bo.IntervalBox(lo=np.array([0.0, 0.6]), hi=np.array([0.2, 0.8]))
        assert bo.classify_cell(box, mdp3) == bo.BAD

    def test_initial_cell_is_safe(self, mdp3):
        box = bo.IntervalBox(lo=np.array([0.2, 0.0]), hi=np.array([0.4, 0.2]))
        assert bo.classify_cell(box, mdp3) == bo.SAFE

    def test_outside_simplex_is_excluded(self, mdp3):
        box = bo.IntervalBox(lo=np.array([0.8, 0.2]), hi=np.array([1.0, 0.4]))
        assert bo.classify_cell(box, mdp3) == bo.EXCLUDED

    def test_corner_mass_exactly_at_threshold_is_safe(self, mdp3):
        box = bo.IntervalBox(lo=np.array([0.3, 0.3]), hi=np.array([0.4, 0.4]))
        assert bo.classify_cell(box, mdp3) == bo.SAFE  # 0.8 is not > 0.8

    def test_requires_canonical_order(self):
        m = bo.Mdp(states=("x", "y"), pi0=np.array([0.5, 0.5]), actions=("a",),
                   trans={"a": np.eye(2)}, secret=frozenset({1}), threshold=0.5)
        with pytest.raises(ValueError, match="canonically ordered"):
            bo.classify_cell(bo.IntervalBox(lo=np.zeros(1), hi=np.ones(1)), m)

    def test_enlarging_never_flips_bad_to_safe(self, mdp3):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p1, p2 = rng.uniform(size=2), rng.uniform(size=2)
            box = bo.IntervalBox(lo=np.minimum(p1, p2), hi=np.maximum(p1, p2))
            grow = rng.uniform(0, 0.2, size=2)
            bigger = bo.IntervalBox(
                lo=np.maximum(box.lo - grow, 0.0), hi=np.minimum(box.hi + grow, 1.0)
            )
            if bo.classify_cell(box, mdp3) == bo.BAD:
                assert bo.classify_cell(bigger, mdp3) != bo.SAFE

    def test_non_excluded_cells_touch_the_domain(self, partition3):
        for c in partition3.cells:
            if c.status != bo.EXCLUDED:
                assert float(c.box.lo.sum()) < 1.0  # the lower corner lies inside


class TestLocateCell:
    def test_initial_belief_cell(self, mdp3, partition3):
        cid = bo.locate_cell(bo.reduce_belief(mdp3.pi0), partition3)
        cell = partition3.cell(cid)
        np.testing.assert_array_equal(cell.box.lo, [0.2, 0.0])
        safe_ids = sorted(c.id for c in partition3.safe_cells())
        assert safe_ids.index(cid) == 3  # fourth safe cell, counting from zero

    def test_origin(self, partition3):
        cid = bo.locate_cell(np.zeros(2), partition3)
        np.testing.assert_array_equal(partition3.cell(cid).box.lo, [0.0, 0.0])

    def test_grid_corner_goes_to_upper_cell(self, partition3):
        cid = bo.locate_cell(np.array([0.2, 0.2]), partition3)
        np.testing.assert_array_equal(partition3.cell(cid).box.lo, [0.2, 0.2])

    def test_outer_boundary_falls_back_to_last_cell(self, partition3):
        cid = bo.locate_cell(np.array([1.0, 0.0]), partition3)
        np.testing.assert_array_equal(partition3.cell(cid).box.lo, [0.8, 0.0])

    def test_simplex_boundary_corner_is_not_excluded(self, partition3):
        cid = bo.locate_cell(np.array([0.6, 0.4]), partition3)
        assert partition3.cell(cid).status != bo.EXCLUDED

    def test_rejects_points_outside_unit_box(self, partition3):
        with pytest.raises(ValueError):
            bo.locate_cell(np.array([1.2, 0.0]), partition3)

    def test_rejects_points_outside_domain(self, partition3):
        with pytest.raises(ValueError):
            bo.locate_cell(np.array([0.9, 0.9]), partition3)

    def test_total_on_domain_and_agrees_with_membership(self, partition3):
        rng = np.random.default_rng(7)
        pts = rng.dirichlet(np.ones(3), size=3000)[:, :2]
        located = 0
        for x in pts:
            cid = bo.locate_cell(x, partition3)
            cell = partition3.cell(cid)
            assert cell.box.contains(x)
            assert cell.status != bo.EXCLUDED
            located += 1
        assert located / len(pts) >= 0.999  # safe+bad cells cover the domain


class TestRefineInitial:
    def test_safe_initial_cell_is_untouched(self, mdp3, partition3):
        p = bo.refine_initial(partition3, bo.reduce_belief(mdp3.pi0), mdp3)
        assert p is partition3

    def test_one_dimensional_bisection_matches_oracle(self):
        m = two_state_model(lam=0.8, pi0=(0.75, 0.25))
        p = bo.build_grid(0.9, m)
        x0 = np.array([0.75])
        assert p.cell(bo.locate_cell(x0, p)).status == bo.BAD

        # brute-force midpoint bisection oracle on the interval [0, 0.9]
        lo, hi = 0.0, 0.9
        while hi > 0.8:  # the cell corner is its upper bound here
            mid = 0.5 * (lo + hi)
            if 0.75 >= mid:
                lo = mid
            else:
                hi = mid
        refined = bo.refine_initial(p, x0, m)
        cell = refined.cell(bo.locate_cell(x0, refined))
        assert cell.status == bo.SAFE
        assert float(cell.box.lo[0]) == lo
        assert float(cell.box.hi[0]) == hi

    def test_point_on_a_split_line_keeps_the_upper_half(self):
        # x0 = 0.5 lies on the first split line; the upper half owns it
        m = two_state_model(lam=0.6, pi0=(0.5, 0.5))
        x0 = np.array([0.5])
        refined = bo.refine_initial(bo.build_grid(1.0, m), x0, m)
        cell = refined.cell(bo.locate_cell(x0, refined))
        assert cell.status == bo.SAFE
        assert (float(cell.box.lo[0]), float(cell.box.hi[0])) == (0.5, 0.5625)

    def test_zero_budget_raises(self):
        m = two_state_model(lam=0.8, pi0=(0.75, 0.25))
        p = bo.build_grid(0.9, m)
        with pytest.raises(bo.RefinementFailedError):
            bo.refine_initial(p, np.array([0.75]), m, max_depth=0)

    def test_refined_partition_still_locates_everywhere(self, mdp3):
        from dataclasses import replace

        # a coarse grid whose initial cell is bad, forcing a few bisections
        m = replace(mdp3, threshold=0.45)
        p = bo.build_grid(0.5, m)
        x0 = bo.reduce_belief(m.pi0)
        refined = bo.refine_initial(p, x0, m)
        assert refined.cell(bo.locate_cell(x0, refined)).status == bo.SAFE
        assert refined.grid_edges == p.grid_edges
        assert list(refined.splits) == [bo.locate_cell(x0, p)]
        rng = np.random.default_rng(2)
        for x in rng.dirichlet(np.ones(3), size=500)[:, :2]:
            cell = refined.cell(bo.locate_cell(x, refined))
            assert cell.box.contains(x)

    def test_interiors_stay_disjoint_after_refining(self, mdp3):
        from dataclasses import replace

        m = replace(mdp3, threshold=0.45)
        p = bo.refine_initial(bo.build_grid(0.5, m), bo.reduce_belief(m.pi0), m)
        cells = list(p.cells)
        for i, c1 in enumerate(cells):
            for c2 in cells[i + 1:]:
                inter_lo = np.maximum(c1.box.lo, c2.box.lo)
                inter_hi = np.minimum(c1.box.hi, c2.box.hi)
                assert not np.all(inter_lo < inter_hi)


def scan_locate(x, p):
    """Reference point location: test every cell.  Among non-excluded cells
    whose closed box holds x, the lexicographically largest lower corner,
    then the largest id; None when no cell qualifies."""
    xs = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    los = np.array([c.box.lo for c in p.cells])
    his = np.array([c.box.hi for c in p.cells])
    usable = np.array([c.status != bo.EXCLUDED for c in p.cells])
    hits = np.nonzero(usable & np.all(los <= xs, axis=1) & np.all(xs <= his, axis=1))[0]
    if hits.size == 0:
        return None
    return max((tuple(los[i]), p.cells[i].id) for i in hits)[1]


def probe_points(p):
    """Grid vertices and face centres, the corners and face centres of every
    refined cell (its split lines), and the simplex-boundary points above
    each grid vertex.  Vertices and faces include the outer boundary 1.0."""
    edges = [np.array(e) for e in p.grid_edges]
    mids = [0.5 * (e[:-1] + e[1:]) for e in edges]
    pts = [np.array(v) for v in itertools.product(*edges)]
    for k in range(p.dim):
        axes = [edges[j] if j == k else mids[j] for j in range(p.dim)]
        pts += [np.array(v) for v in itertools.product(*axes)]
    n_grid = int(np.prod([len(e) - 1 for e in edges]))
    for c in p.cells:
        if c.id < n_grid:
            continue
        pts += [np.array(v) for v in itertools.product(*zip(c.box.lo, c.box.hi))]
        centre = 0.5 * (c.box.lo + c.box.hi)
        for k in range(p.dim):
            for face in (c.box.lo[k], c.box.hi[k]):
                q = centre.copy()
                q[k] = face
                pts.append(q)
    for v in itertools.product(*edges):
        rest = 1.0 - sum(v[:-1])
        if rest >= 0.0:
            pts.append(np.array(v[:-1] + (rest,)))
    return pts


@st.composite
def refined_partitions(draw):
    """A grid of 1-3 reduced dimensions, refined around up to three initial
    beliefs whose cells are bad, plus a few random beliefs."""
    dim = draw(st.integers(1, 3))
    widths = [draw(st.sampled_from([0.5, 1 / 3, 0.3, 0.25])) for _ in range(dim)]
    secret = draw(st.sets(st.integers(0, dim - 1), min_size=1))
    lam = draw(st.floats(0.2, 0.95))
    m = bo.Mdp(
        states=tuple(f"s{i}" for i in range(dim + 1)),
        pi0=np.full(dim + 1, 1.0 / (dim + 1)),
        actions=("a",),
        trans={"a": np.eye(dim + 1)},
        secret=frozenset(secret),
        threshold=lam,
    )
    p = bo.build_grid(widths, m)
    weights = st.lists(st.floats(0.01, 1.0), min_size=dim + 1, max_size=dim + 1)
    beliefs = [np.array(w) / sum(w) for w in draw(st.lists(weights, min_size=1, max_size=6))]
    for b in beliefs[:3]:
        x0 = b[:-1]
        if m.secret_mass(b) <= lam - 0.01 and p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
            p = bo.refine_initial(p, x0, m)
    return p, [b[:-1] for b in beliefs]


class TestLocateMatchesScan:
    @settings(max_examples=60, deadline=None)
    @given(refined_partitions())
    def test_same_id_as_the_scan(self, case):
        p, beliefs = case
        for x in probe_points(p) + beliefs:
            try:
                got = bo.locate_cell(x, p)
            except ValueError:
                got = None
            assert got == scan_locate(x, p), x


class TestExports:
    def test_csv_lists_every_cell(self, partition3):
        text = bo.partition_to_csv(partition3)
        lines = text.strip().split("\n")
        assert lines[0] == "id,lo0,lo1,hi0,hi1,status"
        assert len(lines) == 26
        assert lines[1].startswith("0,0.0,0.0,")

    def test_svg_renders_two_dimensional_partitions(self, mdp3, partition3):
        svg = bo.partition_to_svg(partition3, mdp3, initial=np.array([0.3, 0.1]))
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 16  # frame plus the 15 usable cells
        assert "<circle" in svg

    def test_svg_rejects_other_dimensions(self):
        m = two_state_model()
        p = bo.build_grid(0.5, m)
        with pytest.raises(ValueError):
            bo.partition_to_svg(p, m)
