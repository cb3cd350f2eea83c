"""Convexity typing, concavity bounds, and surviving contour holes."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from affgraph import convexity
from affgraph.convexity import (
    ConcavityBounds,
    ConvexityType,
    FrameDepth,
    convexity_depth,
    deep_region,
    label_components,
    object_convexity,
    surviving_hole_counts,
    surviving_holes,
    track_convexity,
)

from convexity_oracle import children_of, contour_hierarchy, contour_hierarchy_oracle
from relations_oracle import majority_convexity


def flood_fill_hole_count(grid: np.ndarray) -> int:
    """Oracle: 4-connected background components not reachable from the border."""
    grid = np.asarray(grid, dtype=bool)
    h, w = grid.shape
    seen = np.zeros_like(grid, dtype=bool)

    def fill(r0, c0):
        q = deque([(r0, c0)])
        seen[r0, c0] = True
        while q:
            r, c = q.popleft()
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and not grid[rr, cc] and not seen[rr, cc]:
                    seen[rr, cc] = True
                    q.append((rr, cc))

    for r in range(h):
        for c in (0, w - 1):
            if not grid[r, c] and not seen[r, c]:
                fill(r, c)
    for c in range(w):
        for r in (0, h - 1):
            if not grid[r, c] and not seen[r, c]:
                fill(r, c)
    holes = 0
    for r in range(h):
        for c in range(w):
            if not grid[r, c] and not seen[r, c]:
                holes += 1
                fill(r, c)
    return holes


def test_contour_hierarchy_solid_square():
    grid = np.zeros((8, 8), dtype=bool)
    grid[2:6, 2:6] = True
    tree = contour_hierarchy(grid)
    kids = children_of(tree, 0)
    assert len(kids) == 1 and not kids[0].is_hole
    assert children_of(tree, kids[0].id) == []
    assert tree.hole_count() == surviving_holes(grid) == 0


def test_contour_hierarchy_ring():
    grid = np.zeros((10, 10), dtype=bool)
    grid[2:8, 2:8] = True
    grid[4:6, 4:6] = False
    tree = contour_hierarchy(grid)
    kids = children_of(tree, 0)
    assert len(kids) == 1
    inner = children_of(tree, kids[0].id)
    assert len(inner) == 1 and inner[0].is_hole
    assert tree.hole_count() == surviving_holes(grid) == 1


def test_contour_hierarchy_ring_plus_blob():
    grid = np.zeros((12, 16), dtype=bool)
    grid[2:9, 2:9] = True
    grid[4:7, 4:7] = False  # hole in the ring
    grid[3:6, 11:14] = True  # separate solid blob
    tree = contour_hierarchy(grid)
    kids = children_of(tree, 0)
    assert len(kids) == 2
    hole_kids = [children_of(tree, k.id) for k in kids]
    assert sorted(len(k) for k in hole_kids) == [0, 1]
    assert tree.hole_count() == surviving_holes(grid) == flood_fill_hole_count(grid) == 1


def test_contour_hierarchy_nested_island():
    # component inside a hole becomes a child of that hole node
    grid = np.zeros((12, 12), dtype=bool)
    grid[1:11, 1:11] = True
    grid[3:9, 3:9] = False
    grid[5:7, 5:7] = True
    tree = contour_hierarchy(grid)
    outer = children_of(tree, 0)
    assert len(outer) == 1
    hole = children_of(tree, outer[0].id)
    assert len(hole) == 1 and hole[0].is_hole
    island = children_of(tree, hole[0].id)
    assert len(island) == 1 and not island[0].is_hole
    assert tree.hole_count() == surviving_holes(grid) == 1


def test_contour_hierarchy_pruning():
    grid = np.zeros((10, 10), dtype=bool)
    grid[1:9, 1:9] = True
    grid[4, 4] = False  # 1-pixel hole, 1/64 of the foreground
    assert surviving_holes(grid, noise_ratio=0.0) == 1
    assert surviving_holes(grid, noise_ratio=0.05) == 0


def test_surviving_holes_prunes_a_hole_with_everything_inside_it():
    # outer ring | thin hole (92 px) | island ring (160 px) | large hole (324 px)
    grid = np.zeros((30, 30), dtype=bool)
    grid[1:29, 1:29] = True
    grid[3:27, 3:27] = False
    grid[4:26, 4:26] = True
    grid[6:24, 6:24] = False
    assert surviving_holes(grid) == 2
    assert surviving_holes(grid, noise_ratio=0.2) == 2  # 0.2 * 368 px < 92
    # 92 < 0.3 * 368 <= 160: the thin hole goes, and the island and its
    # large hole, both above the bar, go with it
    assert surviving_holes(grid, noise_ratio=0.3) == 0
    assert contour_hierarchy_oracle(grid, noise_ratio=0.3).hole_count() == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_contour_hierarchy_matches_flood_fill(seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(3, 24))
    w = int(rng.integers(3, 24))
    grid = rng.random((h, w)) < rng.uniform(0.3, 0.8)
    assert surviving_holes(grid) == flood_fill_hole_count(grid)


def _tree_shape(tree):
    return {i: (n.area, n.is_hole, n.parent, n.children) for i, n in tree.nodes.items()}


@st.composite
def _contour_grids(draw):
    """Random grids, and concentric square rings (nested holes and islands)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = draw(st.integers(1, 28)), draw(st.integers(1, 28))
    if draw(st.booleans()):
        return rng.random((h, w)) < draw(st.floats(0.2, 0.9))
    rows, cols = np.ogrid[:h, :w]
    cy, cx = draw(st.integers(h // 4, h - 1 - h // 4)), draw(st.integers(w // 4, w - 1 - w // 4))
    ring = np.maximum(abs(rows - cy), abs(cols - cx)) // draw(st.integers(1, 3))
    grid = ring % 2 == draw(st.integers(0, 1))
    return grid ^ (rng.random((h, w)) < draw(st.sampled_from([0.0, 0.01, 0.05])))


@settings(max_examples=300, deadline=None)
@given(_contour_grids(), st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5]),
       st.one_of(st.none(), st.integers(1, 400)))
def test_contour_hierarchy_matches_oracle_builder(grid, noise_ratio, reference_area):
    # both trees agree in node ids, areas, hole flags, parents and child
    # order, and the product counts the holes they keep
    tree = contour_hierarchy(grid, noise_ratio, reference_area)
    oracle = contour_hierarchy_oracle(grid, noise_ratio, reference_area)
    assert _tree_shape(tree) == _tree_shape(oracle)
    assert surviving_holes(grid, noise_ratio, reference_area) == oracle.hole_count()


def _assert_labels_are_scipys(grid):
    fg, n_fg, bg, n_bg = label_components(grid)
    ref_fg, ref_n_fg = ndimage.label(grid, structure=np.ones((3, 3)))
    ref_bg, ref_n_bg = ndimage.label(~grid, structure=ndimage.generate_binary_structure(2, 1))
    assert (n_fg, n_bg) == (ref_n_fg, ref_n_bg)
    for got, ref in ((fg, ref_fg), (bg, ref_bg)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@settings(max_examples=300, deadline=None)
@given(_contour_grids())
def test_label_components_matches_scipy(grid):
    _assert_labels_are_scipys(grid)


def _serpentine(n: int) -> np.ndarray:
    """One 8-connected path that snakes down an n x n grid, every 4th row a pass."""
    grid = np.zeros((n, n), dtype=bool)
    grid[::4] = True
    for r in range(0, n - 4, 4):
        grid[r:r + 5, n - 1 if r % 8 == 0 else 0] = True
    return grid


@pytest.mark.parametrize("grid", [
    np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool),
    (np.arange(17) % 3 == 0)[None, :], (np.arange(17) % 3 == 0)[:, None],
    np.ones((6, 9), dtype=bool), np.zeros((6, 9), dtype=bool),
    np.indices((9, 12)).sum(axis=0) % 2 == 0,
    _serpentine(301), ~_serpentine(301),
], ids=["1x1-true", "1x1-false", "1xN", "Nx1", "all-true", "all-false",
        "checkerboard", "serpentine", "serpentine-complement"])
def test_label_components_matches_scipy_on_named_grids(grid):
    _assert_labels_are_scipys(grid)


def test_deep_region_offset_from_dmin():
    depth = np.array([[10.0, 11.0, 20.0], [10.0, 18.0, 10.0]])
    owned = np.ones((2, 3), dtype=bool)
    deep = deep_region(depth, owned, 4.0)
    np.testing.assert_array_equal(
        deep, np.array([[False, False, True], [False, True, False]]))
    # translation invariance of the region
    np.testing.assert_array_equal(deep, deep_region(depth + 100.0, owned, 4.0))


def test_object_convexity_classes():
    # bowl-like: range 12 > thresh 4 with a ring deep region -> concave
    ring = np.zeros((10, 10), dtype=bool)
    ring[2:8, 2:8] = True
    ring[4:6, 4:6] = False
    vals = np.array([10.0, 22.0])
    assert object_convexity(vals, ring, 4.0) is ConvexityType.CONCAVE
    # tabletop: range 12 with a solid deep region -> surface
    solid = np.zeros((10, 10), dtype=bool)
    solid[2:8, 2:8] = True
    assert object_convexity(vals, solid, 4.0) is ConvexityType.SURFACE
    # range 2 < thresh 4 -> convex regardless of holes
    small = np.array([10.0, 12.0])
    assert object_convexity(small, ring, 4.0) is ConvexityType.CONVEX
    # the literal-algorithm switch flips the range inequality
    assert object_convexity(small, ring, 4.0, alg1_literal=True) is ConvexityType.CONCAVE
    assert object_convexity(vals, ring, 4.0, alg1_literal=True) is ConvexityType.CONVEX


def test_object_convexity_depth_offset_invariance():
    ring = np.zeros((10, 10), dtype=bool)
    ring[2:8, 2:8] = True
    ring[4:6, 4:6] = False
    for vals in (np.array([10.0, 22.0]), np.array([5.0, 6.0])):
        base = object_convexity(vals, ring, 4.0)
        assert object_convexity(vals + 77.5, ring, 4.0) is base


def test_convexity_depth_direct_substitution():
    vals = np.array([10.0, 14.0, 20.0])
    b = convexity_depth(vals, ConvexityType.CONCAVE, h=5, n=3)
    assert b == ConcavityBounds(dc_min=14.0, dc_max=20.0)
    b = convexity_depth(vals, ConvexityType.CONVEX, h=5, n=3)
    assert b == ConcavityBounds(dc_min=10.0, dc_max=20.0)
    # zero-range degenerate case
    b = convexity_depth(np.array([9.0]), ConvexityType.CONCAVE, h=5, n=3)
    assert b == ConcavityBounds(dc_min=9.0, dc_max=9.0)


@given(st.floats(1.0, 1000.0), st.floats(0.0, 1000.0),
       st.integers(2, 12), st.data())
def test_convexity_depth_invariant_and_monotone(dmin, span, h, data):
    n = data.draw(st.integers(1, h - 1))
    vals = np.array([dmin, dmin + span])
    b = convexity_depth(vals, ConvexityType.CONCAVE, h=h, n=n)
    assert vals.min() <= b.dc_min + 1e-9
    assert b.dc_min <= b.dc_max
    assert b.dc_max == vals.max()
    if n + 1 < h:
        # dc_min non-increasing in n
        b2 = convexity_depth(vals, ConvexityType.CONCAVE, h=h, n=n + 1)
        assert b2.dc_min <= b.dc_min + 1e-9


def test_convexity_depth_rejects_bad_sections():
    with pytest.raises(ValueError):
        convexity_depth(np.array([1.0]), ConvexityType.CONCAVE, h=3, n=3)


def _ring_and_solid():
    ring = np.zeros((10, 10), dtype=bool)
    ring[2:8, 2:8] = True
    ring[4:6, 4:6] = False
    solid = np.zeros((10, 10), dtype=bool)
    solid[2:8, 2:8] = True
    return ring, solid


def test_track_convexity_majority_and_ties():
    ring, solid = _ring_and_solid()
    # frames typed concave, surface and convex at thresh 4 (see the classes above)
    C = FrameDepth(10.0, 22.0, 32, ring)
    S = FrameDepth(10.0, 22.0, 36, solid)
    V = FrameDepth(10.0, 12.0, 36, np.zeros((10, 10), dtype=bool))
    CONCAVE, SURFACE = ConvexityType.CONCAVE, ConvexityType.SURFACE
    assert track_convexity([C, C, S], 4.0) is CONCAVE
    assert track_convexity([S], 4.0) is SURFACE
    assert track_convexity([C, S], 4.0) is CONCAVE  # tie-break concave > surface
    assert track_convexity([S, V], 4.0) is SURFACE  # tie-break surface > convex
    with pytest.raises(ValueError):
        track_convexity([], 4.0)


@st.composite
def _frame_depths(draw):
    """A track of 1-6 frames: a depth range and owned count, and a deep grid
    (sometimes empty) from ``_contour_grids``."""
    frames = []
    for _ in range(draw(st.integers(1, 6))):
        grid = draw(_contour_grids()) if draw(st.booleans()) else np.zeros((3, 4), dtype=bool)
        dmin = draw(st.floats(1.0, 100.0))
        frames.append(FrameDepth(dmin, dmin + draw(st.sampled_from([0.0, 2.0, 4.0, 9.5])),
                                 draw(st.integers(0, 800)), grid))
    return frames


@settings(max_examples=200, deadline=None)
@given(_frame_depths(), st.sampled_from([0.0, 0.01, 0.05, 0.3]), st.booleans())
def test_track_convexity_votes_the_one_frame_types(frames, noise_ratio, alg1_literal):
    # each frame typed by object_convexity from the same facts, then voted
    types = [object_convexity(np.array([f.dmin, f.dmax]), f.deep, 4.0, noise_ratio,
                              f.owned, alg1_literal) for f in frames]
    assert track_convexity(frames, 4.0, noise_ratio, alg1_literal) is majority_convexity(types)


@st.composite
def _stacks(draw):
    """1-8 grids of mixed shapes, with a reference area each: random and
    ring grids, all-background frames, and a hole in an island in a hole."""
    grids = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["drawn", "empty", "nested"]))
        if kind == "drawn":
            grids.append(draw(_contour_grids()))
        elif kind == "empty":
            grids.append(np.zeros((draw(st.integers(1, 9)), draw(st.integers(1, 9))), dtype=bool))
        else:
            side = draw(st.integers(9, 16))
            rows, cols = np.ogrid[:side, :side]
            ring = np.maximum(abs(rows - side // 2), abs(cols - side // 2))
            # rings out to in: component, hole, island, hole, (island)
            grids.append(ring % 2 == (side // 2) % 2)
    areas = draw(st.lists(st.integers(0, 600), min_size=len(grids), max_size=len(grids)))
    return grids, areas


@settings(max_examples=300, deadline=None)
@given(_stacks(), st.floats(0.0, 0.3), st.booleans())
def test_stacked_hole_counts_match_the_oracle_per_frame(stack, noise_ratio, own_areas):
    grids, areas = stack
    references = areas if own_areas else [None] * len(grids)
    found = surviving_hole_counts(grids, noise_ratio, areas if own_areas else None)
    assert found.tolist() == [
        contour_hierarchy_oracle(grid, noise_ratio, ref).hole_count()
        for grid, ref in zip(grids, references)]


def test_stacked_hole_counts_keep_each_frame_apart():
    # a frame of solid foreground and a frame of only background touch the
    # separator rows; a hole in an island in a hole keeps both of its holes
    side = 9
    rows, cols = np.ogrid[:side, :side]
    nested = np.maximum(abs(rows - 4), abs(cols - 4)) % 2 == 0
    grids = [np.ones((3, 12), dtype=bool), nested, np.zeros((2, 2), dtype=bool), nested[:, :5]]
    assert surviving_hole_counts(grids).tolist() == [0, 2, 0, 0]
    assert surviving_hole_counts([]).tolist() == []
    with pytest.raises(ValueError):
        surviving_hole_counts([nested, np.zeros((0, 3), dtype=bool)])


def test_long_stacks_are_counted_in_halves(monkeypatch):
    ring, solid = _ring_and_solid()
    grids = [ring, solid, ring, ring, solid]
    monkeypatch.setattr(convexity, "MAX_STACK_PIXELS", 150)
    assert surviving_hole_counts(grids).tolist() == [1, 0, 1, 1, 0]
