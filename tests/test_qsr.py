"""Per-frame spatial relations: RCC2, depth predicates, DiSR, RCC5(+On)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgraph.convexity import ConcavityBounds, ConvexityType
from affgraph.qsr import (
    DisrRelation,
    EntityFrameState,
    Rcc2Relation,
    Rcc5OnRelation,
    disr,
    dpo,
    dpp,
    on,
    overlap_2d,
    part_2d,
    rcc2,
    rcc5_on,
)
from affgraph.scene import BoundingBox

CONVERSE = {
    DisrRelation.SUP: DisrRelation.SUPI,
    DisrRelation.SUPI: DisrRelation.SUP,
    DisrRelation.CONT: DisrRelation.CONTI,
    DisrRelation.CONTI: DisrRelation.CONT,
    DisrRelation.ADJ: DisrRelation.ADJ,
    DisrRelation.NI: DisrRelation.NI,
}


def _box(x0, y0, x1, y1):
    return BoundingBox(float(x0), float(y0), float(x1), float(y1))


def _state(box, depth=None, bounds=None, conv=None):
    return EntityFrameState(bbox=_box(*box), depth_range=depth,
                            concavity_bounds=bounds, convexity=conv)


def _mask(arr):
    return np.asarray(arr, dtype=bool)


# -- RCC2 ---------------------------------------------------------------------

# masks decide; these boxes of a whole 8x8 grid never would
_WHOLE = _box(0, 0, 8, 8)


def test_rcc2_identity_and_disjoint():
    a = _mask([[1, 1, 0, 0], [1, 1, 0, 0]])
    b = _mask([[0, 0, 1, 1], [0, 0, 1, 1]])
    assert rcc2(a, a, _WHOLE, _WHOLE) is Rcc2Relation.C
    assert rcc2(a, b, _WHOLE, _WHOLE) is Rcc2Relation.DC


def test_rcc2_single_pixel_contact():
    a = _mask([[1, 1, 0], [0, 1, 0]])
    b = _mask([[0, 0, 1], [0, 1, 1]])  # shares only pixel (1,1)
    assert rcc2(a, b, _WHOLE, _WHOLE) is Rcc2Relation.C


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_rcc2_matches_pixel_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    arr_a = rng.random((h, w)) < 0.4
    arr_b = rng.random((h, w)) < 0.4
    shared = any(arr_a[r, c] and arr_b[r, c]
                 for r in range(h) for c in range(w))
    expect = Rcc2Relation.C if shared else Rcc2Relation.DC
    assert rcc2(_mask(arr_a), _mask(arr_b), _WHOLE, _WHOLE) is expect


def test_rcc2_bbox_fallback_and_errors():
    assert rcc2(None, None, _box(0, 0, 10, 10), _box(5, 5, 15, 15)) is Rcc2Relation.C
    assert rcc2(None, None, _box(0, 0, 10, 10), _box(20, 0, 30, 10)) is Rcc2Relation.DC
    # one mask missing falls back to the boxes too
    assert rcc2(_mask([[1]]), None, _box(0, 0, 10, 10), _box(20, 0, 30, 10)) \
        is Rcc2Relation.DC
    with pytest.raises(ValueError):
        rcc2(_mask([[1]]), _mask([[1, 0]]), _WHOLE, _WHOLE)


# -- depth primitives ---------------------------------------------------------

def test_dpo_examples():
    assert dpo((10.0, 20.0), (15.0, 30.0)) is True
    assert dpo((15.0, 30.0), (10.0, 20.0)) is True
    assert dpo((10.0, 20.0), (10.0, 20.0)) is False  # identical ranges
    assert dpo((12.0, 18.0), (10.0, 20.0)) is False  # nesting is not overlap
    assert dpo((10.0, 12.0), (20.0, 30.0)) is False  # disjoint ranges
    assert dpo(None, (10.0, 20.0)) is False


@given(st.tuples(st.integers(0, 100), st.integers(0, 100)),
       st.tuples(st.integers(0, 100), st.integers(0, 100)),
       st.integers(-50, 50))
def test_dpo_symmetric_and_shift_invariant(p, q, c):
    a = (float(min(p)), float(max(p)))
    b = (float(min(q)), float(max(q)))
    assert dpo(a, b) == dpo(b, a)
    a2 = (a[0] + c, a[1] + c)
    b2 = (b[0] + c, b[1] + c)
    assert dpo(a2, b2) == dpo(a, b)


def test_dpp_examples():
    band = ConcavityBounds(dc_min=14.0, dc_max=20.0)
    assert dpp((15.0, 18.0), band) is True
    assert dpp((14.0, 20.0), band) is True  # fills the band exactly
    assert dpp((10.0, 13.0), band) is False  # entirely above the band
    assert dpp((15.0, 22.0), band) is False  # spills below
    assert dpp(None, band) is False
    assert dpp((15.0, 18.0), None) is False


def test_on_examples():
    b = _box(0, 0, 10, 10)
    assert on(b, b) is True
    assert on(_box(2, 0, 8, 6), b) is True  # nested, flush with the top edge
    assert on(_box(2, 2, 8, 8), b) is False  # fully below the base's top edge
    assert on(_box(-2, 0, 8, 6), b) is False  # sticks out horizontally
    assert on(b, _box(2, 0, 8, 6)) is False  # wider than the base
    assert on(_box(0, 20, 10, 30), b) is False  # no overlap


# -- DiSR ---------------------------------------------------------------------

TABLE_DEPTH = (10.0, 22.0)
BALL_NEAR = (8.0, 14.0)  # straddles the table's near edge
BOWL_BAND = ConcavityBounds(dc_min=14.0, dc_max=22.0)

DISR_CASES = [
    # (state_a, state_b, expected (a,b), comment)
    (_state((0, 0, 40, 40), TABLE_DEPTH, None, ConvexityType.SURFACE),
     _state((10, 10, 20, 20), BALL_NEAR, None, ConvexityType.CONVEX),
     DisrRelation.SUP),  # depth-overlap support by a surface
    (_state((0, 0, 40, 40), None, None, None),
     _state((5, 0, 15, 20), None, None, None),
     DisrRelation.SUP),  # 2-D On fallback, no depth at all
    (_state((0, 0, 30, 30), TABLE_DEPTH, BOWL_BAND, ConvexityType.CONCAVE),
     _state((5, 5, 25, 25), (15.0, 20.0), None, ConvexityType.CONVEX),
     DisrRelation.CONT),  # ball inside the bowl's depth band
    (_state((0, 0, 20, 20), (10.0, 18.0), None, ConvexityType.CONVEX),
     _state((10, 0, 30, 20), (14.0, 22.0), None, ConvexityType.CONVEX),
     DisrRelation.ADJ),  # overlapping convex neighbours at similar depth
    (_state((0, 0, 10, 10), (10.0, 12.0), None, ConvexityType.CONVEX),
     _state((20, 0, 30, 10), (10.0, 12.0), None, ConvexityType.CONVEX),
     DisrRelation.NI),  # spatially disjoint
    (_state((0, 0, 20, 20), (10.0, 12.0), None, ConvexityType.CONVEX),
     _state((10, 5, 30, 25), (30.0, 40.0), None, ConvexityType.CONVEX),
     DisrRelation.NI),  # 2-D overlap but depth ranges far apart
    (_state((0, 0, 30, 30), TABLE_DEPTH, BOWL_BAND, ConvexityType.CONCAVE),
     _state((5, 5, 25, 25), (2.0, 6.0), None, ConvexityType.CONVEX),
     DisrRelation.NI),  # inside the bowl's box but well above the band, no dpo
]


@pytest.mark.parametrize("a,b,expected", DISR_CASES)
def test_disr_fixture_table(a, b, expected):
    rel_ab, rel_ba = disr(a, b)
    assert rel_ab is expected
    assert rel_ba is CONVERSE[expected]
    # the flipped context reports the converse pair
    rel_ba2, rel_ab2 = disr(b, a)
    assert (rel_ab2, rel_ba2) == (rel_ab, rel_ba)


def test_disr_priority_cont_over_sup():
    # a concave bowl whose band holds b, while b also rests On a's box:
    # containment wins over support
    a = _state((0, 0, 30, 30), (10.0, 22.0), BOWL_BAND, ConvexityType.CONCAVE)
    b = _state((5, 0, 25, 20), (15.0, 20.0), None, ConvexityType.CONVEX)
    assert on(b.bbox, a.bbox)
    assert disr(a, b) == (DisrRelation.CONT, DisrRelation.CONTI)


def test_disr_occlusion_degrades_to_ni_or_on():
    # with depth stripped, every depth-based relation collapses; only the 2-D
    # On fallback can still assert support
    for a, b, expected in DISR_CASES:
        a2 = _state((a.bbox.xmin, a.bbox.ymin, a.bbox.xmax, a.bbox.ymax))
        b2 = _state((b.bbox.xmin, b.bbox.ymin, b.bbox.xmax, b.bbox.ymax))
        assert a2.depth_range is None and b2.depth_range is None
        rel_ab, _ = disr(a2, b2)
        if not on(a2.bbox, b2.bbox) and not on(b2.bbox, a2.bbox):
            assert rel_ab is DisrRelation.NI
        else:
            assert rel_ab in (DisrRelation.SUP, DisrRelation.SUPI)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_disr_total_and_converse_coherent(seed):
    rng = np.random.default_rng(seed)

    def rand_state():
        x0, y0 = rng.integers(0, 20, size=2)
        w, h = rng.integers(1, 20, size=2)
        depth = None
        bounds = None
        if rng.random() < 0.8:
            d0 = float(rng.integers(0, 30))
            depth = (d0, d0 + float(rng.integers(0, 15)))
        conv = [None, ConvexityType.CONVEX, ConvexityType.SURFACE,
                ConvexityType.CONCAVE][rng.integers(4)]
        if conv is ConvexityType.CONCAVE:
            c0 = float(rng.integers(0, 30))
            bounds = ConcavityBounds(c0, c0 + float(rng.integers(1, 15)))
        return _state((x0, y0, x0 + w, y0 + h), depth, bounds, conv)

    a, b = rand_state(), rand_state()
    rel_ab, rel_ba = disr(a, b)
    assert rel_ab in DisrRelation and rel_ba in DisrRelation
    assert rel_ba is CONVERSE[rel_ab]
    assert disr(b, a) == (rel_ba, rel_ab)


def test_disr_depth_translation_invariance():
    shift = 37.5
    for a, b, expected in DISR_CASES:
        def shifted(s):
            depth = None if s.depth_range is None else (
                s.depth_range[0] + shift, s.depth_range[1] + shift)
            bounds = None if s.concavity_bounds is None else ConcavityBounds(
                s.concavity_bounds.dc_min + shift, s.concavity_bounds.dc_max + shift)
            return EntityFrameState(bbox=s.bbox, depth_range=depth,
                                    concavity_bounds=bounds, convexity=s.convexity)
        assert disr(shifted(a), shifted(b))[0] is expected


# -- RCC5(+On) ----------------------------------------------------------------

def _rcc5_oracle(a, b):
    """Plain RCC5 over boxes; its EQ, which ``rcc5_on`` never gives, is "EQ"."""
    equal = (a.xmin, a.ymin, a.xmax, a.ymax) == (b.xmin, b.ymin, b.xmax, b.ymax)
    if equal:
        return "EQ"
    if part_2d(a, b):
        return Rcc5OnRelation.PP
    if part_2d(b, a):
        return Rcc5OnRelation.PPI
    if overlap_2d(a, b):
        return Rcc5OnRelation.PO
    return Rcc5OnRelation.DR


def test_rcc5_jepd_small_boxes():
    boxes = [_box(x0, y0, x1, y1)
             for x0, x1 in itertools.combinations(range(4), 2)
             for y0, y1 in itertools.combinations(range(4), 2)]
    seen = set()
    for a, b in itertools.product(boxes, repeat=2):
        rel = rcc5_on(a, b)
        if on(a, b):
            assert rel is Rcc5OnRelation.ON
        elif on(b, a):
            assert rel is Rcc5OnRelation.ONI
        else:
            assert rel is _rcc5_oracle(a, b)
        seen.add(rel)
    # equal boxes satisfy On, so every base RCC5 value but EQ shows
    assert seen == {Rcc5OnRelation.ON, Rcc5OnRelation.ONI, Rcc5OnRelation.PP,
                    Rcc5OnRelation.PPI, Rcc5OnRelation.PO, Rcc5OnRelation.DR}


def test_rcc5_on_gives_on_for_equal_boxes():
    boxes = [_box(x0, y0, x1, y1)
             for x0, x1 in itertools.combinations(range(4), 2)
             for y0, y1 in itertools.combinations(range(4), 2)]
    boxes += [_box(0.5, 2.25, 40, 31.75), _box(0, 0, 64, 48)]
    for b in boxes:
        twin = _box(b.xmin, b.ymin, b.xmax, b.ymax)
        assert on(b, twin) and on(twin, b)
        assert rcc5_on(b, twin) is Rcc5OnRelation.ON
    assert {r.value for r in Rcc5OnRelation} == {"DR", "PO", "PP", "PPi", "On", "Oni"}


def test_rcc5_on_priority():
    b = _box(0, 0, 10, 10)
    assert rcc5_on(b, b) is Rcc5OnRelation.ON  # equal boxes satisfy On first
    assert _rcc5_oracle(b, b) == "EQ"
    top = _box(2, 0, 8, 6)
    assert rcc5_on(top, b) is Rcc5OnRelation.ON
    assert rcc5_on(b, top) is Rcc5OnRelation.ONI
    # nested but clear of the top edge: On fails, plain proper part remains
    inner = _box(2, 5, 8, 9)
    assert rcc5_on(inner, b) is Rcc5OnRelation.PP
