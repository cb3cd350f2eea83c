"""Allen relations and episode segmentation."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from affgraph.temporal import (
    AllenRelation,
    Calculus,
    Interval,
    allen,
    extract_episodes,
)

import temporal_oracle


ALLEN_CONVERSE = {
    AllenRelation.BEFORE: AllenRelation.AFTER,
    AllenRelation.AFTER: AllenRelation.BEFORE,
    AllenRelation.MEETS: AllenRelation.MET_BY,
    AllenRelation.MET_BY: AllenRelation.MEETS,
    AllenRelation.OVERLAPS: AllenRelation.OVERLAPPED_BY,
    AllenRelation.OVERLAPPED_BY: AllenRelation.OVERLAPS,
    AllenRelation.STARTS: AllenRelation.STARTED_BY,
    AllenRelation.STARTED_BY: AllenRelation.STARTS,
    AllenRelation.DURING: AllenRelation.CONTAINS,
    AllenRelation.CONTAINS: AllenRelation.DURING,
    AllenRelation.FINISHES: AllenRelation.FINISHED_BY,
    AllenRelation.FINISHED_BY: AllenRelation.FINISHES,
    AllenRelation.EQUALS: AllenRelation.EQUALS,
}


def allen_converse(rel: AllenRelation) -> AllenRelation:
    return ALLEN_CONVERSE[rel]


def all_intervals(lo: int, hi: int) -> list[Interval]:
    return [Interval(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)]


def test_interval_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        Interval(3, 2)


def test_allen_fixed_cases():
    assert allen(Interval(1, 5), Interval(1, 5)) is AllenRelation.EQUALS
    assert allen(Interval(1, 3), Interval(5, 7)) is AllenRelation.BEFORE
    # discrete adjacency: no shared frame
    assert allen(Interval(1, 3), Interval(4, 7)) is AllenRelation.MEETS
    assert allen(Interval(4, 7), Interval(1, 3)) is AllenRelation.MET_BY
    assert allen(Interval(1, 4), Interval(3, 7)) is AllenRelation.OVERLAPS
    assert allen(Interval(1, 3), Interval(1, 7)) is AllenRelation.STARTS
    assert allen(Interval(4, 7), Interval(1, 7)) is AllenRelation.FINISHES
    assert allen(Interval(3, 4), Interval(1, 7)) is AllenRelation.DURING


def test_allen_jepd_enumeration():
    # exactly one of the 13 relations holds for every endpoint pair in [0,6]
    intervals = all_intervals(0, 6)
    seen = set()
    for a, b in itertools.product(intervals, repeat=2):
        rel = allen(a, b)
        matches = [r for r in AllenRelation if _holds(a, b, r)]
        assert matches == [rel]
        seen.add(rel)
    assert seen == set(AllenRelation)


def _holds(a: Interval, b: Interval, rel: AllenRelation) -> bool:
    """Independent per-relation definitions over discrete inclusive intervals."""
    defs = {
        AllenRelation.BEFORE: a.end + 1 < b.start,
        AllenRelation.AFTER: b.end + 1 < a.start,
        AllenRelation.MEETS: a.end + 1 == b.start,
        AllenRelation.MET_BY: b.end + 1 == a.start,
        AllenRelation.EQUALS: a.start == b.start and a.end == b.end,
        AllenRelation.STARTS: a.start == b.start and a.end < b.end,
        AllenRelation.STARTED_BY: a.start == b.start and a.end > b.end,
        AllenRelation.FINISHES: a.end == b.end and a.start > b.start,
        AllenRelation.FINISHED_BY: a.end == b.end and a.start < b.start,
        AllenRelation.DURING: a.start > b.start and a.end < b.end,
        AllenRelation.CONTAINS: a.start < b.start and a.end > b.end,
        AllenRelation.OVERLAPS: a.start < b.start and b.start <= a.end < b.end,
        AllenRelation.OVERLAPPED_BY: b.start < a.start and a.start <= b.end < a.end,
    }
    return defs[rel]


def test_allen_converse_coherence():
    for a in all_intervals(0, 6):
        for b in all_intervals(0, 6):
            assert allen(b, a) is allen_converse(allen(a, b))


def test_extract_episodes_run_length():
    toks = ["NI", "NI", "Sup", "Sup", "Sup", "NI"]
    eps = extract_episodes(list(enumerate(toks)), ("a", "b"), Calculus.DISR)
    assert [(e.relation, e.interval.start, e.interval.end) for e in eps] == [
        ("NI", 0, 1), ("Sup", 2, 4), ("NI", 5, 5)]


def test_extract_episodes_constant_sequence():
    eps = extract_episodes([(f, "Sup") for f in range(5)], ("a", "b"), Calculus.DISR)
    assert [(e.relation, e.interval.start, e.interval.end) for e in eps] == [("Sup", 0, 4)]


def test_extract_episodes_flicker_absorbed():
    toks = ["Sup", "Sup", "NI", "Sup", "Sup"]
    eps = extract_episodes(list(enumerate(toks)), ("a", "b"), Calculus.DISR, smoothing=1)
    assert [(e.relation, e.interval.start, e.interval.end) for e in eps] == [("Sup", 0, 4)]


def test_extract_episodes_gap_policy():
    # gap of 1 bridged inherits the preceding token; longer gap splits
    rels = [(0, "C"), (2, "C"), (10, "C")]
    eps = extract_episodes(rels, ("a", "h"), Calculus.RCC2, gap_bridge=1)
    assert [(e.interval.start, e.interval.end) for e in eps] == [(0, 2), (10, 10)]


def test_extract_episodes_rejects_unsorted_frames():
    with pytest.raises(ValueError):
        extract_episodes([(1, "C"), (0, "C")], ("a", "h"), Calculus.RCC2)


def test_extract_episodes_empty():
    assert extract_episodes([], ("a", "b"), Calculus.DISR) == []


@given(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=40))
def test_episode_reconstruction(tokens):
    # concatenating episodes (no smoothing, no gaps) reproduces the sequence
    eps = extract_episodes(list(enumerate(tokens)), ("a", "b"), Calculus.DISR)
    rebuilt = []
    for ep in eps:
        rebuilt.extend([ep.relation] * (ep.interval.end - ep.interval.start + 1))
    assert rebuilt == tokens
    # maximality: adjacent episodes carry different relations
    for e1, e2 in zip(eps, eps[1:]):
        assert e1.relation != e2.relation
        assert e1.interval.end + 1 == e2.interval.start


@given(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=20),
       st.integers(min_value=1, max_value=4))
def test_fps_independence(tokens, k):
    # repeating every token k times preserves the relation sequence and all
    # Allen relations between corresponding episode pairs
    base = extract_episodes(list(enumerate(tokens)), ("a", "b"), Calculus.DISR)
    scaled_tokens = [t for t in tokens for _ in range(k)]
    scaled = extract_episodes(list(enumerate(scaled_tokens)), ("a", "b"), Calculus.DISR)
    assert [e.relation for e in base] == [e.relation for e in scaled]
    for (e1, e2) in itertools.combinations(range(len(base)), 2):
        assert (allen(base[e1].interval, base[e2].interval)
                is allen(scaled[e1].interval, scaled[e2].interval))


@st.composite
def _observed_relations(draw):
    """Ascending frames with random gaps, over one to four distinct tokens."""
    tokens = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True))
    steps = draw(st.lists(st.integers(min_value=1, max_value=12), max_size=40))
    return [(f, draw(st.sampled_from(tokens))) for f in itertools.accumulate(steps)]


@settings(max_examples=500)
@given(_observed_relations(), st.integers(0, 8), st.integers(0, 8))
def test_extract_episodes_matches_frame_by_frame_oracle(relations, smoothing, gap_bridge):
    args = (relations, ("a", "b"), Calculus.DISR, smoothing, gap_bridge)
    assert extract_episodes(*args) == temporal_oracle.extract_episodes(*args)


def test_bridged_gap_costs_no_memory_per_frame():
    tracemalloc.start()
    try:
        eps = extract_episodes([(0, "A"), (10**6, "B")], ("a", "b"), Calculus.DISR,
                               gap_bridge=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(e.relation, e.interval.start, e.interval.end) for e in eps] == [
        ("A", 0, 10**6 - 1), ("B", 10**6, 10**6)]
    assert peak < 2**20
