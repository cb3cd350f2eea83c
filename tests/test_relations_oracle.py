"""The relation, episode and graphlet stages against their reference versions
(tests/relations_oracle.py), on every synthetic script kind."""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import relations_oracle as oracle
from affgraph import graphlet, pipeline, qsr, synth
from affgraph.pipeline import PROFILES, PipelineConfig
from affgraph.scene import DepthSample
from affgraph.temporal import Calculus, Episode, Interval

SCRIPTS = {
    "jitter-0": {"jitter": 0},
    "jitter-2": {"jitter": 2},
    "extra-touch": {"extra_touch": True},
    "early-release": {"early_release": True},
    "depth-gaps": {},  # see _drop_depth
}
TEMPORAL_CAPS = (0, 1, 256)


def _drop_depth(scene) -> None:
    """Objects lose their depth sample every third frame and their mask too
    every fifth, so their states there carry no depth range; elsewhere each
    reading is raised by a distinct micrometre amount, so no depth repeats."""
    for ent in scene.objects():
        ent.observations = [
            replace(obs, mask=None, depth=None) if obs.frame % 5 == 0
            else replace(obs, depth=None) if obs.frame % 3 == 0
            else obs if obs.depth is None
            else replace(obs, depth=DepthSample(tuple(
                v + 1e-3 * i for i, v in enumerate(obs.depth.values))))
            for obs in ent.observations]


def _product_graphlets(scene_id, episodes, cap):
    with mock.patch.object(graphlet, "TEMPORAL_CAP", cap):
        return pipeline.build_agraphlets(scene_id, episodes)


def _oracle_graphlets(scene_id, episodes, cap, calculus):
    non_interaction = "NI" if calculus == "disr" else "DR"
    return oracle.build_agraphlets(scene_id, episodes, temporal_cap=cap,
                                   non_interaction=non_interaction)


def _stages(module, scene, cfg, monkeypatch) -> dict:
    """The per-pair DiSR inputs, relations, episode records and graphlets (one
    list per temporal cap) from ``module``'s relation and graphlet functions;
    the product's cap is ``graphlet.TEMPORAL_CAP``, the oracle's an argument."""
    relations = module.compute_frame_relations
    out = {"contexts": []}

    def record(scene, cfg):
        out["relations"] = relations(scene, cfg)
        return out["relations"]

    def disr(a, b):
        out["contexts"].append((a, b))
        return qsr.disr(a, b)

    with monkeypatch.context() as m:
        m.setattr(pipeline, "compute_frame_relations", record)
        m.setattr(module, "disr", disr)
        episodes = pipeline.compute_episodes(scene, cfg)
    out["relations"] = list(out["relations"].items())  # insertion order too
    out["episodes"] = pipeline.episode_records(episodes)
    out["graphlets"] = [
        _product_graphlets("s", episodes, cap) if module is pipeline
        else _oracle_graphlets("s", episodes, cap, cfg.calculus)
        for cap in TEMPORAL_CAPS]
    return out


@pytest.mark.parametrize("script", list(SCRIPTS))
@pytest.mark.parametrize("kind", synth.SCRIPT_KINDS)
def test_relations_episodes_and_graphlets_match_the_oracle(monkeypatch, kind, script):
    seed = synth.SCRIPT_KINDS.index(kind) * 10 + list(SCRIPTS).index(script)
    scene = synth.generate_synthetic(
        synth.SyntheticScript(kind=kind, **SCRIPTS[script]), seed=seed).scene
    if script == "depth-gaps":
        _drop_depth(scene)
    built = 0
    for calculus in ("disr", "rcc5_on"):
        for name in sorted(PROFILES):
            for alg1_literal in (False, True):
                cfg = PipelineConfig(calculus=calculus, profile=replace(
                    PROFILES[name], alg1_literal=alg1_literal))
                new = _stages(pipeline, scene, cfg, monkeypatch)
                old = _stages(oracle, scene, cfg, monkeypatch)
                case = (calculus, name, alg1_literal)
                # each object's box, depth range, concavity band and track type
                assert new["contexts"] == old["contexts"], case
                assert new["relations"] == old["relations"], case
                assert new["episodes"] == old["episodes"], case
                assert new["graphlets"] == old["graphlets"], case
                built += len(new["graphlets"][-1])
    assert built  # the graphlet comparison is not vacuous


def test_depth_map_matches_the_oracle():
    scene = synth.generate_synthetic(
        synth.SyntheticScript(kind="put-into", jitter=2), seed=3).scene
    for f in range(scene.frame_count):
        at = {ent.id: oracle.observation_at(ent, f) for ent in scene.entities}
        new = pipeline.build_semantic_depth_map(
            scene.height, scene.width, {ent.id: at[ent.id] for ent in scene.objects()},
            [at[ent.id] for ent in scene.human_parts()])
        old = oracle.build_semantic_depth_map(scene, f)
        assert new.entity_ids == old.entity_ids
        assert (new.owner == old.owner).all() and (new.depth == old.depth).all()


# Object pairs under DiSR and (object, human part) pairs under RCC2, with two
# parts so that the human part's C-frame count can tie.
_EPISODES = st.lists(st.one_of(
    st.tuples(st.sampled_from([("a", "b"), ("b", "a"), ("a", "c")]), st.just(Calculus.DISR),
              st.sampled_from(["NI", "Cont", "Sup"])),
    st.tuples(st.sampled_from([("a", "left"), ("a", "right"), ("b", "left")]),
              st.just(Calculus.RCC2), st.sampled_from(["C", "DC"])),
).flatmap(lambda head: st.tuples(st.just(head), st.integers(0, 6), st.integers(0, 3))),
    max_size=10)


@settings(max_examples=300, deadline=None)
@given(_EPISODES, st.sampled_from([0, 1, 3, 256]))
def test_graphlets_of_any_episodes_match_the_oracle(raw, cap):
    episodes = [Episode(pair, calculus, relation, Interval(start, start + length))
                for (pair, calculus, relation), start, length in raw]
    assert _product_graphlets("s", episodes, cap) \
        == oracle.build_agraphlets("s", episodes, temporal_cap=cap)
