"""Scripted synthetic scenes: schema validity and relation-key agreement."""

import numpy as np
import pytest

from affgraph import synth
from affgraph.pipeline import PipelineConfig, compute_frame_relations
from affgraph.scene import (
    BoundingBox,
    DepthSample,
    EntityObservation,
    scene_to_dict,
)
from affgraph.synth import (
    SCRIPT_KINDS,
    GeneratedScene,
    ScriptError,
    SyntheticScript,
    generate_synthetic,
)


@pytest.mark.parametrize("kind", SCRIPT_KINDS)
def test_generated_scene_passes_validation(kind):
    gen = generate_synthetic(SyntheticScript(kind=kind), seed=7)
    gen.scene.validate()
    assert gen.scene.frame_count == 36
    d = scene_to_dict(gen.scene)
    assert {e["id"] for e in d["entities"]} >= {"obj_a", "obj_b"}


@pytest.mark.parametrize("kind", SCRIPT_KINDS)
@pytest.mark.parametrize("early", [False, True])
def test_relation_key_matches_pipeline(kind, early):
    # with jitter disabled the generator's expected per-frame tokens must
    # agree exactly with what the relation extraction computes
    script = SyntheticScript(kind=kind, jitter=0, early_release=early)
    gen = generate_synthetic(script, seed=11)
    relations = compute_frame_relations(gen.scene, PipelineConfig())
    for pair, expected in gen.relation_key.items():
        assert relations[pair] == expected, f"pair {pair} mismatch"


def test_interaction_labels_cover_both_directions():
    gen = generate_synthetic(SyntheticScript(kind="put-into", jitter=0), seed=3)
    assert gen.labels[("obj_a", "obj_b")] == ["can-contain"]
    assert gen.labels[("obj_b", "obj_a")] == ["containable"]
    gen = generate_synthetic(SyntheticScript(kind="place-on", jitter=0), seed=3)
    assert gen.labels[("obj_a", "obj_b")] == ["can-support"]
    assert gen.labels[("obj_b", "obj_a")] == ["supportable"]
    gen = generate_synthetic(SyntheticScript(kind="push-adjacent", jitter=0), seed=3)
    assert gen.labels[("obj_a", "obj_b")] == ["adjacent-interaction"]
    assert gen.labels[("obj_b", "obj_a")] == ["adjacent-interaction"]
    gen = generate_synthetic(SyntheticScript(kind="occlude-pass-behind", jitter=0), seed=3)
    assert gen.labels == {}


def test_same_seed_reproduces_scene():
    s = SyntheticScript(kind="place-on")
    a = generate_synthetic(s, seed=42)
    b = generate_synthetic(s, seed=42)
    assert scene_to_dict(a.scene) == scene_to_dict(b.scene)
    assert a.relation_key == b.relation_key
    c = generate_synthetic(s, seed=43)
    assert scene_to_dict(c.scene) != scene_to_dict(a.scene)


def test_script_validation_errors():
    with pytest.raises(ScriptError):
        SyntheticScript(kind="no-such-script").validate()
    with pytest.raises(ScriptError):
        SyntheticScript(kind="place-on", switch_frame=2, touch_lead=4).validate()
    with pytest.raises(ScriptError):
        SyntheticScript(kind="place-on", frame_count=16, switch_frame=12).validate()


def test_infeasible_containment_band_rejected():
    # a shallow concavity band cannot hold the containee's depth range
    with pytest.raises(ScriptError):
        generate_synthetic(SyntheticScript(kind="put-into"), seed=0, h=5, n=1)
    # container depth range must exceed the convexity threshold
    with pytest.raises(ScriptError):
        generate_synthetic(SyntheticScript(kind="put-into"), seed=0, thresh_convex=15.0)


def _rect_obs_per_pixel(frame, x0, y0, x1, y1, score, depth_grid):
    """The ``_rect_obs`` that ``synth`` used before: one depth reading per
    foreground pixel of the decoded mask, read in a Python loop."""
    mask = synth._rect_mask(x0, y0, x1, y1)
    rows, cols = np.unravel_index(np.flatnonzero(mask.to_array()),
                                  (synth.HEIGHT, synth.WIDTH))
    depth = DepthSample(values=tuple(float(depth_grid[r, c]) for r, c in zip(rows, cols)))
    return EntityObservation(
        frame=frame,
        bbox=BoundingBox(float(x0), float(y0), float(x1), float(y1)),
        score=score, mask=mask, depth=depth,
    )


@pytest.mark.parametrize("early", [False, True])
@pytest.mark.parametrize("kind", SCRIPT_KINDS)
def test_scenes_match_per_pixel_depth_oracle(monkeypatch, kind, early):
    script = SyntheticScript(kind=kind, early_release=early, extra_touch=early)
    new = generate_synthetic(script, seed=5)
    monkeypatch.setattr(synth, "_rect_obs", _rect_obs_per_pixel)
    old = generate_synthetic(script, seed=5)
    assert scene_to_dict(new.scene) == scene_to_dict(old.scene)
    values = [v for e in new.scene.entities for o in e.observations for v in o.depth.values]
    assert values and {type(v) for v in values} == {float}


def test_rect_obs_matches_per_pixel_depth_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x0, x1 = sorted(rng.choice(synth.WIDTH + 1, size=2, replace=False))
        y0, y1 = sorted(rng.choice(synth.HEIGHT + 1, size=2, replace=False))
        grid = rng.uniform(1.0, 50.0, size=(synth.HEIGHT, synth.WIDTH))
        args = (3, int(x0), int(y0), int(x1), int(y1), 0.5, grid)
        assert synth._rect_obs(*args) == _rect_obs_per_pixel(*args)
