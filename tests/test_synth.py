"""Scripted synthetic scenes: schema validity and relation-key agreement."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from affgraph import synth
from affgraph.convexity import ConvexityType, convexity_depth
from affgraph.pipeline import DatasetProfile, PipelineConfig, compute_frame_relations
from affgraph.qsr import dpp
from affgraph.scene import (
    BoundingBox,
    DepthSample,
    EntityObservation,
    save_scene,
    scene_to_dict,
)
from affgraph.synth import (
    SCRIPT_KINDS,
    GeneratedScene,
    ScriptError,
    SyntheticScript,
    generate_synthetic,
)

from conftest import mask_from_array


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
    with pytest.raises(ScriptError, match="frame_count 1001 above 1000"):
        SyntheticScript(kind="place-on", frame_count=synth.MAX_FRAMES + 1).validate()
    SyntheticScript(kind="place-on", frame_count=synth.MAX_FRAMES).validate()


def _band_holds(h, n):
    """Whether the mover's depth band (16, 20) is a proper part of the concavity
    band that ``convexity_depth`` gives the bowl's depth range (10, 22)."""
    bounds = convexity_depth(10.0, 22.0, ConvexityType.CONCAVE, h, n)
    return dpp((16.0, 20.0), bounds)


def test_containment_band_fits_the_default_profile():
    # put-into and take-out show Cont only if the bowl's band holds the mover
    # and the bowl's depth range marks it concave
    prof = DatasetProfile()
    assert _band_holds(prof.h, prof.n)
    assert 22.0 - 10.0 > prof.thresh_convex
    # the check tells bands apart: a shallow band cannot hold the mover
    assert not _band_holds(5, 1)


def _filled_rect_mask(x0, y0, x1, y1):
    """The ``_rect_mask`` that ``synth`` used before: fill the grid, encode it."""
    arr = np.zeros((synth.HEIGHT, synth.WIDTH), dtype=bool)
    arr[y0:y1, x0:x1] = True
    return mask_from_array(arr)


_W, _H = synth.WIDTH, synth.HEIGHT


@pytest.mark.parametrize("box", [
    (5, 7, 6, 8), (0, 0, 1, 1), (_W - 1, _H - 1, _W, _H),  # 1x1, two corners
    (0, 3, _W, 9), (0, 0, _W, _H),  # full width, full frame
    (0, 10, 4, 20), (3, 0, 9, 4), (60, 10, _W, 20), (3, 40, 9, _H),  # one edge each
    (50, 30, _W, _H), (0, 30, _W, _H),  # the bottom-right corner
], ids=str)
def test_rect_mask_runs_match_filled_grid(box):
    assert synth._rect_mask(*box).runs == _filled_rect_mask(*box).runs


@given(st.tuples(st.integers(0, _W), st.integers(0, _W)).filter(lambda p: p[0] != p[1]),
       st.tuples(st.integers(0, _H), st.integers(0, _H)).filter(lambda p: p[0] != p[1]))
def test_rect_mask_matches_filled_grid_on_any_rectangle(xs, ys):
    (x0, x1), (y0, y1) = sorted(xs), sorted(ys)
    assert synth._rect_mask(x0, y0, x1, y1) == _filled_rect_mask(x0, y0, x1, y1)


def _rect_obs_per_pixel(parts, frame, x0, y0, x1, y1, score, depth_grid):
    """The ``_rect_obs`` that ``synth`` used before: one depth reading per
    foreground pixel of the decoded mask, read in a Python loop, and new
    parts for every frame (``parts`` is not read)."""
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
        assert synth._rect_obs({}, *args) == _rect_obs_per_pixel({}, *args)


def test_place_on_static_object_shares_its_parts():
    gen = generate_synthetic(SyntheticScript(kind="place-on"), seed=7)
    static, mover, hand = (e.observations for e in gen.scene.entities)
    assert [o.frame for o in static] == list(range(36))
    for attr in ("bbox", "mask", "depth"):
        assert len({id(getattr(o, attr)) for o in static}) == 1, attr
        # the mover has two states, each with its own parts
        assert len({id(getattr(o, attr)) for o in mover}) == 2, attr
    # one observation per frame, each with its frame and score
    assert len({id(o) for o in static}) == 36 and {o.score for o in hand} == {0.99}


def test_occluding_mover_gets_its_own_depth_each_frame():
    # the mover's depth grid is built afresh every frame; its gradient follows
    # the box, so the readings repeat, but no frame takes another's sample
    gen = generate_synthetic(SyntheticScript(kind="occlude-pass-behind"), seed=7)
    static, mover = (e.observations for e in gen.scene.entities)
    assert len({id(o.depth) for o in mover}) == len(mover) == 36
    assert all(a.depth is not b.depth and a.bbox is not b.bbox
               for a, b in zip(mover, mover[1:]))
    assert len({id(o.depth) for o in static}) == 1


def test_rect_obs_keeps_apart_grids_that_come_in_turn_at_one_box():
    # the first grid is freed before the second is built, so the second may
    # take its address; the memo holds the first, so it cannot
    parts = {}
    box = (8, 24, 56, 44)
    first = synth._rect_obs(parts, 0, *box, 0.9, np.full((synth.HEIGHT, synth.WIDTH), 10.0))
    second = synth._rect_obs(parts, 1, *box, 0.9, np.full((synth.HEIGHT, synth.WIDTH), 20.0))
    assert set(first.depth.values) == {10.0} and set(second.depth.values) == {20.0}
    assert first.mask == second.mask and len(parts) == 2


# sha256 of each case's save_scene bytes, labels and relation key, recorded
# before the hand-object scripts shared one frame loop; any change to a
# generated scene, even one that keeps it valid, changes its digest
_DIGEST_VARIANTS = {
    "default": {},
    "early_release": {"early_release": True},
    "extra_touch": {"extra_touch": True},
    "jitter0": {"jitter": 0},
    "jitter2": {"jitter": 2},
    "short": {"frame_count": 16, "switch_frame": 8, "extra_touch": True},
}
_DIGESTS = {
    "place-on-default-0":
        "5f1e7ab3666696b0b55afd9fc78a5f95f960572cd16938e7e481e78dd185b005",
    "place-on-default-2":
        "eece09953085d5250a0a491febd01465f58bddf164e472a42813e7ba5c950fc4",
    "place-on-early_release-0":
        "7c72dbceabaf129718eb0d3015e7462bdcb5b38154d63ec76373dde23419f155",
    "place-on-early_release-2":
        "c7f7212296f456ce4db259c5448d7357530eeb8e9c8a9bba3111645d59c951fb",
    "place-on-extra_touch-0":
        "e18042ee4a78118d3ab310b159a04af3a3cea0974526d449752717d3c1110334",
    "place-on-extra_touch-2":
        "0477f68ca9382efb7ea4f40e0b6c295284c4eca7a93b431d6622e6fcb126e0f7",
    "place-on-jitter0-0":
        "5f1e7ab3666696b0b55afd9fc78a5f95f960572cd16938e7e481e78dd185b005",
    "place-on-jitter0-2":
        "5f1e7ab3666696b0b55afd9fc78a5f95f960572cd16938e7e481e78dd185b005",
    "place-on-jitter2-0":
        "3a9604f5e1e112fa159a8399c9217ecadb4765e85bbf80ef8c3bc3f9e90825e8",
    "place-on-jitter2-2":
        "eece09953085d5250a0a491febd01465f58bddf164e472a42813e7ba5c950fc4",
    "place-on-short-0":
        "0c98d5b2ba280d37698cf84a80ebc3f36793f62849ba3cf25d9d184060fa54fb",
    "place-on-short-2":
        "332683092b653387741d0ddc27a2daf534e1fd1cab2cfc96c2949da4c6864284",
    "put-into-default-0":
        "49f361cbf5a0bef866fddda9fc005aa85c5991226ec1ed1f396485852adaba3a",
    "put-into-default-2":
        "e9bd97e39db935b4193574dbed20fdba2e813a0d4c3248016ace93988baa6be3",
    "put-into-early_release-0":
        "498f0a67ebd2b89e289cbe4268cc455392df48c266582ae44019879b58fbe3a4",
    "put-into-early_release-2":
        "331cda548b02988c7118f098099e441518defbd0b111d5ac089d5b1c8102a9df",
    "put-into-extra_touch-0":
        "d9dbf1019ca7003cc55fb29e87b0c0f701f2ecebcc656c90ae71308720935d0a",
    "put-into-extra_touch-2":
        "9fa9ca5c7b428c91d0985ccedbbac829dbd824d3e70561c7673bc7e78ed8af1f",
    "put-into-jitter0-0":
        "f2b3df5340f7d1a949f26bdd8024125f99e5dd7066afabe4821981252b37473e",
    "put-into-jitter0-2":
        "f2b3df5340f7d1a949f26bdd8024125f99e5dd7066afabe4821981252b37473e",
    "put-into-jitter2-0":
        "56111d1ac144941684884881dddd83dedecb5ec78e6c19b99f81c1d045776f11",
    "put-into-jitter2-2":
        "c6d244a4fdbf9af262ee34e6e893ca61566a39a5c101926f82015b7b9422d11d",
    "put-into-short-0":
        "ed7ea05104e054b91a61c50624f966b17aa28d1bdc975f3522487f14926ae752",
    "put-into-short-2":
        "6fb2a87f6168cb11232177739959b1cae986a399eacd61da046c1d455eac9685",
    "take-out-default-0":
        "ccb2af6e5c672f5177c6b3f1a90524c58c676c80958cd3bb0f1a72d1a95145ad",
    "take-out-default-2":
        "f003ad2fe4afbe6f05fe2f294166dfd05a715cd4d1e13ced96418e9d0d860cb3",
    "take-out-early_release-0":
        "2af79ea7fb42e33723b2d3ba38e2ce8858c5705142b3b89fae9fe068a1ed5d70",
    "take-out-early_release-2":
        "dfbbfa0458cc5edf22d0a412ecf2a17d192ba7619ca9a8f6c88bfe1febd350ec",
    "take-out-extra_touch-0":
        "b073aa8b683443484e23704c06ee21fe053fde3c700572d1daf11b25b6c6d854",
    "take-out-extra_touch-2":
        "ca2065492ff2589f788ec328386bbc131b8e492cd718e1790730ecbfbcab5d06",
    "take-out-jitter0-0":
        "252396628d6be7b08f173158fc15a60701cba9dbf5e3f1121e3d48d6f9b2eb10",
    "take-out-jitter0-2":
        "252396628d6be7b08f173158fc15a60701cba9dbf5e3f1121e3d48d6f9b2eb10",
    "take-out-jitter2-0":
        "f8c8fa2a93bd21ec227606776614b230fb9b30138014c0e1d26205c6fa5d0f8c",
    "take-out-jitter2-2":
        "89dad5c3b2ef17b14f494242c573b58115a6e4a4a64e5afec233b2f9fd31bc0b",
    "take-out-short-0":
        "d306720346f6b9e9a1316b76d338cb3399ece40da6e3b0d8da50287cc2e3ef4b",
    "take-out-short-2":
        "cdc0c6b8b9b0f82b131fd9c3fef748ffa7e1d96967a45a511718e6278858b79d",
    "push-adjacent-default-0":
        "40f0af245c09f15864f313b5dc7e724e71eafed38c34103c037b5deedca09be4",
    "push-adjacent-default-2":
        "40f0af245c09f15864f313b5dc7e724e71eafed38c34103c037b5deedca09be4",
    "push-adjacent-early_release-0":
        "26e9120b8cf0d8628411da10e35ddbfd7cc18a343d72697504ff7ff20577af56",
    "push-adjacent-early_release-2":
        "26e9120b8cf0d8628411da10e35ddbfd7cc18a343d72697504ff7ff20577af56",
    "push-adjacent-extra_touch-0":
        "0eac1ce19089f844813f3a5a1cce5eb2bf4031985534d5d0fd7bb26e907ab71b",
    "push-adjacent-extra_touch-2":
        "0eac1ce19089f844813f3a5a1cce5eb2bf4031985534d5d0fd7bb26e907ab71b",
    "push-adjacent-jitter0-0":
        "d25248e4a26cd01b0cf3d6dc29cc15b636881c9fe37e99acc6793124e96ad24e",
    "push-adjacent-jitter0-2":
        "d25248e4a26cd01b0cf3d6dc29cc15b636881c9fe37e99acc6793124e96ad24e",
    "push-adjacent-jitter2-0":
        "f91814e8e26c98feaec4f8d8dae36135b6dcfd083470daac15fb2cb3aa3dbce1",
    "push-adjacent-jitter2-2":
        "f91814e8e26c98feaec4f8d8dae36135b6dcfd083470daac15fb2cb3aa3dbce1",
    "push-adjacent-short-0":
        "17e00d18f3dad87ecc24e701d2c2832ae6df4224c54601c5162fbe748f2c365c",
    "push-adjacent-short-2":
        "17e00d18f3dad87ecc24e701d2c2832ae6df4224c54601c5162fbe748f2c365c",
    "occlude-pass-behind-default-0":
        "7982651ba34f1127c80e9821f8e3b55e6d5c5da1225dd19a0194c8b0f8ddc109",
    "occlude-pass-behind-default-2":
        "7982651ba34f1127c80e9821f8e3b55e6d5c5da1225dd19a0194c8b0f8ddc109",
    "occlude-pass-behind-early_release-0":
        "7982651ba34f1127c80e9821f8e3b55e6d5c5da1225dd19a0194c8b0f8ddc109",
    "occlude-pass-behind-early_release-2":
        "7982651ba34f1127c80e9821f8e3b55e6d5c5da1225dd19a0194c8b0f8ddc109",
    "occlude-pass-behind-extra_touch-0":
        "7982651ba34f1127c80e9821f8e3b55e6d5c5da1225dd19a0194c8b0f8ddc109",
    "occlude-pass-behind-extra_touch-2":
        "7982651ba34f1127c80e9821f8e3b55e6d5c5da1225dd19a0194c8b0f8ddc109",
    "occlude-pass-behind-jitter0-0":
        "7982651ba34f1127c80e9821f8e3b55e6d5c5da1225dd19a0194c8b0f8ddc109",
    "occlude-pass-behind-jitter0-2":
        "7982651ba34f1127c80e9821f8e3b55e6d5c5da1225dd19a0194c8b0f8ddc109",
    "occlude-pass-behind-jitter2-0":
        "7982651ba34f1127c80e9821f8e3b55e6d5c5da1225dd19a0194c8b0f8ddc109",
    "occlude-pass-behind-jitter2-2":
        "7982651ba34f1127c80e9821f8e3b55e6d5c5da1225dd19a0194c8b0f8ddc109",
    "occlude-pass-behind-short-0":
        "894ea82620d9b4caca211fdf95fba41ebf3e86fc76389153525081a217373287",
    "occlude-pass-behind-short-2":
        "894ea82620d9b4caca211fdf95fba41ebf3e86fc76389153525081a217373287",
}


@pytest.mark.parametrize("case", sorted(_DIGESTS))
def test_generated_scenes_match_recorded_digests(case, tmp_path):
    kind, variant, seed = case.rsplit("-", 2)
    gen = generate_synthetic(SyntheticScript(kind=kind, **_DIGEST_VARIANTS[variant]),
                             seed=int(seed))
    path = tmp_path / "scene.json"
    save_scene(gen.scene, str(path))
    digest = hashlib.sha256(path.read_bytes())
    for table in (gen.labels, gen.relation_key):
        digest.update(json.dumps(sorted([list(k), v] for k, v in table.items())).encode())
    assert digest.hexdigest() == _DIGESTS[case]
