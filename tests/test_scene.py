"""Scene data model: boxes, masks, semantic depth maps, file I/O."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgraph.scene import (
    BoundingBox,
    DepthSample,
    Entity,
    EntityKind,
    EntityObservation,
    MAX_FRAME_PIXELS,
    MaskRLE,
    SceneError,
    SceneSequence,
    build_semantic_depth_map,
    is_json,
    load_scene,
    require,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)
from affgraph.synth import SCRIPT_KINDS, SyntheticScript, generate_synthetic

from conftest import mask_from_array


def _box(x0, y0, x1, y1):
    return BoundingBox(float(x0), float(y0), float(x1), float(y1))


def _mask(h, w, arr_slices):
    arr = np.zeros((h, w), dtype=bool)
    for sl in arr_slices:
        arr[sl] = True
    return mask_from_array(arr)


def test_bbox_rejects_degenerate():
    with pytest.raises(SceneError):
        BoundingBox(0, 0, 0, 5)
    with pytest.raises(SceneError):
        BoundingBox(0, 5, 5, 5)


@given(st.lists(st.booleans(), min_size=0, max_size=60),
       st.integers(1, 12))
def test_mask_rle_round_trip(bits, width):
    height = max(1, (len(bits) + width - 1) // width)
    arr = np.zeros((height, width), dtype=bool)
    for i, b in enumerate(bits):
        arr[i // width, i % width] = b
    mask = mask_from_array(arr)
    assert mask.runs[0] == 0 or not arr.ravel()[0] or arr.size == 0
    np.testing.assert_array_equal(mask.to_array(), arr)
    assert mask.foreground_count == int(arr.sum())
    np.testing.assert_array_equal(
        np.flatnonzero(mask.to_array()), np.flatnonzero(arr.ravel()))


def _rle_runs_oracle(arr: np.ndarray) -> tuple[int, ...]:
    """Per-pixel loop encoder: alternating background/foreground run lengths."""
    flat = np.asarray(arr, dtype=bool).ravel()
    runs: list[int] = []
    fg = False
    pos = 0
    n = flat.size
    while pos < n:
        end = pos
        while end < n and flat[end] == fg:
            end += 1
        runs.append(end - pos)
        pos = end
        fg = not fg
    if not n:
        runs = [0]
    return tuple(runs)


@st.composite
def _mask_arrays(draw):
    h, w = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    fill = draw(st.sampled_from(["random", "empty", "full", "foreground-first"]))
    if fill == "empty":
        return np.zeros((h, w), dtype=bool)
    if fill == "full":
        return np.ones((h, w), dtype=bool)
    bits = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    arr = np.array(bits, dtype=bool).reshape(h, w)
    if fill == "foreground-first" and arr.size:
        arr[0, 0] = True
    return arr


@given(_mask_arrays())
def test_mask_rle_from_array_matches_loop_encoder(arr):
    mask = mask_from_array(arr)
    assert mask.runs == _rle_runs_oracle(arr)
    assert all(type(r) is int for r in mask.runs)
    assert (mask.height, mask.width) == arr.shape


def _to_array_oracle(mask: MaskRLE) -> np.ndarray:
    """Run-loop decoder: paint each foreground run into a zeroed grid."""
    flat = np.zeros(mask.width * mask.height, dtype=bool)
    pos = 0
    fg = False
    for run in mask.runs:
        if fg:
            flat[pos : pos + run] = True
        pos += run
        fg = not fg
    return flat.reshape(mask.height, mask.width)


def _foreground_indices_oracle(mask: MaskRLE) -> np.ndarray:
    """Run-loop decoder: concatenate the index range of each foreground run."""
    idx: list[np.ndarray] = []
    pos = 0
    fg = False
    for run in mask.runs:
        if fg and run:
            idx.append(np.arange(pos, pos + run))
        pos += run
        fg = not fg
    if not idx:
        return np.empty(0, dtype=int)
    return np.concatenate(idx)


def _assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@given(_mask_arrays())
def test_mask_rle_decoders_match_run_loops(arr):
    mask = mask_from_array(arr)
    _assert_same_array(mask.to_array(), _to_array_oracle(mask))
    _assert_same_array(np.flatnonzero(mask.to_array()), _foreground_indices_oracle(mask))


@pytest.mark.parametrize("runs, width, height", [
    ((0,), 0, 0), ((), 0, 0), ((6,), 3, 2), ((0, 6), 3, 2), ((0, 1, 2, 1), 4, 1),
    ((2, 0, 0, 3, 1), 3, 2),
], ids=["empty", "no-runs", "all-background", "all-foreground", "foreground-first",
        "empty-runs"])
def test_mask_rle_decoders_edge_cases(runs, width, height):
    mask = MaskRLE(width=width, height=height, runs=runs)
    _assert_same_array(mask.to_array(), _to_array_oracle(mask))
    _assert_same_array(np.flatnonzero(mask.to_array()), _foreground_indices_oracle(mask))


def test_mask_rle_from_array_edge_cases():
    assert mask_from_array(np.zeros((0, 3), dtype=bool)).runs == (0,)
    assert mask_from_array(np.zeros((2, 3), dtype=bool)).runs == (6,)
    assert mask_from_array(np.ones((2, 3), dtype=bool)).runs == (0, 6)
    assert mask_from_array(np.array([[1, 0, 0, 1]], dtype=bool)).runs == (0, 1, 2, 1)


def test_mask_rle_validates_total():
    with pytest.raises(SceneError):
        MaskRLE(width=4, height=2, runs=(3, 2))


def test_depth_sample_positive():
    with pytest.raises(SceneError):
        DepthSample(values=(10.0, 0.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_depth_sample_rejects_non_finite(bad):
    with pytest.raises(SceneError):
        DepthSample(values=(10.0, bad))


@pytest.mark.parametrize("value", [
    1.0, 1e308, 5e-324, 0.0, -0.0, -5e-324, -1.0, float("nan"), float("inf"), -float("inf"),
])
def test_depth_sample_accepts_finite_positive_only(value):
    accepted = 0 < value < float("inf")
    try:
        DepthSample(values=(10.0, value))
    except SceneError:
        assert not accepted
    else:
        assert accepted


def test_observation_depth_mask_length_agreement():
    mask = _mask(2, 4, [(slice(0, 1), slice(0, 3))])  # 3 fg pixels
    with pytest.raises(SceneError):
        EntityObservation(frame=0, bbox=_box(0, 0, 3, 1), score=0.9,
                          mask=mask, depth=DepthSample(values=(5.0, 6.0)))


def _scene_with_overlap(score_a=0.9, score_b=0.7, human=False):
    h, w = 6, 8
    mask_a = _mask(h, w, [(slice(0, 4), slice(0, 4))])
    mask_b = _mask(h, w, [(slice(2, 6), slice(2, 6))])
    depth_a = DepthSample(values=tuple([10.0] * mask_a.foreground_count))
    depth_b = DepthSample(values=tuple([20.0] * mask_b.foreground_count))
    ents = [
        Entity("a", EntityKind.OBJECT, [EntityObservation(
            frame=0, bbox=_box(0, 0, 4, 4), score=score_a, mask=mask_a, depth=depth_a)]),
        Entity("b", EntityKind.OBJECT, [EntityObservation(
            frame=0, bbox=_box(2, 2, 6, 6), score=score_b, mask=mask_b, depth=depth_b)]),
    ]
    if human:
        mask_h = _mask(h, w, [(slice(0, 2), slice(0, 5))])
        ents.append(Entity("hand", EntityKind.HUMAN_PART, [EntityObservation(
            frame=0, bbox=_box(0, 0, 5, 2), score=0.99, mask=mask_h)]))
    scene = SceneSequence(width=w, height=h, frame_count=1, entities=ents)
    scene.validate()
    return scene


def _depth_map(scene, frame):
    """The depth map of the scene's observations at ``frame``."""
    at = [(ent.kind, ent.id, obs) for ent in scene.entities
          for obs in ent.observations if obs.frame == frame]
    return build_semantic_depth_map(
        scene.height, scene.width,
        {eid: obs for kind, eid, obs in at if kind is EntityKind.OBJECT},
        [obs for kind, _, obs in at if kind is EntityKind.HUMAN_PART])


def test_semantic_depth_map_overlap_to_highest_score():
    smap = _depth_map(_scene_with_overlap(), 0)
    # 4-pixel overlap [2:4, 2:4] goes to the 0.9-score object
    owned_a = smap.owned_mask("a")
    owned_b = smap.owned_mask("b")
    assert owned_a[2:4, 2:4].all()
    assert not owned_b[2:4, 2:4].any()
    assert not (owned_a & owned_b).any()


def test_semantic_depth_map_human_exclusion():
    smap = _depth_map(_scene_with_overlap(human=True), 0)
    # pixels under the human mask are unassigned to objects
    assert (smap.owner[0:2, 0:5] == -1).all()


def test_semantic_depth_map_partitions_pixels():
    scene = _scene_with_overlap()
    smap = _depth_map(scene, 0)
    total_fg = np.zeros((scene.height, scene.width), dtype=bool)
    for ent in scene.objects():
        total_fg |= ent.observations[0].mask.to_array()
    assert int((smap.owner >= 0).sum()) == int(total_fg.sum())


def test_object_depth_summary_brute_force_oracle():
    scene = _scene_with_overlap()
    smap = _depth_map(scene, 0)
    # brute-force per-pixel ownership: higher score wins on overlap
    a, b = scene.objects()
    mask_a = a.observations[0].mask.to_array()
    mask_b = b.observations[0].mask.to_array()
    b_only = mask_b & ~mask_a
    # the owned depths, ascending, as ``compute_frame_relations`` takes them
    vals = np.sort(smap.depth[smap.owned_mask("b")])
    dmin, dmax = float(vals[0]), float(vals[-1])
    assert (dmin, dmax) == (20.0, 20.0)
    assert len(vals) == int(b_only.sum())


def test_scene_round_trip(tmp_path):
    scene = _scene_with_overlap(human=True)
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    loaded = load_scene(str(path))
    # lossless canonical re-serialization is byte-identical
    path2 = tmp_path / "scene2.json"
    save_scene(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()
    assert scene_to_dict(loaded) == scene_to_dict(scene)


def test_scene_schema_errors(tmp_path):
    bad = {"width": 8, "height": 6, "frame_count": 1, "entities": [
        {"id": "x", "kind": "object", "observations": [
            {"frame": 0, "bbox": [5, 0, 5, 4], "score": 0.5}]}]}
    with pytest.raises(SceneError):
        scene_from_dict(bad)
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SceneError):
        load_scene(str(path))


def test_scene_validate_frame_bounds_and_duplicates():
    obs = EntityObservation(frame=5, bbox=_box(0, 0, 2, 2), score=0.5)
    scene = SceneSequence(width=8, height=8, frame_count=3,
                          entities=[Entity("x", EntityKind.OBJECT, [obs])])
    with pytest.raises(SceneError):
        scene.validate()
    scene = SceneSequence(width=8, height=8, frame_count=3, entities=[
        Entity("x", EntityKind.OBJECT), Entity("x", EntityKind.OBJECT)])
    with pytest.raises(SceneError):
        scene.validate()


@pytest.mark.parametrize("field", [
    {"fps": "abc"}, {"entities": 5}, {"entities": ["x"]}, {"entities": [["x", "object"]]},
    {"entities": [{"id": "x", "kind": "object", "observations": 5}]},
], ids=["fps-string", "entities-number", "entity-string", "entity-list",
        "observations-number"])
def test_malformed_scene_record_is_scene_error(field):
    with pytest.raises(SceneError):
        scene_from_dict({"width": 4, "height": 2, "frame_count": 1, "entities": [], **field})


def test_readme_scene_example_loads_with_mask_and_depth():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("### Scene JSON", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    scene = scene_from_dict(json.loads(block))
    observations = [o for e in scene.entities for o in e.observations]
    assert observations
    for obs in observations:
        assert obs.mask is not None and obs.depth is not None
        assert len(obs.depth.values) == obs.mask.foreground_count > 0


def _save_scene_streaming(scene, path):
    """The streaming writer ``save_scene`` used before: ``json.dump`` runs the
    pure-Python encoder, since CPython keeps the C one for ``json.dumps``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_dict(scene), fh, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("early", [False, True])
@pytest.mark.parametrize("kind", SCRIPT_KINDS)
def test_save_scene_matches_streaming_writer(tmp_path, kind, early):
    scene = generate_synthetic(SyntheticScript(kind=kind, early_release=early),
                               seed=31).scene
    paths = [tmp_path / "new.json", tmp_path / "old.json"]
    save_scene(scene, str(paths[0]))
    _save_scene_streaming(scene, str(paths[1]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # a bare observation (no mask, no depth), a scene without fps and a
    # non-ASCII id take the writer's remaining branches
    scene.fps = None
    scene.entities.append(Entity("ghost-\u00e9", EntityKind.OBJECT, [
        EntityObservation(frame=0, bbox=_box(1, 2, 3, 4), score=0.25)]))
    save_scene(scene, str(paths[0]))
    _save_scene_streaming(scene, str(paths[1]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    text = paths[0].read_text()
    assert '"fps":null' in text and '"mask_rle":null' in text and '"depth_mm":null' in text


def _scene_with_observation(**fields):
    obs = {"frame": 0, "bbox": [0, 0, 2, 1], "score": 0.5, **fields}
    return {"width": 4, "height": 2, "frame_count": 1, "entities": [
        {"id": "x", "kind": "object", "observations": [obs]}]}


@pytest.mark.parametrize("fields", [
    {"frame": "0"}, {"frame": 0.0}, {"frame": 1.7}, {"frame": True},
    {"bbox": ["0", "0", "2", "1"]}, {"bbox": [0, 0, 2, True]}, {"bbox": [0, 0, 2]},
    {"bbox": [0, 0, 2, 1, 1]}, {"bbox": None}, {"score": "0.5"}, {"score": False},
    {"mask_rle": ["0", "2", "6"]}, {"mask_rle": [0.0, 2, 6]}, {"mask_rle": [False, 2, 6]},
    {"depth_mm": ["10.5", "11"]}, {"depth_mm": [True]}, {"depth_mm": [[10.5], [11.0]]},
    {"depth_mm": [[10.5], [11.0, 12.0]]},
], ids=lambda f: json.dumps(f))
def test_observation_numbers_must_be_json_numbers(fields):
    with pytest.raises(SceneError, match="^entity x: "):
        scene_from_dict(_scene_with_observation(**fields))


@pytest.mark.parametrize("ent_id", [5, None, True, ["a"], "a/b", "/", "a|b", "a\tb", "\n",
                                    "a\r"],
                         ids=json.dumps)
def test_entity_id_must_be_a_string_without_a_slash(ent_id):
    data = _scene_with_observation()
    data["entities"][0]["id"] = ent_id
    with pytest.raises(SceneError, match="^malformed entity record: entity id "):
        scene_from_dict(data)


@pytest.mark.parametrize("header", [
    {"width": "4"}, {"width": 4.0}, {"height": True}, {"frame_count": "1"},
    {"frame_count": 1.5}, {"fps": True},
], ids=lambda f: json.dumps(f))
def test_header_numbers_must_be_json_numbers(header):
    with pytest.raises(SceneError, match="^malformed scene header: "):
        scene_from_dict({**_scene_with_observation(), **header})


# each value, and the kinds it is: configs, scene files and dendrograms all
# read numbers by this rule
JSON_KINDS = {
    "true": (True, {bool}), "int": (3, {int, float}), "float": (0.5, {float}),
    "400-digit-int": (10**399, {int}), "inf": (float("inf"), set()),
    "nan": (float("nan"), set()), "str": ("3", {str}), "list": ([3], {list}),
    "null": (None, set()),
}


@pytest.mark.parametrize("kind", [int, float, bool, str, list], ids=lambda k: k.__name__)
@pytest.mark.parametrize("name", list(JSON_KINDS))
def test_is_json_is_the_one_type_rule(name, kind):
    value, kinds = JSON_KINDS[name]
    assert is_json(value, kind) is (kind in kinds)
    if kind in kinds:
        require(kind, "x", [value, value])
    else:
        with pytest.raises(TypeError, match=r"^x: "):
            require(kind, "x", [value])


def test_integers_are_numbers_where_numbers_are_wanted():
    scene = scene_from_dict({**_scene_with_observation(
        bbox=[0, 0, 2, 1], score=1, mask_rle=[0, 2, 6], depth_mm=[10, 11.5]), "fps": 30})
    obs = scene.entities[0].observations[0]
    assert obs.bbox == _box(0, 0, 2, 1) and obs.score == 1.0 and scene.fps == 30.0
    assert obs.depth.values == (10, 11.5) and obs.mask.runs == (0, 2, 6)


@pytest.mark.parametrize("values", [("10.5",), (None,), (True,), ((1.0,),)],
                         ids=["string", "null", "bool", "nested"])
def test_depth_sample_rejects_non_numbers(values):
    with pytest.raises(SceneError):
        DepthSample(values=values)


@pytest.mark.parametrize("depth", [[True, 11.5], [True, 2], [2, 11.5, True]],
                         ids=json.dumps)
def test_bool_among_depth_numbers_is_refused(depth):
    # numpy reads such a list as numbers, the bool as 1
    fields = {"mask_rle": [0, len(depth), 8 - len(depth)], "depth_mm": depth}
    with pytest.raises(SceneError, match="^entity x: depth values must be numbers"):
        scene_from_dict(_scene_with_observation(**fields))
    assert DepthSample(values=(1, 1.0, 11.5)).values == (1, 1.0, 11.5)


def test_depth_sample_keeps_its_readings_decoded_and_read_only():
    sample = DepthSample(values=(10, 11.5, 2**60 + 1))
    assert sample.array.tolist() == [10.0, 11.5, float(2**60 + 1)]
    with pytest.raises(ValueError):
        sample.array[0] = 1.0
    # the decoded array takes no part in equality, hashing or the repr
    assert sample == DepthSample(values=(10, 11.5, 2**60 + 1))
    assert hash(sample) == hash(DepthSample(values=(10, 11.5, 2**60 + 1)))
    assert repr(sample) == f"DepthSample(values={sample.values!r})"


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), -1, 0, 0.0])
def test_fps_must_be_finite_and_positive(fps):
    # a non-finite fps fails the type check, as it is not a finite number
    message = ("^fps must be a finite number > 0 or null" if math.isfinite(fps)
               else f"^malformed scene header: fps: {fps} is not a finite number")
    with pytest.raises(SceneError, match=message):
        scene_from_dict({**_scene_with_observation(), "fps": fps})


def test_positive_or_null_fps_is_kept():
    for fps in (None, 0.5, 30):
        assert scene_from_dict({**_scene_with_observation(), "fps": fps}).fps == fps


@pytest.mark.parametrize("header", [{"width": -5}, {"width": 0}, {"height": 0},
                                    {"frame_count": -1}], ids=json.dumps)
def test_scene_header_must_be_in_range(header):
    with pytest.raises(SceneError, match="^width and height must be >= 1"):
        scene_from_dict({"width": 5, "height": 4, "frame_count": 3, "entities": [], **header})
    assert scene_from_dict({"width": 1, "height": 1, "frame_count": 0,
                            "entities": []}).frame_count == 0


@pytest.mark.parametrize("width, height", [(3840, 2160), (MAX_FRAME_PIXELS, 1),
                                           (1, MAX_FRAME_PIXELS), (2**12, 2**11)])
def test_frame_size_up_to_the_bound_is_accepted(width, height):
    SceneSequence(width=width, height=height, frame_count=1).validate()


@pytest.mark.parametrize("width, height", [(MAX_FRAME_PIXELS + 1, 1), (2**12 + 1, 2**11),
                                           (10**9, 10**9)])
def test_frame_size_above_the_bound_is_refused(width, height):
    with pytest.raises(SceneError, match=f"more than {MAX_FRAME_PIXELS} pixels"):
        SceneSequence(width=width, height=height, frame_count=1).validate()


# JSON-like values, kept small so that no draw names a large grid
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                             max_size=3),
    max_leaves=6)


@st.composite
def _scene_dicts(draw, valid=False):
    """A scene object that is valid but for its header's ranges, with one value
    sometimes set to any JSON value (an unknown key among them), or a value
    that is no object.  With ``valid`` it is a valid scene but for repeated
    entity ids."""
    if not valid and draw(st.integers(0, 19)) == 0:
        return draw(_JSON)
    low = 1 if valid else -1
    w, h, frames = (draw(st.integers(low, 5)), draw(st.integers(low, 5)),
                    draw(st.integers(low, 4)))
    data = {"width": w, "height": h, "frame_count": frames,
            "fps": draw(st.none() | st.floats(1, 60)), "entities": []}
    targets = [data]
    for _ in range(draw(st.integers(0, 3))):
        entity = {"id": draw(st.sampled_from("abcdefgh")),
                  "kind": draw(st.sampled_from(["object", "human_part"])),
                  "observations": []}
        for frame in sorted(draw(st.sets(st.integers(0, max(frames - 1, 0)), max_size=3))):
            x0, y0 = draw(st.integers(0, max(w - 1, 0))), draw(st.integers(0, max(h - 1, 0)))
            obs = {"frame": frame, "score": draw(st.floats(0, 1)),
                   "bbox": [x0, y0, draw(st.integers(x0 + 1, max(w, x0 + 1))),
                            draw(st.integers(y0 + 1, max(h, y0 + 1)))]}
            if w > 0 and h > 0 and draw(st.booleans()):
                pixels = draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))
                obs["mask_rle"] = list(mask_from_array(np.reshape(pixels, (h, w))).runs)
                if draw(st.booleans()):
                    obs["depth_mm"] = draw(st.lists(
                        st.floats(1, 2000), min_size=sum(pixels), max_size=sum(pixels)))
            entity["observations"].append(obs)
            targets.append(obs)
        data["entities"].append(entity)
        targets.append(entity)
    if not valid and draw(st.booleans()):
        target = draw(st.sampled_from(targets))
        target[draw(st.sampled_from(sorted(target) + ["unknown"]))] = draw(_JSON)
    return data


@settings(max_examples=300, deadline=None)
@given(_scene_dicts())
def test_scene_from_dict_returns_a_valid_scene_or_a_scene_error(data):
    try:
        scene = scene_from_dict(data)
    except SceneError:
        return
    scene.validate()
    assert scene.width >= 1 and scene.height >= 1 and scene.frame_count >= 0
    assert scene_to_dict(scene_from_dict(scene_to_dict(scene))) == scene_to_dict(scene)


def _plain_dump(scene):
    """The oracle of ``save_scene``'s bytes: one canonical ``json.dumps``."""
    return json.dumps(scene_to_dict(scene), sort_keys=True, separators=(",", ":"))


# depth readings whose JSON text is easy to get wrong: an int beside the
# equal float, and floats whose repr has an exponent
_DEPTHS = (st.sampled_from([10, 10.0, 1e-05, 1e+16, 2.5e-300, 123456789.125])
           | st.integers(1, 2**62) | st.floats(1e-300, 1e300))
# entity ids whose JSON text holds an escape, a quote, or the key save_scene
# splices its depth lists in after
_IDS = (st.sampled_from(["\x00", '"', '"depth_mm":', '"depth_mm":null', "\u00e9", "a"])
        | st.text(max_size=12).filter(lambda s: not {"/", "|", "\t", "\n", "\r"} & set(s)))


@st.composite
def _saved_scenes(draw):
    """A valid scene from ``_scene_dicts`` with its entity ids drawn from
    ``_IDS`` and its depth readings from ``_DEPTHS``; an observation without
    a mask sometimes gets a depth list of any length."""
    data = draw(_scene_dicts(valid=True))
    entities = data["entities"]
    ids = draw(st.lists(_IDS, min_size=len(entities), max_size=len(entities), unique=True))
    for entity, entity_id in zip(entities, ids):
        entity["id"] = entity_id
        for obs in entity["observations"]:
            if "depth_mm" in obs:
                size = len(obs["depth_mm"])
            elif "mask_rle" not in obs and draw(st.booleans()):
                size = draw(st.integers(0, 4))
            else:
                continue
            obs["depth_mm"] = draw(st.lists(_DEPTHS, min_size=size, max_size=size))
    return scene_from_dict(data)


@settings(max_examples=300, deadline=None)
@given(_saved_scenes())
def test_save_scene_writes_the_plain_canonical_dump(tmp_path_factory, scene):
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    save_scene(scene, str(path))
    assert path.read_text(encoding="utf-8") == _plain_dump(scene)


def test_save_scene_keeps_each_depth_text_and_splices_past_lookalike_ids(tmp_path):
    scene = SceneSequence(width=4, height=2, frame_count=2, fps=None, entities=[
        Entity(ent_id, EntityKind.OBJECT, [
            EntityObservation(frame=0, bbox=_box(0, 0, 4, 2), score=0.5,
                              mask=MaskRLE(width=4, height=2, runs=(1, 3, 4)),
                              depth=DepthSample(values=(10, 10.0, 1e-05))),
            EntityObservation(frame=1, bbox=_box(0, 0, 1, 1), score=1.0,
                              depth=DepthSample(values=(1e+16, 10)))])
        for ent_id in ("\x00", '"depth_mm":null', '"', "z")])
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    text = path.read_text(encoding="utf-8")
    assert text == _plain_dump(scene)
    assert text.count('"depth_mm":[10,10.0,1e-05]') == 4
    assert text.count('"depth_mm":[1e+16,10]') == 4
    assert '"id":"\\u0000"' in text and '"mask_rle":null' in text
    assert scene_to_dict(load_scene(str(path))) == scene_to_dict(scene)


def test_save_scene_writes_shared_and_equal_depth_samples_as_the_plain_dump(tmp_path):
    shared = DepthSample(values=(10, 12.5, 1e-05))
    # equal to ``shared`` (10 == 10.0) but written with its own text
    twin = DepthSample(values=(10.0, 12.5, 1e-05))
    assert twin == shared and twin is not shared
    mask = MaskRLE(width=4, height=2, runs=(1, 3, 4))

    def obs(frame, depth, mask=mask):
        return EntityObservation(frame=frame, bbox=_box(0, 0, 4, 2), score=0.5,
                                 mask=mask, depth=depth)

    scene = SceneSequence(width=4, height=2, frame_count=4, fps=30.0, entities=[
        Entity("a", EntityKind.OBJECT, [obs(0, shared), obs(1, twin), obs(2, shared),
                                        obs(3, None)]),
        Entity("b", EntityKind.OBJECT, [obs(0, twin), obs(1, shared),
                                        obs(2, DepthSample(values=(10, 12.5, 1e-05)))]),
        Entity("h", EntityKind.HUMAN_PART, [obs(0, shared, mask=None),
                                            obs(3, DepthSample(values=(7,)), mask=None)])])
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    text = path.read_text(encoding="utf-8")
    assert text == _plain_dump(scene)
    assert text.count('"depth_mm":[10,12.5,1e-05]') == 5
    assert text.count('"depth_mm":[10.0,12.5,1e-05]') == 2
    assert text.count('"depth_mm":[7]') == 1 and text.count('"depth_mm":null') == 1
    assert scene_to_dict(load_scene(str(path))) == scene_to_dict(scene)
