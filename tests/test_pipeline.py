"""Configuration handling and end-to-end orchestration on a small corpus."""

import filecmp
import json
import math
import os
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgraph import embedding as emb
from affgraph import pipeline
from affgraph.clustering import Dendrogram, Merge, hierarchical_cluster, sed_matrix
from affgraph.graphlet import canonical_form, parse_canonical
from affgraph.pipeline import (
    PROFILES,
    DatasetProfile,
    PipelineConfig,
    PipelineError,
    config_from_dict,
    embed_corpus,
    export_dendrogram_dot,
    form_table,
    graphlet_records,
    load_config,
    load_graphlet_corpus,
    run_pipeline,
    scene_graphlets,
)
from affgraph.scene import Entity, SceneSequence
from affgraph.synth import SyntheticScript, generate_synthetic

from conftest import forms_of, label_multiset, random_graphlet


def _small_cfg(mode="embedding", **kwargs):
    cfg = PipelineConfig(mode=mode, cut_threshold=None, seed=5, **kwargs)
    cfg.train = emb.TrainConfig(embedding_dim=16, epochs=10, batch_size=64,
                                wl_depth=4, learning_rate=0.25)
    return cfg


@pytest.fixture(scope="module")
def small_corpus():
    scenes = {}
    truth = {}
    specs = [("place-on", 0), ("place-on", 1), ("put-into", 2), ("put-into", 3),
             ("push-adjacent", 4)]
    for i, (kind, seed) in enumerate(specs):
        name = f"scene_{i:02d}"
        gen = generate_synthetic(SyntheticScript(kind=kind), seed=100 + seed)
        scenes[name] = gen.scene
        for (a, b), labels in gen.labels.items():
            truth[f"{name}/{a}/{b}"] = labels
    return scenes, truth


# -- configuration ------------------------------------------------------------

def test_config_from_dict_profiles_and_auto():
    cfg = config_from_dict({"profile": "wnp-like", "cut_threshold": "auto",
                            "mode": "sed", "seed": 9})
    assert cfg.profile == PROFILES["wnp-like"]
    assert cfg.cut_threshold is None
    assert cfg.mode == "sed"
    assert cfg.seed == 9
    cfg = config_from_dict({"profile": {"thresh_convex": 2.0, "h": 4, "n": 2},
                            "cut_threshold": 0.05,
                            "train": {"embedding_dim": 32, "epochs": 3}})
    assert cfg.profile.thresh_convex == 2.0
    assert cfg.cut_threshold == 0.05
    assert cfg.train.embedding_dim == 32
    for key, value in (("linkage", "average"), ("criterion", "bic")):  # fixed rules
        with pytest.raises(ValueError, match=f"^unknown key '{key}' at the top level$"):
            config_from_dict({key: value})


def test_config_validation_errors():
    with pytest.raises(ValueError):
        config_from_dict({"calculus": "rcc8"})
    with pytest.raises(ValueError):
        config_from_dict({"mode": "kmeans"})
    with pytest.raises(ValueError):
        config_from_dict({"train": {"embedding_dim": 0}})


def test_load_config_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "sed", "sed_threshold": 2.0}))
    cfg = load_config(str(path))
    assert cfg.mode == "sed"
    assert cfg.sed_threshold == 2.0


# -- orchestration ------------------------------------------------------------

EXPECTED_ARTIFACTS = ["episodes.json", "graphlets.jsonl", "vocabulary.tsv",
                      "embeddings.tsv", "dendrogram.json", "clusters.tsv",
                      "metrics.txt"]


def test_run_pipeline_writes_artifacts_and_is_deterministic(small_corpus, tmp_path):
    scenes, truth = small_corpus
    report1 = run_pipeline(scenes, _small_cfg(), str(tmp_path / "run1"), truth)
    report2 = run_pipeline(scenes, _small_cfg(), str(tmp_path / "run2"), truth)
    for name in EXPECTED_ARTIFACTS:
        p1 = tmp_path / "run1" / name
        p2 = tmp_path / "run2" / name
        assert p1.exists(), name
        assert filecmp.cmp(str(p1), str(p2), shallow=False), name
    assert (tmp_path / "run1" / "report.json").exists()
    assert report1.to_dict() == report2.to_dict()
    assert report1.n_graphlets == 10  # each interacting pair, both directions
    assert report1.v_measure is not None


def test_embedding_stage_reproducible_from_corpus_file(small_corpus, tmp_path):
    # re-training from the saved graphlet corpus alone reproduces the
    # embeddings artifact bit for bit
    scenes, truth = small_corpus
    out = tmp_path / "run"
    cfg = _small_cfg()
    run_pipeline(scenes, cfg, str(out), truth)
    records = load_graphlet_corpus(str(out / "graphlets.jsonl"))
    tokens = []
    for rec in records:
        labels, edges = parse_canonical(rec["form"])
        tokens.append(emb.wl_tokens(labels, edges, cfg.train.wl_depth))
    vocab = emb.build_vocabulary(tokens)
    table = emb.train([rec["id"] for rec in records], tokens, vocab, cfg.train, cfg.seed)
    saved = emb.load_embeddings(str(out / "embeddings.tsv"))
    assert saved.graph_ids == table.graph_ids
    np.testing.assert_array_equal(saved.vectors, table.vectors)


def test_run_pipeline_trains_with_the_seed_of_a_config_built_in_code(small_corpus, tmp_path):
    # no config file or dict is read here: the run's one seed reaches training
    scenes, truth = small_corpus
    train_cfg = emb.TrainConfig(embedding_dim=16, epochs=10, batch_size=64, wl_depth=4,
                                learning_rate=0.25)
    cfg = PipelineConfig(seed=7, cut_threshold=None, train=train_cfg)
    out = tmp_path / "run"
    run_pipeline(scenes, cfg, str(out), truth)
    records = load_graphlet_corpus(str(out / "graphlets.jsonl"))
    tokens = [emb.wl_tokens(*parse_canonical(rec["form"]), train_cfg.wl_depth)
              for rec in records]
    vocab = emb.build_vocabulary(tokens)
    ids = [rec["id"] for rec in records]
    saved = emb.load_embeddings(str(out / "embeddings.tsv")).vectors
    assert saved.tobytes() == emb.train(ids, tokens, vocab, train_cfg, 7).vectors.tobytes()
    assert saved.tobytes() != emb.train(ids, tokens, vocab, train_cfg, 0).vectors.tobytes()


def test_embed_corpus_tokenises_each_distinct_form_once(small_corpus, monkeypatch):
    scenes, _ = small_corpus
    cfg = _small_cfg()
    records = [rec for sid in sorted(scenes)
               for rec in graphlet_records(scene_graphlets(sid, scenes[sid], cfg)[1])]
    forms = {rec["form"] for rec in records}
    assert len(forms) < len(records)
    per_record = [emb.wl_tokens(*parse_canonical(rec["form"]), cfg.train.wl_depth)
                  for rec in records]
    calls, wl_tokens = [], emb.wl_tokens
    monkeypatch.setattr(emb, "wl_tokens", lambda *a: calls.append(a) or wl_tokens(*a))
    vocab, table = embed_corpus(records, cfg.train, cfg.seed)
    assert len(calls) == len(forms)
    want_vocab = emb.build_vocabulary(per_record)
    want = emb.train([rec["id"] for rec in records], per_record, want_vocab, cfg.train,
                     cfg.seed)
    assert vocab == want_vocab
    assert table.graph_ids == want.graph_ids
    assert table.vectors.tobytes() == want.vectors.tobytes()
    assert table.loss_history == want.loss_history


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 25), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_form_table_holds_each_distinct_form_once(seed, n, c_spat, k_spat):
    rng = np.random.default_rng(seed)
    pool = [random_graphlet(rng) for _ in range(rng.integers(1, n + 1))]
    gs = [pool[i] for i in rng.integers(len(pool), size=n)]  # with duplicates
    records = [{"id": f"g{i}", "form": canonical_form(g)} for i, g in enumerate(gs)]
    forms, rows = form_table(records)
    per_record = forms_of(gs)
    assert len({json.dumps(form) for form in forms}) == len(forms)  # no form twice
    assert list(dict.fromkeys(rows)) == list(range(len(forms)))  # in first-seen order
    assert [forms[r] for r in rows] == per_record
    # SED over the distinct forms, composed through rows, is SED over every record's
    dist, profile = sed_matrix(forms, c_spat, k_spat)
    want_dist, want_rows = sed_matrix(per_record, c_spat, k_spat)
    assert [profile[r] for r in rows] == want_rows
    assert dist.tobytes() == want_dist.tobytes()


def test_run_pipeline_sed_mode(small_corpus, tmp_path):
    scenes, truth = small_corpus
    report = run_pipeline(scenes, _small_cfg(mode="sed"), str(tmp_path / "sed"), truth)
    assert report.cut_threshold == 1.0  # preset, not BIC-selected
    assert not (tmp_path / "sed" / "embeddings.tsv").exists()
    assert (tmp_path / "sed" / "dendrogram.json").exists()
    assert report.v_measure is not None


def test_run_pipeline_sed_mode_gives_each_graphlet_its_profile_row(small_corpus, tmp_path):
    # at c_spat 0 distinct forms share a profile, so a form's row is not its profile's
    scenes, _ = small_corpus
    cfg = _small_cfg(mode="sed", c_spat=0.0)
    run_pipeline(scenes, cfg, str(tmp_path))
    gs = [g for name in sorted(scenes) for g in scene_graphlets(name, scenes[name], cfg)[1]]
    dist, rows = sed_matrix(forms_of(gs), cfg.c_spat, cfg.k_spat)
    assert len(set(rows)) < len({canonical_form(g) for g in gs})
    want = hierarchical_cluster(dist, [g.id for g in gs], rows).to_dict()
    assert json.loads((tmp_path / "dendrogram.json").read_text()) == want


def test_rcc5_on_baseline_calculus(small_corpus):
    scenes, _ = small_corpus
    cfg = _small_cfg(calculus="rcc5_on")
    name = sorted(scenes)[0]
    _, gs = scene_graphlets(name, scenes[name], cfg)
    assert gs
    labels = {lbl for g in gs for lbl in label_multiset(g, "spatial")}
    assert any(lbl.startswith("RCC5On:") for lbl in labels)
    assert not any(lbl.startswith("DiSR:") for lbl in labels)


def test_sed_on_rcc5_on_graphlets_follows_c_spat(small_corpus):
    # RCC5On takes DiSR's place between objects, and so its weight c_spat
    scenes, _ = small_corpus
    cfg = _small_cfg(calculus="rcc5_on")
    gs = [g for name in sorted(scenes) for g in scene_graphlets(name, scenes[name], cfg)[1]]
    expanded = [dist[np.ix_(rows, rows)]
                for dist, rows in (sed_matrix(forms_of(gs), c_spat, 0.5)
                                   for c_spat in (0.0, 1.0))]
    assert not np.array_equal(*expanded)


def test_run_pipeline_error_stages(small_corpus, tmp_path):
    scenes, _ = small_corpus
    with pytest.raises(PipelineError) as exc:
        run_pipeline({}, _small_cfg(), str(tmp_path / "empty"))
    assert exc.value.stage == "input"
    # groundtruth ids that match no graphlet leave nothing to evaluate
    with pytest.raises(PipelineError) as exc:
        run_pipeline(scenes, _small_cfg(), str(tmp_path / "badgt"),
                     groundtruth={"nope/a/b": ["x"]})
    assert exc.value.stage == "evaluate"


def test_run_pipeline_labels_a_per_scene_failure_graphlets(small_corpus, tmp_path,
                                                           monkeypatch):
    # relations, episodes and graphlets run as one per-scene stage
    def boom(*args, **kwargs):
        raise ValueError("boom")

    scenes, _ = small_corpus
    monkeypatch.setattr(pipeline, "extract_episodes", boom)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(scenes, _small_cfg(), str(tmp_path / "run"))
    assert exc.value.stage == "graphlets"
    assert str(exc.value) == f"[graphlets] scene {min(scenes)}: boom"


def test_export_dendrogram_dot(small_corpus, tmp_path):
    from affgraph.clustering import cut, load_dendrogram_json

    scenes, truth = small_corpus
    out = tmp_path / "run"
    run_pipeline(scenes, _small_cfg(), str(out), truth)
    dend = load_dendrogram_json(str(out / "dendrogram.json"))
    flat = cut(dend, 0.5)
    dot_path = tmp_path / "dend.dot"
    export_dendrogram_dot(dend, flat, str(dot_path))
    text = dot_path.read_text()
    assert text.startswith("graph dendrogram {")
    assert text.rstrip().endswith("}")
    for gid in dend.leaf_ids:
        assert gid in text


DOT_QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


@pytest.mark.parametrize("clustered", [False, True])
def test_export_dendrogram_dot_escapes_leaf_ids(tmp_path, clustered):
    ids = ['a"b', "c\\", 'd\\"e']
    dend = Dendrogram(n_leaves=3, leaf_ids=ids,
                      merges=[Merge(0, 1, 0.25, 2), Merge(2, 3, 0.5, 3)])
    flat = {gid: i for i, gid in enumerate(ids)} if clustered else None
    path = tmp_path / "dend.dot"
    export_dendrogram_dot(dend, flat, str(path))
    text = path.read_text()
    for line in text.splitlines():  # every '"' opens or closes a quoted string
        assert '"' not in DOT_QUOTED.sub("", line), line
    labels = {re.sub(r"\\(.)", r"\1", q[1:-1]) for q in DOT_QUOTED.findall(text)}
    # a clustered leaf's label ends in "\ncluster <k>", whose "\n" unescapes to "n"
    shown = {gid + (f"ncluster {k}" if clustered else "") for k, gid in enumerate(ids)}
    assert shown <= labels


@pytest.mark.parametrize("clustered", [False, True])
def test_export_dendrogram_dot_labels_each_leaf_once(tmp_path, clustered):
    dend = Dendrogram(n_leaves=3, leaf_ids=["g0", "g1", "g2"],
                      merges=[Merge(0, 1, 0.25, 2), Merge(2, 3, 0.5, 3)])
    flat = {"g0": 0, "g1": 0, "g2": 1} if clustered else None
    path = tmp_path / "dend.dot"
    export_dendrogram_dot(dend, flat, str(path))
    leaves = [line for line in path.read_text().splitlines() if re.match(r"  n[012] \[", line)]
    assert len(leaves) == 3
    assert [len(re.findall(r"\blabel=", line)) for line in leaves] == [1, 1, 1]
    if clustered:
        assert 'label="g2\\ncluster 1"' in leaves[2]


def test_relation_pass_builds_depth_maps_only_for_frames_with_an_object(monkeypatch):
    # a frame that observes no object yields no relation: a scene of a million
    # frames, two of them observed, builds two depth maps
    gen = generate_synthetic(SyntheticScript(kind="place-on", jitter=0), seed=0)

    def two_frames(frame_count, last):
        entities = [Entity(e.id, e.kind, [e.observations[0],
                                          replace(e.observations[20], frame=last)])
                    for e in gen.scene.entities]
        return SceneSequence(gen.scene.width, gen.scene.height, frame_count, entities=entities)

    real = pipeline.build_semantic_depth_map
    calls = []

    def counted(height, width, objects, hands):
        frames = {obs.frame for obs in [*objects.values(), *hands]}
        assert len(frames) == 1, "a depth map takes the observations of one frame"
        calls.extend(frames)
        assert len(calls) <= 2, "depth map built for a frame without an object"
        return real(height, width, objects, hands)

    cfg = PipelineConfig()
    short = pipeline.compute_frame_relations(two_frames(21, 20), cfg)
    monkeypatch.setattr(pipeline, "build_semantic_depth_map", counted)
    long = pipeline.compute_frame_relations(two_frames(10**6, 10**6 - 1), cfg)
    assert calls == [0, 10**6 - 1]
    assert long == {pair: [(0, a), (10**6 - 1, b)] for pair, [(_, a), (_, b)] in short.items()}
    assert len(long) == 4


def test_alg1_literal_never_types_a_synthetic_track_concave():
    # a frame has a deep pixel only when its depth range exceeds thresh_convex,
    # and the literal reading calls a frame concave only below that range, so
    # no containment comes out of it; the default reading finds containment
    contained = {False: 0, True: 0}
    for kind in ("put-into", "place-on", "take-out", "push-adjacent"):
        for seed in range(5):
            scene = generate_synthetic(SyntheticScript(kind=kind), seed=seed).scene
            for profile in PROFILES.values():
                for literal in (False, True):
                    cfg = PipelineConfig(profile=replace(profile, alg1_literal=literal))
                    tokens = {token for pair_tokens in
                              pipeline.compute_frame_relations(scene, cfg).values()
                              for _, token in pair_tokens}
                    contained[literal] += bool(tokens & {"Cont", "Conti"})
    assert contained[True] == 0
    assert contained[False] > 0


# -- config: named profiles, bases, fuzzing ------------------------------------

def test_named_profile_is_a_copy(monkeypatch):
    monkeypatch.setitem(PROFILES, "wnp-like", replace(PROFILES["wnp-like"]))
    config_from_dict({"profile": "wnp-like"}).profile.thresh_convex = 9.0
    assert config_from_dict({"profile": "wnp-like"}).profile.thresh_convex == 0.3
    assert PROFILES["wnp-like"].thresh_convex == 0.3


def test_config_over_a_base_keeps_the_base_and_reseeds_training():
    base = config_from_dict({"seed": 2, "mode": "sed", "train": {"epochs": 3}})
    cfg = config_from_dict({"seed": 4}, base)
    assert (cfg.mode, cfg.train.epochs, cfg.seed) == ("sed", 3, 4)
    assert base.seed == 2


_INTS = {"smoothing": 0, "gap_bridge": 0, "seed": 0, "h": 2, "n": 1,
         "embedding_dim": 1, "batch_size": 1, "wl_depth": 0, "negatives": 1,
         "epochs": 1}  # lowest allowed value
_FLOATS = {"sed_threshold": (0, math.inf), "c_spat": (0, 1), "k_spat": (0, 1),
           "thresh_convex": (0, math.inf), "noise_ratio": (0, math.inf),
           "learning_rate": (0, math.inf), "min_lr_factor": (0, 1)}

# valid values of each field, bar the odd draw that breaks n < h or
# learning_rate > 0 ...
_VALID = {
    **{name: st.integers(low, low + 30) for name, low in _INTS.items()},
    **{name: st.integers(0, 1) | st.floats(low, min(high, 10.0))
       for name, (low, high) in _FLOATS.items()},
    "calculus": st.sampled_from(["disr", "rcc5_on"]),
    "mode": st.sampled_from(["embedding", "sed"]),
    "cut_threshold": st.none() | st.just("auto") | st.floats(0.0, 1.0),
    "alg1_literal": st.booleans(),
}
# ... and any JSON value, usually the wrong type or out of range
_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from(["auto", "x", "0.5", "disr", "sed", *PROFILES]),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=3), st.none()),
)


def _object_of(cls):
    """A JSON object setting valid values on any subset of ``cls``'s fields."""
    return st.fixed_dictionaries({}, optional={
        f.name: _VALID[f.name] for f in fields(cls) if f.name in _VALID})


@st.composite
def _configs(draw):
    """A valid config object, or one with one key set to any JSON value (an
    unknown key among them), or a value that is no object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_ANY)
    data = draw(_object_of(PipelineConfig))
    data["profile"] = draw(st.sampled_from(sorted(PROFILES)) | _object_of(DatasetProfile))
    data["train"] = draw(_object_of(emb.TrainConfig))
    if draw(st.booleans()):
        cls, target = draw(st.sampled_from([(PipelineConfig, data),
                                            (emb.TrainConfig, data["train"])]
                                           + [(DatasetProfile, data["profile"])]
                                           * isinstance(data["profile"], dict)))
        key = draw(st.sampled_from([f.name for f in fields(cls)] + ["cut_treshold"]))
        target[key] = draw(_ANY)
    return data


def _assert_well_typed(cfg):
    assert isinstance(cfg.profile, DatasetProfile)
    assert isinstance(cfg.train, emb.TrainConfig)
    assert cfg.calculus in ("disr", "rcc5_on") and cfg.mode in ("embedding", "sed")
    assert cfg.cut_threshold is None or (
        type(cfg.cut_threshold) in (int, float) and math.isfinite(cfg.cut_threshold)
        and cfg.cut_threshold >= 0)
    for obj in (cfg, cfg.profile, cfg.train):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if f.name in _INTS:
                assert type(value) is int and value >= _INTS[f.name], f.name
            elif f.name in _FLOATS:
                low, high = _FLOATS[f.name]
                assert type(value) in (int, float) and math.isfinite(value), f.name
                assert low <= value <= high, f.name
    assert type(cfg.profile.alg1_literal) is bool
    assert cfg.profile.n < cfg.profile.h <= sys.float_info.max
    assert cfg.train.learning_rate > 0
    assert cfg.train.embedding_dim <= emb.MAX_EMBEDDING_DIM
    assert cfg.train.negatives <= emb.MAX_NEGATIVES
    assert cfg.train.wl_depth <= emb.MAX_WL_DEPTH


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_config_from_dict_returns_a_valid_config_or_a_data_error(data):
    try:
        cfg = config_from_dict(data)
    except (KeyError, TypeError, ValueError):  # the errors the CLI reports as exit 2
        return
    _assert_well_typed(cfg)
    for key in ("calculus", "mode", "smoothing", "gap_bridge", "sed_threshold",
                "c_spat", "k_spat", "seed"):
        if key in data:
            assert getattr(cfg, key) == data[key]
    for key, value in data.get("train", {}).items():
        assert getattr(cfg.train, key) == value


def test_readme_config_example_is_a_complete_valid_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("### Config file (JSON)", 1)[1].split("```json\n", 1)[1]
    data = json.loads(block.split("```", 1)[0])
    config_from_dict(data)
    # the example names every field
    assert set(data) == {f.name for f in fields(PipelineConfig)}
    train_fields = {f.name for f in fields(emb.TrainConfig)}
    assert set(data["train"]) == train_fields
    # and the list of train fields under it names each of them once
    block = readme.split("The `train` fields, each optional, with its default:\n\n", 1)[1]
    names = re.findall(r"^- `(\w+)`:", block.split("\n\n", 1)[0], re.MULTILINE)
    assert sorted(names) == sorted(train_fields)
