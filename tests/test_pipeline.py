"""Configuration handling and end-to-end orchestration on a small corpus."""

import filecmp
import json
import os

import numpy as np
import pytest

from affgraph import embedding as emb
from affgraph.clustering import Criterion, Linkage, sed_matrix
from affgraph.graphlet import parse_canonical
from affgraph.pipeline import (
    PROFILES,
    PipelineConfig,
    PipelineError,
    config_from_dict,
    export_dendrogram_dot,
    load_config,
    load_graphlet_corpus,
    run_pipeline,
    scene_graphlets,
)
from affgraph.synth import SyntheticScript, generate_synthetic


def _small_cfg(mode="embedding", **kwargs):
    cfg = PipelineConfig(mode=mode, cut_threshold=None, **kwargs)
    cfg.train = emb.TrainConfig(embedding_dim=16, epochs=10, batch_size=64,
                                wl_depth=4, learning_rate=0.25, seed=5)
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
    assert cfg.train.seed == 9  # seed propagates into training
    cfg = config_from_dict({"profile": {"thresh_convex": 2.0, "h": 4, "n": 2},
                            "cut_threshold": 0.05,
                            "train": {"embedding_dim": 32, "epochs": 3}})
    assert cfg.profile.thresh_convex == 2.0
    assert cfg.cut_threshold == 0.05
    assert cfg.train.embedding_dim == 32
    cfg = config_from_dict({"linkage": "complete", "criterion": "aic"})
    assert cfg.linkage is Linkage.COMPLETE
    assert cfg.criterion is Criterion.AIC


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
    # report fields agree apart from the artifact paths, which embed out_dir
    d1, d2 = report1.to_dict(), report2.to_dict()
    d1.pop("artifacts")
    d2.pop("artifacts")
    assert d1 == d2
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
    table = emb.train([rec["id"] for rec in records], tokens, vocab, cfg.train)
    saved = emb.load_embeddings(str(out / "embeddings.tsv"))
    assert saved.graph_ids == table.graph_ids
    np.testing.assert_array_equal(saved.vectors, table.vectors)


def test_run_pipeline_sed_mode(small_corpus, tmp_path):
    scenes, truth = small_corpus
    report = run_pipeline(scenes, _small_cfg(mode="sed"), str(tmp_path / "sed"), truth)
    assert report.cut_threshold == 1.0  # preset, not criterion-selected
    assert not (tmp_path / "sed" / "embeddings.tsv").exists()
    assert (tmp_path / "sed" / "dendrogram.json").exists()
    assert report.v_measure is not None


def test_rcc5_on_baseline_calculus(small_corpus):
    scenes, _ = small_corpus
    cfg = _small_cfg(calculus="rcc5_on")
    name = sorted(scenes)[0]
    _, gs = scene_graphlets(name, scenes[name], cfg)
    assert gs
    labels = {lbl for g in gs for lbl in g.label_multiset("spatial")}
    assert any(lbl.startswith("RCC5On:") for lbl in labels)
    assert not any(lbl.startswith("DiSR:") for lbl in labels)


def test_sed_on_rcc5_on_graphlets_follows_c_spat(small_corpus):
    # RCC5On takes DiSR's place between objects, and so its weight c_spat
    scenes, _ = small_corpus
    cfg = _small_cfg(calculus="rcc5_on")
    gs = [g for name in sorted(scenes) for g in scene_graphlets(name, scenes[name], cfg)[1]]
    assert not np.array_equal(sed_matrix(gs, 0.0, 0.5), sed_matrix(gs, 1.0, 0.5))


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
