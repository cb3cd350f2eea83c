"""Command-line interface: subcommands, config resolution, exit codes."""

import argparse
import ast
import gc
import json
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

import affgraph
from affgraph import cli, pipeline, synth
from affgraph.cli import (
    CONFIG_ENV,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from affgraph.embedding import EmbeddingTable, save_embeddings
from affgraph.evaluation import pca_project
from affgraph.graphlet import AGraphlet
from affgraph.scene import MAX_FRAME_PIXELS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAST_TRAIN = {"embedding_dim": 16, "epochs": 8, "batch_size": 64,
              "wl_depth": 4, "learning_rate": 0.25}


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    assert main(["synth", "place-on", "-o", str(path), "--seed", "1"]) == EXIT_OK
    return path


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": FAST_TRAIN, "cut_threshold": "auto"}))
    return path


def test_validate_ok(scene_file, capsys):
    assert main(["validate", str(scene_file)]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["validate", str(bad)]) == EXIT_DATA


def test_missing_scene_file_is_usage_error(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: argument command: invalid choice: 'frobnicate'")
    assert err.count("\n") == 1  # one line, no usage dump


def test_relations_and_episodes_json_output(scene_file, capsys):
    assert main(["relations", str(scene_file)]) == EXIT_OK
    rel = json.loads(capsys.readouterr().out)
    assert "obj_a|obj_b" in rel
    assert main(["episodes", str(scene_file)]) == EXIT_OK
    eps = json.loads(capsys.readouterr().out)
    assert any(ep["pair"] == ["obj_a", "obj_b"] for ep in eps)


def test_full_pipeline_via_subcommands(tmp_path, scene_file, fast_config, capsys):
    corpus = tmp_path / "corpus.jsonl"
    embs = tmp_path / "emb.tsv"
    clusters = tmp_path / "clusters.tsv"
    dend = tmp_path / "dend.json"
    cfg = ["--config", str(fast_config)]
    assert main(["graphlets", str(scene_file), "-o", str(corpus)] + cfg) == EXIT_OK
    assert main(["embed", str(corpus), "-o", str(embs)] + cfg) == EXIT_OK
    assert main(["cluster", str(embs), "-o", str(clusters),
                 "--dendrogram", str(dend)] + cfg) == EXIT_OK
    assert clusters.exists() and dend.exists()
    dot = tmp_path / "dend.dot"
    assert main(["export", str(dend), "-o", str(dot),
                 "--clusters", str(clusters)]) == EXIT_OK
    assert dot.read_text().startswith("graph dendrogram {")
    capsys.readouterr()


def test_run_with_truth_and_metrics(tmp_path, fast_config, capsys):
    scene = tmp_path / "s.json"
    labels = tmp_path / "labels.json"
    assert main(["synth", "put-into", "-o", str(scene),
                 "--labels", str(labels), "--seed", "2"]) == EXIT_OK
    capsys.readouterr()  # drop the synth status line
    pair_labels = json.loads(labels.read_text())
    truth = {f"s/{k.replace('|', '/')}": v for k, v in pair_labels.items()}
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(json.dumps(truth))
    out = tmp_path / "out"
    assert main(["run", str(scene), "-o", str(out), "--truth", str(truth_path),
                 "--config", str(fast_config)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["n_graphlets"] == 2
    assert report["v_measure"] is not None
    assert (out / "metrics.txt").exists()
    assert main(["evaluate", str(out / "clusters.tsv"), str(truth_path)]) == EXIT_OK
    assert "v_measure" in capsys.readouterr().out


def test_config_env_variable(tmp_path, scene_file, monkeypatch, capsys):
    cfg = tmp_path / "env_cfg.json"
    cfg.write_text(json.dumps({"calculus": "rcc5_on"}))
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    assert main(["relations", str(scene_file)]) == EXIT_OK
    rel = json.loads(capsys.readouterr().out)
    tokens = {tok for _, tok in rel["obj_a|obj_b"]}
    assert tokens <= {"DR", "PO", "PP", "PPi", "On", "Oni"}


def test_missing_config_file_is_usage_error(scene_file, tmp_path):
    assert main(["relations", str(scene_file),
                 "--config", str(tmp_path / "none.json")]) == EXIT_USAGE


def test_invalid_config_is_data_error(scene_file, tmp_path):
    cfg = tmp_path / "bad_cfg.json"
    cfg.write_text("{not json")
    assert main(["relations", str(scene_file), "--config", str(cfg)]) == EXIT_DATA


def test_infeasible_script_is_data_error(tmp_path):
    assert main(["synth", "place-on", "-o", str(tmp_path / "x.json"),
                 "--switch", "2"]) == EXIT_DATA


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"],
    ["--jitter", "99999999999999999999"],
    ["--jitter", "-5"],
    ["--jitter", "17"],
    ["--switch", "-3"],
    ["--frames", "1001"],
])
def test_synth_out_of_range_flag_is_one_line_data_error(tmp_path, capsys, flags):
    out = tmp_path / "x.json"
    assert main(["synth", "place-on", "-o", str(out), *flags]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert not out.exists()


def test_synth_jitter_and_seed_bounds_are_accepted(tmp_path):
    for flags in (["--jitter", "0", "--seed", "0"], ["--jitter", "16", "--seed", str(2**70)]):
        assert main(["synth", "place-on", "-o", str(tmp_path / "x.json"), *flags]) == EXIT_OK


def test_divergent_training_is_numeric_error(tmp_path, scene_file, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["graphlets", str(scene_file), "-o", str(corpus)]) == EXIT_OK
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({"train": dict(FAST_TRAIN, learning_rate=5e4,
                                             epochs=40)}))
    code = main(["embed", str(corpus), "-o", str(tmp_path / "emb.tsv"),
                 "--config", str(cfg)])
    assert code == EXIT_NUMERIC
    capsys.readouterr()


def test_overflowing_run_and_embed_print_one_numeric_error_line(tmp_path, scene_file):
    # in a fresh interpreter, so that numpy's warnings reach stderr as a user
    # sees them: the overflow on the way to the divergence guard warns nothing
    corpus = tmp_path / "corpus.jsonl"
    assert main(["graphlets", str(scene_file), "-o", str(corpus)]) == EXIT_OK
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({"train": {"learning_rate": 1e308, "epochs": 2}}))
    src = os.path.dirname(os.path.dirname(affgraph.__file__))
    for argv in (["run", str(scene_file), "-o", str(tmp_path / "out")],
                 ["embed", str(corpus), "-o", str(tmp_path / "emb.tsv")]):
        proc = subprocess.run(
            [sys.executable, "-m", "affgraph.cli", *argv, "--config", str(cfg)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == EXIT_NUMERIC, proc.stderr
        assert proc.stderr.startswith("numeric error: epoch ") \
            and proc.stderr.count("\n") == 1, proc.stderr


def test_parser_choices_come_from_the_tables_that_own_them():
    def choices(action_dest, command):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[command]
        return next(a.choices for a in sub._actions if a.dest == action_dest)

    for command in ("relations", "episodes", "graphlets", "run"):
        assert choices("calculus", command) == pipeline._CHOICES["calculus"]
    assert choices("mode", "run") == pipeline._CHOICES["mode"]
    assert choices("kind", "synth") == synth.SCRIPT_KINDS


CONFIG_FLAGS = ["--config", "--profile", "--calculus", "--mode", "--smoothing",
                "--gap-bridge", "--seed", "--cut-threshold"]


def test_each_subcommand_takes_only_the_flags_its_stage_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices
    episode = {"--config", "--profile", "--calculus", "--smoothing", "--gap-bridge"}
    output = {"-o", "--output"}
    expected = {
        "relations": {"--config", "--profile", "--calculus"},
        "episodes": episode,
        "graphlets": episode | output,
        "embed": {"--config", "--seed"} | output,
        "cluster": {"--config", "--cut-threshold", "--dendrogram"} | output,
        "run": {*CONFIG_FLAGS, "--truth"} | output,
        "export": {"--clusters", "--embeddings", "--pca"} | output,
    }
    for command, flags in expected.items():
        taken = {s for a in sub[command]._actions for s in a.option_strings}
        assert taken - {"-h", "--help"} == flags, command
    # run lists all of them, in the order its --help always had
    assert [s for a in sub["run"]._actions for s in a.option_strings
            if s in CONFIG_FLAGS] == CONFIG_FLAGS


@pytest.mark.parametrize("command, flag", [
    ("cluster", ["--mode", "sed"]), ("cluster", ["--seed", "9"]),
    ("embed", ["--cut-threshold", "auto"]), ("relations", ["--smoothing", "3"]),
    ("export", ["--format", "json"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_flag_a_stage_does_not_read_is_a_one_line_usage_error(tmp_path, capsys,
                                                              two_row_table, command,
                                                              flag):
    out = tmp_path / "out"
    dend = tmp_path / "d.json"
    dend.write_text(json.dumps(TWO_LEAVES))
    argv = {"cluster": [str(two_row_table), "-o", str(out), "--dendrogram", str(dend)],
            "embed": [str(tmp_path / "corpus.jsonl"), "-o", str(out)],
            "relations": [str(tmp_path / "scene.json")],
            "export": [str(dend), "-o", str(out)]}[command]
    assert main([command, *argv, *flag]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {' '.join(flag)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json", "emb.tsv"]


@pytest.mark.parametrize("table", [
    "g0\t2\t1.0 0.0\n",                              # one row
    "g0\t3\t1.0 0.0\ng1\t2\t0.0 1.0\n",              # short vector
    "g0\t2\t0.0 0.0\ng1\t2\t0.0 1.0\n",              # zero vector
    "g0\t2\tnan 1.0\ng1\t2\t0.0 1.0\n",              # non-finite entry
], ids=["one-row", "short-vector", "zero-vector", "nan"])
def test_cluster_bad_table_is_data_error(tmp_path, capsys, table):
    embs = tmp_path / "emb.tsv"
    embs.write_text(table)
    code = main(["cluster", str(embs), "-o", str(tmp_path / "c.tsv"),
                 "--dendrogram", str(tmp_path / "d.json"), "--cut-threshold", "auto"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


def test_evaluate_non_integer_cluster_is_data_error(tmp_path, capsys):
    clusters = tmp_path / "clusters.tsv"
    clusters.write_text("g0\t0\ng1\tx\n")
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"g0": ["a"], "g1": ["b"]}))
    assert main(["evaluate", str(clusters), str(truth)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


@pytest.mark.parametrize("rows, line, fields", [("g0\t0\ng1\n", 2, 1),
                                                ("g0\t0\t1\ng1\t1\n", 1, 3)],
                         ids=["one-field", "three-fields"])
def test_evaluate_cluster_row_names_its_field_count(tmp_path, capsys, rows, line, fields):
    clusters = tmp_path / "clusters.tsv"
    clusters.write_text(rows)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"g0": ["a"], "g1": ["b"]}))
    assert main(["evaluate", str(clusters), str(truth)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"line {line}: expected 2 tab-separated fields, got {fields}" in err
    assert err.count("\n") == 1


@pytest.fixture()
def two_row_table(tmp_path):
    embs = tmp_path / "emb.tsv"
    embs.write_text("g0\t2\t1.0 0.0\ng1\t2\t0.0 1.0\n")
    return embs


@pytest.mark.parametrize("raw", ["abc", "nan", "inf", "-inf", "", "-1"])
def test_bad_cut_threshold_flag_is_usage_error(tmp_path, capsys, two_row_table, raw):
    code = main(["cluster", str(two_row_table), "-o", str(tmp_path / "c.tsv"),
                 "--dendrogram", str(tmp_path / "d.json"), f"--cut-threshold={raw}"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "c.tsv").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", '"nan"', '"inf"', "[1]", "-1"])
def test_bad_cut_threshold_in_config_is_data_error(tmp_path, capsys, two_row_table,
                                                   value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"cut_threshold": %s}' % value)
    code = main(["cluster", str(two_row_table), "-o", str(tmp_path / "c.tsv"),
                 "--dendrogram", str(tmp_path / "d.json"), "--config", str(cfg)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: invalid config {cfg}: ") and err.count("\n") == 1


def test_finite_cut_threshold_flag_still_cuts(tmp_path, capsys, two_row_table):
    code = main(["cluster", str(two_row_table), "-o", str(tmp_path / "c.tsv"),
                 "--dendrogram", str(tmp_path / "d.json"), "--cut-threshold", "0.5"])
    assert code == EXIT_OK
    assert "2 clusters at threshold 0.5" in capsys.readouterr().out


@pytest.mark.parametrize("record", [
    {"id": "g0"},                                  # no form
    {"form": "V[entity|anchor]E[]"},               # no id
    {"id": "g0", "form": "not a form"},
    {"id": "g0", "form": 7},
    {"id": "g0", "form": "V[a;b]E[0-x]"},
    {"id": "g0", "form": "V[a;b]E[0-5]"},          # edge to a missing vertex
    ["g0"],
    {"id": "ok", "form": "V[entity|anchor]E[]"},   # the id of record 1
    {"id": 1, "form": "V[entity|anchor]E[]"},
    # such ids would split the rows of embeddings.tsv
    {"id": "g\t1", "form": "V[entity|anchor]E[]"},
    {"id": "g\n1", "form": "V[entity|anchor]E[]"},
    {"id": "\r", "form": "V[entity|anchor]E[]"},
], ids=["no-form", "no-id", "malformed-form", "non-string-form", "bad-edge",
        "edge-out-of-range", "not-an-object", "repeated-id", "non-string-id",
        "tab-in-id", "newline-in-id", "carriage-return-id"])
def test_embed_bad_corpus_record_is_data_error(tmp_path, capsys, record):
    corpus = tmp_path / "corpus.jsonl"
    good = {"id": "ok", "form": "V[entity|anchor;entity|partner]E[0-1]"}
    corpus.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    code = main(["embed", str(corpus), "-o", str(tmp_path / "emb.tsv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {corpus}: record 2") and err.count("\n") == 1
    assert not (tmp_path / "emb.tsv").exists()


def test_scene_name_clash_is_usage_error(tmp_path, fast_config, capsys):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(str(tmp_path / sub / "s.json"))
        assert main(["synth", "place-on", "-o", paths[-1], "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    corpus = tmp_path / "corpus.jsonl"
    for argv in (["graphlets", *paths, "-o", str(corpus)],
                 ["run", *paths, "-o", str(tmp_path / "out"),
                  "--config", str(fast_config)]):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert paths[0] in captured.err and paths[1] in captured.err
    assert not corpus.exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb"], ids=json.dumps)
def test_scene_name_with_a_row_break_is_usage_error(tmp_path, fast_config, capsys, name):
    # the name starts every graphlet id, the first field of each table row
    path = str(tmp_path / f"{name}.json")
    assert main(["synth", "place-on", "-o", path, "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    for argv in (["graphlets", path, "-o", str(corpus)],
                 ["run", path, "-o", str(out), "--config", str(fast_config)],
                 ["run", path, "-o", str(out), "--mode", "sed"]):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert repr(path) in captured.err
    assert not corpus.exists() and not out.exists()


def test_graphlets_reads_scenes_in_name_order(tmp_path, fast_config, capsys):
    # as `run` does, so the argument order cannot change the corpus
    paths = [str(tmp_path / f"{name}.json") for name in ("aa", "zz")]
    for seed, path in enumerate(paths):
        assert main(["synth", "place-on", "-o", path, "--seed", str(seed)]) == EXIT_OK
    corpus, out, cfg = tmp_path / "corpus.jsonl", tmp_path / "run", ["--config", str(fast_config)]
    assert main(["graphlets", *reversed(paths), "-o", str(corpus), *cfg]) == EXIT_OK
    assert main(["run", *paths, "-o", str(out), *cfg]) == EXIT_OK
    capsys.readouterr()
    assert corpus.read_bytes() == (out / "graphlets.jsonl").read_bytes()
    scenes = [json.loads(line)["scene"] for line in corpus.read_text().splitlines()]
    assert scenes == ["aa", "aa", "zz", "zz"]


def test_run_without_an_interaction_writes_nothing(tmp_path, capsys):
    scene, out = tmp_path / "scene.json", tmp_path / "out"
    assert main(["synth", "occlude-pass-behind", "-o", str(scene)]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", str(scene), "-o", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "no interactions found in any scene" in err and err.count("\n") == 1
    assert not out.exists()


TWO_LEAVES = {"n_leaves": 2, "leaf_ids": ["g0", "g1"], "merges": [[0, 1, 0.5, 2]]}
# finite, but its row norms overflow: every cosine cost would read 1.0
HUGE_TABLE = "g0\t2\t1e308 1e308\ng1\t2\t1e308 -1e308\ng2\t2\t-1e308 1e308\n"


@pytest.mark.parametrize("dend, clusters, bad", [
    (TWO_LEAVES, "g0\t0\ng1\tx\n", "clusters"),
    ({k: v for k, v in TWO_LEAVES.items() if k != "n_leaves"}, "g0\t0\ng1\t1\n",
     "dendrogram"),
    (TWO_LEAVES, "g0\t0\n", "clusters"),
], ids=["non-integer-cluster", "no-n-leaves", "missing-leaf"])
def test_export_bad_input_is_data_error(tmp_path, capsys, dend, clusters, bad):
    paths = {"dendrogram": tmp_path / "dend.json", "clusters": tmp_path / "c.tsv"}
    paths["dendrogram"].write_text(json.dumps(dend))
    paths["clusters"].write_text(clusters)
    code = main(["export", str(paths["dendrogram"]), "-o", str(tmp_path / "d.dot"),
                 "--clusters", str(paths["clusters"])])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {paths[bad]}: ") and err.count("\n") == 1
    assert not (tmp_path / "d.dot").exists()


@pytest.mark.parametrize("table", ["g0\t3\t1.0 0.0\ng1\t2\t0.0 1.0\n",
                                   "g0\t2\t1.0 0.0\ng1\t2\t0.0 1.0\n",
                                   HUGE_TABLE],
                         ids=["short-vector", "too-few-rows", "huge"])
def test_export_bad_pca_table_is_data_error(tmp_path, capsys, table):
    dend = tmp_path / "dend.json"
    dend.write_text(json.dumps(TWO_LEAVES))
    embs = tmp_path / "emb.tsv"
    embs.write_text(table)
    code = main(["export", str(dend), "-o", str(tmp_path / "d.dot"),
                 "--embeddings", str(embs), "--pca", str(tmp_path / "pca.tsv")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {embs}: ") and err.count("\n") == 1


@pytest.mark.parametrize("table", ["g0\t2\t1.0 x\ng1\t2\t0.0 1.0\ng2\t2\t1.0 1.0\n",
                                   HUGE_TABLE], ids=["non-number", "huge"])
def test_export_reads_every_input_before_writing(tmp_path, capsys, table):
    dend, embs = tmp_path / "dend.json", tmp_path / "emb.tsv"
    dend.write_text(json.dumps(TWO_LEAVES))
    embs.write_text(table)
    assert main(["export", str(dend), "-o", str(tmp_path / "d.dot"), "--embeddings",
                 str(embs), "--pca", str(tmp_path / "pca.tsv")]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {embs}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dend.json", "emb.tsv"]


def test_export_pca_rows_are_ids_and_the_projection_bit_for_bit(tmp_path):
    dend = tmp_path / "dend.json"
    dend.write_text(json.dumps(TWO_LEAVES))
    vectors = np.array([[1.0, 0.3, -2.0], [0.1, 1.0, 0.7], [-0.4, 0.2, 1 / 3]])
    embs, pca = tmp_path / "emb.tsv", tmp_path / "pca.tsv"
    save_embeddings(EmbeddingTable(["g0", "g1", "g2"], vectors), str(embs))
    assert main(["export", str(dend), "-o", str(tmp_path / "d.dot"),
                 "--embeddings", str(embs), "--pca", str(pca)]) == EXIT_OK
    rows = [line.split("\t") for line in pca.read_text().splitlines()]
    assert [row[0] for row in rows] == ["g0", "g1", "g2"]
    assert all(len(row) == 3 for row in rows)
    read = np.array([[float(x), float(y)] for _, x, y in rows])
    assert read.tobytes() == pca_project(vectors, 2).tobytes()


def test_removed_per_frame_convexity_field_is_data_error(tmp_path, scene_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": {"per_frame_convexity": True}}))
    assert main(["relations", str(scene_file), "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


def test_subcommand_chain_reproduces_run_artifacts(tmp_path, fast_config, capsys):
    # every subcommand runs the stage function `run` runs, so the chain's
    # artifacts equal run's byte for byte
    scenes, truth = [], {}
    for i, kind in enumerate(["place-on", "put-into", "push-adjacent"]):
        path, labels = tmp_path / f"scene_{i}.json", tmp_path / f"labels_{i}.json"
        assert main(["synth", kind, "-o", str(path), "--labels", str(labels),
                     "--seed", str(10 + i)]) == EXIT_OK
        scenes.append(str(path))
        truth.update({f"scene_{i}/{k.replace('|', '/')}": v
                      for k, v in json.loads(labels.read_text()).items()})
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(json.dumps(truth))
    # each stage takes only its own flags: the seed trains, the cut clusters
    cfg = ["--config", str(fast_config)]
    seed, cut = ["--seed", "3"], ["--cut-threshold", "auto"]
    out, chain = tmp_path / "run", tmp_path / "chain"
    chain.mkdir()
    assert main(["run", *scenes, "-o", str(out), "--truth", str(truth_path),
                 *cfg, *seed, *cut]) == EXIT_OK
    assert main(["graphlets", *scenes, "-o", str(chain / "graphlets.jsonl"),
                 *cfg]) == EXIT_OK
    assert main(["embed", str(chain / "graphlets.jsonl"),
                 "-o", str(chain / "embeddings.tsv"), *cfg, *seed]) == EXIT_OK
    assert main(["cluster", str(chain / "embeddings.tsv"),
                 "-o", str(chain / "clusters.tsv"),
                 "--dendrogram", str(chain / "dendrogram.json"), *cfg, *cut]) == EXIT_OK
    capsys.readouterr()
    for name in ("graphlets.jsonl", "embeddings.tsv", "dendrogram.json", "clusters.tsv"):
        assert (chain / name).read_bytes() == (out / name).read_bytes(), name
    episodes = json.loads((out / "episodes.json").read_text())
    assert sorted(episodes) == ["scene_0", "scene_1", "scene_2"]
    for i, scene in enumerate(scenes):
        assert main(["episodes", scene, *cfg]) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed == json.dumps(episodes[f"scene_{i}"], sort_keys=True) + "\n"
        assert printed.rstrip("\n") in (out / "episodes.json").read_text()
    assert main(["evaluate", str(chain / "clusters.tsv"), str(truth_path)]) == EXIT_OK
    assert capsys.readouterr().out == (out / "metrics.txt").read_text()


@pytest.mark.parametrize("truth", [
    [1, 2], {"g0": "ab"}, {"g0": [1]}, {"g0": None}, "labels", "{broken",
], ids=["list", "string-labels", "int-label", "null-labels", "string", "bad-json"])
def test_bad_truth_file_is_data_error(tmp_path, capsys, scene_file, truth):
    capsys.readouterr()
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(truth if truth == "{broken" else json.dumps(truth))
    clusters = tmp_path / "clusters.tsv"
    clusters.write_text("g0\t0\ng1\t1\n")
    out = tmp_path / "out"
    for argv in (["evaluate", str(clusters), str(truth_path)],
                 ["run", str(scene_file), "-o", str(out), "--truth", str(truth_path)]):
        assert main(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {truth_path}: ")
        assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("table, line", [
    ("g0\t3\t1.0 0.0\ng1\t2\t0.0 1.0\n", 1),
    ("g0\t2\tnan 1.0\ng1\t2\t0.0 1.0\n", 1),
    (HUGE_TABLE, 1),
    ("g0\t2\t1 0\ng1\t3\t0 0 1\n", 2),  # each row well-formed, the two unequal
], ids=["short-vector", "nan", "huge", "ragged"])
def test_bad_table_error_names_the_path_once(tmp_path, capsys, table, line):
    embs = tmp_path / "emb.tsv"
    embs.write_text(table)
    dend = tmp_path / "d.json"
    dend.write_text(json.dumps({"n_leaves": 2, "leaf_ids": ["g0", "g1"], "merges": []}))
    for argv in (["cluster", str(embs), "-o", str(tmp_path / "c.tsv"),
                  "--dendrogram", str(dend)],
                 ["export", str(dend), "-o", str(tmp_path / "d.dot"),
                  "--embeddings", str(embs), "--pca", str(tmp_path / "pca.tsv")]):
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {embs}: line {line}: ")
        assert err.count(str(embs)) == 1 and err.count("\n") == 1


@pytest.mark.parametrize("observation", [
    {"depth_mm": ["x", 1.0]}, {"mask_rle": ["x"]}, {"mask_rle": 5}, {"depth_mm": 5},
    {"depth_mm": "12"}, {"depth_mm": [None, 1.0]}, {"mask_rle": [0, 1e400, 6]},
    [0, [0, 0, 2, 1], 0.5], {"mask": {"runs": [0, 2, 6]}}, {"depth": [10.0, 11.0]},
], ids=["depth-string", "runs-string", "runs-number", "depth-number", "depth-not-list",
        "depth-null-entry", "runs-overflow", "list", "unknown-key-mask",
        "unknown-key-depth"])
def test_validate_malformed_observation_is_data_error(tmp_path, capsys, observation):
    obs = observation
    if isinstance(observation, dict):
        obs = {"frame": 0, "bbox": [0, 0, 2, 1], "score": 0.5, **observation}
    path = tmp_path / "scene.json"
    # json.dumps writes 1e400 as the token Infinity, which the reader refuses as it
    # parses; the JSON number 1e400 reads as inf and reaches the runs check
    path.write_text(json.dumps({"width": 4, "height": 2, "frame_count": 1, "entities": [
        {"id": "x", "kind": "object", "observations": [obs]}]}).replace("Infinity", "1e400"))
    assert main(["validate", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: entity x: ") and err.count("\n") == 1


@pytest.mark.parametrize("config", [
    {"mode": "sed", "c_spat": 2}, {"k_spat": "0.5"}, {"seed": "x"}, {"seed": -1},
    {"seed": True}, [1, 2],
], ids=["sed-weight-out-of-range", "sed-weight-string", "seed-string", "seed-negative",
        "seed-bool", "list"])
def test_bad_config_is_data_error_before_any_scene_is_read(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    # the scene does not exist: reading it first would be a usage error (exit 1)
    missing = str(tmp_path / "missing.json")
    for argv in (["run", missing, "-o", str(tmp_path / "out")], ["relations", missing]):
        assert main([*argv, "--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: invalid config {cfg}: ") and err.count("\n") == 1


@pytest.mark.parametrize("config", [
    {"mode": "sed", "sed_threshold": -1}, {"sed_threshold": "x"},
    {"sed_threshold": float("nan")}, {"sed_threshold": True}, {"smoothing": -1},
    {"smoothing": "2"}, {"gap_bridge": -5}, {"gap_bridge": True},
    {"profile": {"noise_ratio": float("nan")}},
    {"profile": {"thresh_convex": -1}}, {"profile": {"thresh_convex": "4"}},
    {"profile": {"thresh_convex": float("inf")}}, {"profile": {"h": 3, "n": 3}},
    {"profile": {"h": 5, "n": 0}}, {"profile": {"h": 5.0, "n": 3}},
    {"profile": {"n": True}},
], ids=json.dumps)
def test_bad_pipeline_field_is_data_error_before_any_scene_is_read(tmp_path, capsys,
                                                                   config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    missing = str(tmp_path / "missing.json")
    for argv in (["run", missing, "-o", str(tmp_path / "out")], ["relations", missing]):
        assert main([*argv, "--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: invalid config {cfg}: ") and err.count("\n") == 1


def _modules_after(code: str) -> list[str]:
    """Names of the loaded modules after ``code`` runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(affgraph.__file__))
    code += "\nimport sys; print('\\n'.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    return out.stdout.split()


def _scipy_modules(names: list[str]) -> list[str]:
    return [m for m in names if m == "scipy" or m.startswith("scipy.")]


def test_import_loads_no_scipy_module():
    # the product runs on numpy alone; scipy is an oracle of the tests
    assert _scipy_modules(_modules_after("import affgraph.cli")) == []


def test_import_of_one_stage_loads_no_other_stage():
    # the package root re-exports nothing, so it pulls in no stage module
    loaded = [m for m in _modules_after("import affgraph.scene")
              if m == "affgraph" or m.startswith("affgraph.")]
    assert loaded == ["affgraph", "affgraph.scene"]


def test_no_command_loads_a_scipy_module(tmp_path):
    (tmp_path / "emb.tsv").write_text("g0\t2\t1.0 0.0\ng1\t2\t0.9 0.1\ng2\t2\t0.0 1.0\n")
    (tmp_path / "truth.json").write_text(json.dumps({"g0": ["a"], "g1": ["a"], "g2": ["b"]}))
    (tmp_path / "cfg.json").write_text(json.dumps({"train": FAST_TRAIN}))
    calls = [["synth", "place-on", "-o", "s.json", "--seed", "1"],
             ["relations", "s.json"], ["episodes", "s.json"],
             ["graphlets", "s.json", "-o", "g.jsonl"],
             ["run", "s.json", "-o", "out", "--config", "cfg.json"],
             ["run", "s.json", "-o", "out-sed", "--mode", "sed"],
             ["cluster", "emb.tsv", "-o", "c.tsv", "--dendrogram", "d.json",
              "--cut-threshold", "auto"],
             ["evaluate", "c.tsv", "truth.json"],
             ["export", "d.json", "-o", "d.dot", "--clusters", "c.tsv",
              "--embeddings", "emb.tsv", "--pca", "pca.tsv"]]
    code = (f"import contextlib, io, os; os.chdir({str(tmp_path)!r})\n"
            "from affgraph.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert [main(argv) for argv in {calls!r}] == [0] * {len(calls)}")
    assert _scipy_modules(_modules_after(code)) == []
    for name in ("g.jsonl", "out/report.json", "out-sed/clusters.tsv", "d.dot", "pca.tsv"):
        assert (tmp_path / name).exists()


def test_no_module_of_the_product_imports_scipy():
    package = os.path.join(ROOT, "src", "affgraph")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert _scipy_modules(modules) == [], f"{name}:{node.lineno} imports scipy"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(deps):
        return [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])


@pytest.mark.parametrize("reader, text", [
    ("scene", '{"width": 5, "height": 4, "frame_count": 3, "fps": NaN, "entities": []}'),
    ("config", '{"sed_threshold": NaN}'),
    ("truth", '{"g0": ["a"], "g1": NaN}'),
    ("dendrogram", '{"n_leaves": 2, "leaf_ids": ["g0", "g1"], "merges": [[0, 1, NaN, 2]]}'),
    ("corpus", '{"id": "g0", "form": "V[entity|anchor;entity|partner]E[0-1]", "w": NaN}'),
], ids=lambda v: v if v.isidentifier() else None)
def test_nan_token_is_a_data_error_in_every_json_reader(tmp_path, capsys, reader, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    (tmp_path / "c.tsv").write_text("g0\t0\ng1\t1\n")
    argv = {
        "scene": ["validate", str(path)],
        "config": ["relations", str(tmp_path / "missing.json"), "--config", str(path)],
        "truth": ["evaluate", str(tmp_path / "c.tsv"), str(path)],
        "dendrogram": ["export", str(path), "-o", str(tmp_path / "d.dot")],
        "corpus": ["embed", str(path), "-o", str(tmp_path / "e.tsv")],
    }[reader]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "NaN is not a JSON number" in err


@pytest.mark.parametrize("reader", ["scene", "truth", "run-truth", "run-config", "corpus",
                                    "dendrogram"])
def test_deeply_nested_json_is_a_data_error_in_every_reader(tmp_path, capsys, scene_file,
                                                            reader):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    (tmp_path / "c.tsv").write_text("g0\t0\n")
    out = ["-o", str(tmp_path / "out")]
    argv = {
        "scene": ["validate", str(path)],
        "truth": ["evaluate", str(tmp_path / "c.tsv"), str(path)],
        "run-truth": ["run", str(scene_file), *out, "--truth", str(path)],
        "run-config": ["run", str(scene_file), *out, "--config", str(path)],
        "corpus": ["embed", str(path), *out],
        "dendrogram": ["export", str(path), *out],
    }[reader]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "nested too deeply" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dend", [
    {**TWO_LEAVES, "leaf_ids": ["g0", ["g1"]]},
    {**TWO_LEAVES, "leaf_ids": ["g0", 1]},
    {**TWO_LEAVES, "leaf_ids": "ab"},
    {**TWO_LEAVES, "n_leaves": 2.0},
    {**TWO_LEAVES, "n_leaves": True},
    {**TWO_LEAVES, "merges": [[0, 1.9, 0.5, 2]]},
    {**TWO_LEAVES, "merges": [["0", 1, 0.5, 2]]},
    {**TWO_LEAVES, "merges": [[0, True, 0.5, 2]]},
    {**TWO_LEAVES, "merges": [[0, 1, "0.5", 2]]},
    {**TWO_LEAVES, "merges": [[0, 1, False, 2]]},
    {**TWO_LEAVES, "merges": [[0, 1, 0.5, 2.0]]},
], ids=["list-leaf-id", "int-leaf-id", "string-leaf-ids", "float-n-leaves",
        "bool-n-leaves", "fractional-child", "string-child", "bool-child",
        "string-height", "bool-height", "float-size"])
def test_export_mistyped_dendrogram_is_data_error(tmp_path, capsys, dend):
    path, out = tmp_path / "dend.json", tmp_path / "d.dot"
    path.write_text(json.dumps(dend))
    assert main(["export", str(path), "-o", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: not a dendrogram: ") and err.count("\n") == 1
    assert not out.exists()


def test_dendrogram_with_an_integer_height_still_loads(tmp_path, capsys):
    path, out = tmp_path / "dend.json", tmp_path / "d.dot"
    path.write_text(json.dumps({**TWO_LEAVES, "merges": [[0, 1, 1, 2]]}))
    assert main(["export", str(path), "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert 'label="g1"' in out.read_text()


def test_unmatched_truth_blames_the_truth_file(tmp_path, scene_file, fast_config, capsys):
    clusters = tmp_path / "cl.tsv"
    clusters.write_text("g0\t0\ng1\t1\n")
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"zz": ["a"]}))
    for argv in (["evaluate", str(clusters), str(truth)],
                 ["run", str(scene_file), "-o", str(tmp_path / "out"), "--truth", str(truth),
                  "--config", str(fast_config)]):
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {truth}: ") and err.count("\n") == 1
        assert str(clusters) not in err


def test_run_twice_with_one_seed_writes_identical_artifacts(tmp_path, fast_config, capsys):
    scenes, truth = [], {}
    for i, kind in enumerate(["put-into", "place-on", "occlude-pass-behind"]):
        path, labels = tmp_path / f"scene_{i}.json", tmp_path / f"labels_{i}.json"
        assert main(["synth", kind, "-o", str(path), "--labels", str(labels),
                     "--seed", str(20 + i)]) == EXIT_OK
        scenes.append(str(path))
        truth.update({f"scene_{i}/{k.replace('|', '/')}": v
                      for k, v in json.loads(labels.read_text()).items()})
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(json.dumps(truth))
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["run", *scenes, "-o", str(out), "--truth", str(truth_path),
                     "--config", str(fast_config), "--seed", "5"]) == EXIT_OK
    capsys.readouterr()
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert {"episodes.json", "graphlets.jsonl", "embeddings.tsv", "dendrogram.json",
            "clusters.tsv", "metrics.txt", "report.json"} <= set(names)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("config", [
    {"train": {"epochs": 1.5}}, {"train": {"embedding_dim": True}},
    {"train": {"negatives": 2.5}}, {"train": {"learning_rate": float("nan")}},
    {"profile": {"alg1_literal": "yes"}}, {"train": {"seed": 3}}, {"profile": 5},
    {"cut_threshold": True}, {"cut_threshold": "0.5"}, {"cut_treshold": 0.5},
    {"cut_threshold": -1}, {"profile": {"h": 10**400, "n": 3}},
], ids=json.dumps)
def test_mistyped_or_unknown_config_field_is_data_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    missing = str(tmp_path / "missing.json")
    for argv in (["run", missing, "-o", str(tmp_path / "out")], ["relations", missing]):
        assert main([*argv, "--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: invalid config {cfg}: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--smoothing", "-2"],
                                  ["--gap-bridge", "-1"], ["--cut-threshold", "inf"],
                                  ["--cut-threshold", "-1"]])
def test_bad_flag_over_a_valid_config_is_usage_error(tmp_path, capsys, fast_config, flag):
    missing, out = str(tmp_path / "missing.json"), str(tmp_path / "out")
    reader = {"--seed": ["embed", missing, "-o", out],  # the stage that reads the flag
              "--smoothing": ["episodes", missing],
              "--gap-bridge": ["graphlets", missing, "-o", out],
              "--cut-threshold": ["cluster", missing, "-o", out, "--dendrogram", out]}
    for argv in (["run", missing, "-o", out], reader[flag[0]]):
        assert main([*argv, "--config", str(fast_config), *flag]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.json" not in err  # refused before any scene is read
        assert not (tmp_path / "out").exists()


def test_unknown_profile_name_lists_the_named_profiles(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "nope"}))
    assert main(["relations", str(tmp_path / "missing.json"), "--config", str(cfg)]) \
        == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: invalid config {cfg}: profile 'nope' is not a named profile "
        "(cad-like, load-like, wnp-like)\n")


@pytest.mark.parametrize("config, key, section", [
    ({"epochz": 3}, "epochz", "at the top level"),
    ({"profile": {"thresh_convex": 2.0, "epochz": 3}}, "epochz", "in profile"),
    ({"train": {"epochs": 3, "epochz": 3}}, "epochz", "in train"),
    ({"train": {"seed": 3}}, "seed", "in train"),  # the run's one seed is top-level
    ({"temporal_cap": 256}, "temporal_cap", "at the top level"),  # the cap is fixed
], ids=["top", "profile", "train", "train-seed", "temporal-cap"])
def test_unknown_config_key_is_named_with_its_section(tmp_path, capsys, config, key,
                                                      section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["relations", str(tmp_path / "missing.json"), "--config", str(cfg)]) \
        == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: invalid config {cfg}: unknown key '{key}' {section}\n")


@pytest.mark.parametrize("key, value", [("linkage", "average"), ("criterion", "bic")])
def test_clustering_rule_keys_are_unknown(tmp_path, capsys, scene_file, two_row_table,
                                          key, value):
    # average linkage and BIC are the only rules, so no config can choose them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    for argv in (["run", str(scene_file), "-o", str(out), "--config", str(cfg)],
                 ["cluster", str(two_row_table), "-o", str(out / "c.tsv"),
                  "--dendrogram", str(out / "d.json"), "--config", str(cfg)]):
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: invalid config {cfg}: unknown key '{key}' at the top level\n")
    assert not out.exists()


@pytest.mark.parametrize("dend", [
    {"n_leaves": 3, "leaf_ids": ["a", "b"], "merges": [[0, 1, 0.5, 2], [2, 3, 1.0, 3]]},
    {"n_leaves": 3, "leaf_ids": ["a", "b", "c"], "merges": [[0, 7, 0.5, 2]]},
    {"n_leaves": 3, "leaf_ids": ["a", "b", "c"], "merges": [[0, 3, 0.5, 2]]},
    {"n_leaves": 3, "leaf_ids": ["a", "b", "c"], "merges": [[0, 1, 0.5, 2], [1, 2, 1.0, 2]]},
    {**TWO_LEAVES, "merges": [[-1, 1, 0.5, 2]]},
    {**TWO_LEAVES, "merges": [[0, 1, float("nan"), 2]]},
    {**TWO_LEAVES, "merges": [[0, 1, float("inf"), 2]]},
    {**TWO_LEAVES, "merges": [[0, 1, 0.5, 3]]},
], ids=["leaf-ids-short", "child-out-of-range", "child-is-own-node", "child-merged-twice",
        "negative-child", "nan-height", "infinite-height", "wrong-size"])
def test_export_malformed_dendrogram_is_data_error(tmp_path, capsys, dend):
    path, out = tmp_path / "dend.json", tmp_path / "d.dot"
    path.write_text(json.dumps(dend))
    assert main(["export", str(path), "-o", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: not a dendrogram: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("header", [{"width": -5}, {"width": 0}, {"height": 0},
                                    {"frame_count": -1}], ids=json.dumps)
def test_scene_with_out_of_range_header_is_data_error(tmp_path, capsys, header):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"width": 5, "height": 4, "frame_count": 3, "entities": [],
                                **header}))
    for command in ("validate", "relations"):
        assert main([command, str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: width and height must be >= 1") \
            and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "relations", "episodes", "graphlets"])
def test_frame_too_large_for_a_depth_map_is_data_error(tmp_path, capsys, command):
    # a 10^9 x 10^9 frame: its depth map could not be allocated
    path = tmp_path / "scene.json"
    side = 10**9
    obs = {"frame": 0, "bbox": [0, 0, 1, 1], "score": 0.9, "mask_rle": [side * side],
           "depth_mm": []}
    path.write_text(json.dumps({"width": side, "height": side, "frame_count": 1, "entities": [
        {"id": eid, "kind": "object", "observations": [obs]} for eid in ("a", "b")]}))
    argv = [command, str(path)]
    if command == "graphlets":
        argv += ["-o", str(tmp_path / "g.jsonl")]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == (f"data error: {path}: a {side} x {side} frame holds more than "
                   f"{MAX_FRAME_PIXELS} pixels\n")
    assert not (tmp_path / "g.jsonl").exists()


def test_cluster_skips_a_blank_line_in_the_table(tmp_path, capsys):
    embs = tmp_path / "emb.tsv"
    embs.write_text("g0\t2\t1.0 0.0\n\ng1\t2\t0.0 1.0\n")
    assert main(["cluster", str(embs), "-o", str(tmp_path / "c.tsv"),
                 "--dendrogram", str(tmp_path / "d.json"), "--cut-threshold", "0.5"]) \
        == EXIT_OK
    assert "2 clusters at threshold 0.5" in capsys.readouterr().out


@pytest.mark.parametrize("row, problem", [
    ("g1\t2", "expected 3 tab-separated fields, got 2"),
    ("g1\t2\t0.0 x", "could not convert string to float: 'x'"),
], ids=["short-row", "bad-value"])
def test_cluster_bad_row_names_its_line(tmp_path, capsys, row, problem):
    embs = tmp_path / "emb.tsv"
    embs.write_text(f"g0\t2\t1.0 0.0\n\n{row}\n")
    assert main(["cluster", str(embs), "-o", str(tmp_path / "c.tsv"),
                 "--dendrogram", str(tmp_path / "d.json")]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {embs}: line 3: {problem}\n"
    assert not (tmp_path / "c.tsv").exists()


def test_cluster_repeated_id_is_a_data_error(tmp_path, capsys):
    # clustered, the first g sits with h; one line per id could not say so
    embs = tmp_path / "emb.tsv"
    embs.write_text("g\t2\t1.0 0.0\ng\t2\t0.0 1.0\nh\t2\t1.0 0.1\n")
    assert main(["cluster", str(embs), "-o", str(tmp_path / "c.tsv"),
                 "--dendrogram", str(tmp_path / "d.json"), "--cut-threshold", "0.5"]) \
        == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {embs}: line 2: repeated id 'g'\n"
    assert not (tmp_path / "c.tsv").exists()


@pytest.mark.parametrize("command", ["evaluate", "export"])
def test_clusters_with_a_repeated_id_are_a_data_error(tmp_path, capsys, command):
    clusters, dend = tmp_path / "clusters.tsv", tmp_path / "dend.json"
    clusters.write_text("g0\t0\ng1\t1\n\ng0\t1\n")
    dend.write_text(json.dumps(TWO_LEAVES))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"g0": ["a"], "g1": ["b"]}))
    argv = {"evaluate": ["evaluate", str(clusters), str(truth)],
            "export": ["export", str(dend), "-o", str(tmp_path / "d.dot"),
                       "--clusters", str(clusters)]}[command]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == f"data error: {clusters}: line 4: repeated id 'g0'\n"
    assert captured.out == "" and not (tmp_path / "d.dot").exists()


@pytest.mark.parametrize("train", [
    {"embedding_dim": 10**12}, {"embedding_dim": 10**20}, {"negatives": 10**12},
    {"wl_depth": 100000, "epochs": 1},
], ids=json.dumps)
def test_oversized_training_setting_is_data_error(tmp_path, capsys, train):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": train}))
    # refused before any scene is read, so nothing is trained or allocated
    missing = str(tmp_path / "missing.json")
    assert main(["run", missing, "-o", str(tmp_path / "out"), "--config", str(cfg)]) \
        == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: invalid config {cfg}: ") and err.count("\n") == 1
    assert " above " in err


@pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank-only"])
def test_table_without_rows_is_data_error(tmp_path, capsys, text):
    good, empty, dend = tmp_path / "good.tsv", tmp_path / "empty.tsv", tmp_path / "d.json"
    good.write_text("g0\t2\t1.0 0.0\ng1\t2\t0.0 1.0\n")
    empty.write_text(text)
    assert main(["cluster", str(good), "-o", str(tmp_path / "good.c.tsv"),
                 "--dendrogram", str(dend)]) == EXIT_OK
    capsys.readouterr()
    for argv in (["cluster", str(empty), "-o", str(tmp_path / "c.tsv"),
                  "--dendrogram", str(tmp_path / "e.json")],
                 ["export", str(dend), "-o", str(tmp_path / "d.dot"),
                  "--embeddings", str(empty), "--pca", str(tmp_path / "pca.tsv")]):
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {empty}: no embedding rows\n"


def test_report_is_independent_of_the_output_path(tmp_path, scene_file, fast_config,
                                                  capsys):
    outs = [tmp_path / "o", tmp_path / "a" / "much_longer_output_directory"]
    stdouts = []
    for out in outs:
        assert main(["run", str(scene_file), "-o", str(out),
                     "--config", str(fast_config)]) == EXIT_OK
        stdouts.append(capsys.readouterr().out)
    assert stdouts[0] == stdouts[1]
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    artifacts = json.loads(stdouts[0])["artifacts"]
    assert artifacts["clusters"] == "clusters.tsv"
    assert all((outs[1] / name).is_file() for name in artifacts.values())


@pytest.mark.parametrize("command", ["run", "graphlets"])
def test_scenes_are_read_one_at_a_time(tmp_path, fast_config, monkeypatch, capsys,
                                       command):
    paths = []
    for seed, kind in enumerate(["place-on", "put-into", "place-on"]):
        paths.append(str(tmp_path / f"s{seed}.json"))
        assert main(["synth", kind, "-o", paths[-1], "--seed", str(seed)]) == EXIT_OK
    reads = []  # a weak reference to every scene read so far
    held = {}  # when each hook ran, how many scenes read before it were alive

    def alive(when: str) -> None:
        gc.collect()
        held[when] = sum(ref() is not None for ref in reads)

    def load_scene(path):
        alive(f"read {len(reads)}")
        scene = real_load(path)
        reads.append(weakref.ref(scene))
        return scene

    def hook(name):
        real = getattr(pipeline, name)

        def entered(*args, **kwargs):
            alive(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, entered)

    real_load = cli.load_scene
    monkeypatch.setattr(cli, "load_scene", load_scene)
    hook("save_graphlet_corpus")
    hook("embed_corpus")
    out = str(tmp_path / ("out" if command == "run" else "corpus.jsonl"))
    argv = [command, *paths, "-o", out, "--config", str(fast_config)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert len(reads) == 3
    want = {f"read {k}": 0 for k in range(3)} | {"save_graphlet_corpus": 0}
    if command == "run":
        want["embed_corpus"] = 0
    assert held == want


@pytest.mark.parametrize("argv", [["graphlets"], ["run"], ["run", "--mode", "sed"]],
                         ids=" ".join)
def test_no_graphlet_object_outlives_its_scene(tmp_path, fast_config, monkeypatch, capsys,
                                               argv):
    # past the graphlet stage a graphlet is its corpus record
    paths = []
    for seed, kind in enumerate(["place-on", "put-into", "push-adjacent"] * 2):
        paths.append(str(tmp_path / f"s{seed}.json"))
        assert main(["synth", kind, "-o", paths[-1], "--seed", str(seed)]) == EXIT_OK
    held = {}  # when each hook ran, how many graphlet objects were alive

    def hook(name):
        real = getattr(pipeline, name)

        def entered(*args, **kwargs):
            gc.collect()
            held[name] = sum(isinstance(o, AGraphlet) for o in gc.get_objects())
            return real(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, entered)

    hook("save_graphlet_corpus")
    hook("cluster_table")
    out = str(tmp_path / ("corpus.jsonl" if argv == ["graphlets"] else "out"))
    assert main([*argv, *paths, "-o", out, "--config", str(fast_config)]) == EXIT_OK
    capsys.readouterr()
    want = {"save_graphlet_corpus": 0}
    if argv != ["graphlets"]:
        want["cluster_table"] = 0
    assert held == want


@pytest.mark.parametrize("command", ["run", "graphlets"])
@pytest.mark.parametrize("bad, code, prefix", [
    ("malformed", EXIT_DATA, "data error: "), ("missing", EXIT_USAGE, "error: ")])
def test_bad_last_scene_fails_with_one_line_and_no_output(
        tmp_path, scene_file, fast_config, capsys, command, bad, code, prefix):
    last = tmp_path / "zz_last.json"  # last in argument order and in name order
    if bad == "malformed":
        last.write_text("{broken")
    out = tmp_path / ("out" if command == "run" else "corpus.jsonl")
    assert main([command, str(scene_file), str(last), "-o", str(out),
                 "--config", str(fast_config)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert str(last) in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["validate", "{dir}"], ["synth", "place-on", "-o", "{dir}"],
    ["graphlets", "{scene}", "-o", "{dir}"], ["relations", "{scene}", "--config", "{dir}"],
], ids=["validate", "synth-output", "graphlets-output", "config"])
def test_directory_path_is_a_usage_error(tmp_path, scene_file, capsys, argv):
    capsys.readouterr()
    assert main([a.format(dir=tmp_path, scene=scene_file) for a in argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_entity_id_with_a_slash_is_a_data_error(tmp_path, capsys):
    # "a/b"+"c" and "a"+"b/c" would both be the graphlet id collide/a/b/c
    scene = tmp_path / "collide.json"
    scene.write_text(json.dumps({"width": 4, "height": 2, "frame_count": 1, "entities": [
        {"id": eid, "kind": "object", "observations": []} for eid in ["a/b", "c", "a", "b/c"]]}))
    out = tmp_path / "corpus.jsonl"
    assert main(["graphlets", str(scene), "-o", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1 and "'a/b'" in err
    assert not out.exists()


@pytest.mark.parametrize("ent_id", ["obj\ta", "obj\na", "obj\ra", "\t"], ids=repr)
def test_entity_id_with_a_tab_or_line_break_is_a_data_error(tmp_path, scene_file, capsys,
                                                            fast_config, ent_id):
    # such an id would split the rows of embeddings.tsv and clusters.tsv
    data = json.loads(scene_file.read_text())
    data["entities"][0]["id"] = ent_id
    scene_file.write_text(json.dumps(data))
    out = tmp_path / "out"
    for argv in (["validate", str(scene_file)],
                 ["run", str(scene_file), "-o", str(out), "--config", str(fast_config)]):
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert repr(ent_id) in err
    assert not (out / "embeddings.tsv").exists() and not (out / "clusters.tsv").exists()


@pytest.mark.parametrize("flag", ["--pca", "--embeddings"])
def test_export_takes_pca_and_embeddings_together(tmp_path, capsys, flag):
    dend = tmp_path / "dend.json"
    dend.write_text(json.dumps(TWO_LEAVES))
    out = tmp_path / "d.dot"
    assert main(["export", str(dend), "-o", str(out), flag,
                 str(tmp_path / "x.tsv")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --pca and --embeddings must be given together\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [{"width": 0}, {"score": 2.0}], ids=["width-0", "score-2"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_data_error_names_the_bad_scene_file(tmp_path, scene_file, fast_config, capsys,
                                             command, bad):
    scene = json.loads(scene_file.read_text())
    if "score" in bad:
        scene["entities"][0]["observations"][0]["score"] = bad["score"]
    else:
        scene.update(bad)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(scene))
    argv = [command, str(scene_file), str(bad_path)]
    if command == "run":
        argv += ["-o", str(tmp_path / "out"), "--config", str(fast_config)]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.count("bad.json") == 1
    assert err.startswith(f"data error: {bad_path}: ")


def test_invalid_json_names_its_file_once(tmp_path, capsys):
    bad_path = tmp_path / "bad.json"
    bad_path.write_text("{broken")
    assert main(["validate", str(bad_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad_path}: invalid JSON") and err.count("bad.json") == 1
