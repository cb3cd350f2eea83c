"""The benchmark's workloads: inputs made from a seed, the op, and its checks.

An op is the user's own CLI path, ``affgraph.cli.main`` called in-process on
files on disk, writing into a fresh output directory.  ``bench/run.py`` times
the ops and reports; why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os

import numpy as np

from affgraph import embedding, scene, synth

# Scene kinds of the acceptance corpus, in the fixture's order, with the seed
# base and early-release flag the fixture gives each kind.  Scene i of a kind
# gets seed base + i + 1000 * workload seed, so workload seed 0 rebuilds the
# acceptance fixture's corpus exactly.
ACCEPTANCE_KINDS = (
    ("put-into", 100, True),
    ("place-on", 300, False),
    ("push-adjacent", 400, False),
    ("occlude-pass-behind", 500, False),
)
ACCEPTANCE_COUNTS = (20, 20, 10, 10)
SEED_STRIDE = 1000

# Training settings of the embedding workload.  The default TrainConfig
# (200 epochs at learning rate 0.5) takes about 90 s per op on a 2-core Xeon,
# too long for a benchmark run that times two or more ops.  Fewer epochs at a rate
# raised to keep the summed step size keep WL depth 14, the vocabulary and
# the per-epoch work unchanged, so training stays most of the op (about
# 85%), and still clear the acceptance gates.
EMBED_EPOCHS = 25
EMBED_TRAIN = {
    "epochs": EMBED_EPOCHS,
    "learning_rate": embedding.TrainConfig.learning_rate
    * embedding.TrainConfig.epochs / EMBED_EPOCHS,
}
TRAIN_SEED = "7"

V_GATE = 0.90
H_GATE = 0.95


class SceneWorkload:
    """``affgraph run`` over a synthetic scene corpus, with a trained embedding."""

    # Building the 60-scene corpus takes 25-35 s on a 2-core Xeon, most of a
    # run, so it is built once per run.
    setup_reps = 1

    def __init__(self, counts=ACCEPTANCE_COUNTS, train=None, gated=True):
        self.counts = counts
        self.train = train
        self.gated = gated

    def setup(self, seed: int, work: str) -> dict:
        scene_dir = os.path.join(work, "scenes")
        os.makedirs(scene_dir)
        specs = [
            (kind, base + i + SEED_STRIDE * seed, early)
            for (kind, base, early), count in zip(ACCEPTANCE_KINDS, self.counts)
            for i in range(count)
        ]
        paths = []
        truth = {}
        for n, (kind, scene_seed, early) in enumerate(specs):
            gen = synth.generate_synthetic(
                synth.SyntheticScript(kind=kind, early_release=early), seed=scene_seed)
            name = f"scene_{n:03d}"
            path = os.path.join(scene_dir, f"{name}.json")
            scene.save_scene(gen.scene, path)
            paths.append(path)
            truth.update({f"{name}/{a}/{b}": labels
                          for (a, b), labels in gen.labels.items()})
        truth_path = os.path.join(work, "truth.json")
        with open(truth_path, "w", encoding="utf-8") as fh:
            json.dump(truth, fh, sort_keys=True)
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"train": self.train or {}}, fh)
        argv = ["run", *paths, "--truth", truth_path, "--seed", TRAIN_SEED,
                "--config", config_path, "--cut-threshold", "auto"]
        return {"argv": argv, "labelled": len(truth)}

    def calls(self, state: dict, out: str) -> list[list[str]]:
        return [state["argv"] + ["-o", out]]

    def check(self, state: dict, stdouts: list[str], out: str) -> tuple[dict, list[str]]:
        """Quality figures and check failures, from each CLI call's stdout."""
        report = json.loads(stdouts[0])
        quality = {k: report[k] for k in ("v_measure", "homogeneity", "completeness")}
        errors = []
        # one graphlet per labelled object pair: 100 on the acceptance corpus
        if report["n_graphlets"] != state["labelled"]:
            errors.append(f"{report['n_graphlets']} graphlets, want {state['labelled']}")
        if self.gated and not (report["v_measure"] >= V_GATE
                               and report["homogeneity"] >= H_GATE):
            errors.append(f"V={report['v_measure']:.4f} h={report['homogeneity']:.4f} "
                          f"below the gates V>={V_GATE} h>={H_GATE}")
        return quality, errors


class MixtureWorkload:
    """``affgraph cluster`` then ``affgraph evaluate`` on a Gaussian-mixture table."""

    setup_reps = 5  # the table takes well under a second: setup_s is a median of 5

    def __init__(self, n: int = 300, components: int = 5,
                 dim: int = embedding.TrainConfig.embedding_dim, spread: float = 0.5):
        self.n = n
        self.components = components
        self.dim = dim
        self.spread = spread

    def setup(self, seed: int, work: str) -> dict:
        """Write the mixture's table and labels."""
        os.makedirs(work)
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(self.components, self.dim))
        labels = np.arange(self.n) % self.components
        rng.shuffle(labels)
        vectors = centers[labels] + self.spread * rng.normal(size=(self.n, self.dim))
        ids = [f"g{i:04d}" for i in range(self.n)]
        emb_path = os.path.join(work, "embeddings.tsv")
        embedding.save_embeddings(embedding.EmbeddingTable(ids, vectors), emb_path)
        truth_path = os.path.join(work, "truth.json")
        with open(truth_path, "w", encoding="utf-8") as fh:
            json.dump({gid: [f"component-{c}"] for gid, c in zip(ids, labels)}, fh)
        return {"embeddings": emb_path, "truth": truth_path}

    def calls(self, state: dict, out: str) -> list[list[str]]:
        clusters = os.path.join(out, "clusters.tsv")
        return [
            ["cluster", state["embeddings"], "-o", clusters,
             "--dendrogram", os.path.join(out, "dendrogram.json"),
             "--cut-threshold", "auto"],
            ["evaluate", clusters, state["truth"]],
        ]

    def check(self, state: dict, stdouts: list[str], out: str) -> tuple[dict, list[str]]:
        # evaluate prints "homogeneity  0.1234" style lines
        quality = {}
        for line in stdouts[1].splitlines():
            key, value = line.split()
            quality[key] = float(value)
        with open(os.path.join(out, "clusters.tsv"), encoding="utf-8") as fh:
            found = len({line.split("\t")[1] for line in fh if line.strip()})
        errors = []
        if found != self.components:
            errors.append(f"BIC chose {found} clusters, the mixture has {self.components}")
        return quality, errors


WORKLOADS = {
    "embed-60": SceneWorkload(train=EMBED_TRAIN),
    "cluster-300": MixtureWorkload(),
}
