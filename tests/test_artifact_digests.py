"""``affgraph run``'s artifacts, pinned by sha256 on a 4-scene synthetic corpus.

A change that keeps behaviour keeps every digest.  The pinned files carry no
float written from a BLAS call (dendrogram.json is pinned only in SED mode,
where its heights are set-edit distances), so the digests hold across numpy
builds.  The negative-sampling trainer behind embeddings.tsv uses only
elementwise ufuncs, ``ufunc.at`` and ``einsum`` without ``optimize``.  The
trained clusters.tsv is cut at the default 0.02, far below the lowest cosine
merge (about 0.76), so rounding cannot regroup it."""

import hashlib

import pytest

from affgraph.cli import EXIT_OK, main
from affgraph.scene import save_scene
from affgraph.synth import SyntheticScript, generate_synthetic

# one scene per kind of the acceptance corpus, with its fixture's seed base
SCENES = (("put-into", 100, True), ("place-on", 300, False),
          ("push-adjacent", 400, False), ("occlude-pass-behind", 500, False))

SETUPS = {
    "embedding": [],
    "sed": ["--mode", "sed"],
    "rcc5_on": ["--calculus", "rcc5_on"],
}

DIGESTS = {
    "embedding": {
        "episodes.json":
            "39681293c414b876f1e3fcb987d225594ec45ddfd84079d92116ee2046eaa7b4",
        "graphlets.jsonl":
            "061e174e5b90ba9334eb20a1b8c80745dbb59bd7eaac31a816207b8e8d3abb83",
        "vocabulary.tsv":
            "71198b1d8fb6887a36c72cff48de188239c885ff8a0915268519091de5eb871d",
        "embeddings.tsv":
            "a328229eca8e1797c793b08d226996bf6707a6db6be1867d54d1a2931de5983d",
        "clusters.tsv":
            "1d5346cb56438bc5b61db349255bbe8d46a68ffaf1938a9b4ed504a6b1d6020a",
    },
    "sed": {
        "episodes.json":
            "39681293c414b876f1e3fcb987d225594ec45ddfd84079d92116ee2046eaa7b4",
        "graphlets.jsonl":
            "061e174e5b90ba9334eb20a1b8c80745dbb59bd7eaac31a816207b8e8d3abb83",
        "clusters.tsv":
            "1d5346cb56438bc5b61db349255bbe8d46a68ffaf1938a9b4ed504a6b1d6020a",
        "dendrogram.json":
            "69fc23cb65447fb838e835997746ae0f2ddbf87cc8e4440baa0ddd4c9b28ad30",
    },
    "rcc5_on": {
        "episodes.json":
            "5b7e08fac2a0e43e8974659420af49f7c7e6acbb6531d63bd93cef62450bcde5",
        "graphlets.jsonl":
            "fc83aa7f310c06baea2330f0a3d57eeb61d9fee48c4ba083bffa5c70e0443b1d",
        "vocabulary.tsv":
            "2104a719f3d9124784db629fb409b75872b3ff140bffe1e0c17927950002ea7f",
        "clusters.tsv":
            "00af539ff4589fd8c1b3f69dfe26bebff6c95a0a230b8c30b0d6cd0986698bbf",
    },
}


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenes")
    paths = []
    for kind, seed, early in SCENES:
        gen = generate_synthetic(SyntheticScript(kind=kind, early_release=early), seed=seed)
        paths.append(str(root / f"{kind}.json"))
        save_scene(gen.scene, paths[-1])
    return paths


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_run_artifacts_match_recorded_digests(tmp_path, capsys, scenes, setup):
    config = tmp_path / "config.json"
    config.write_text('{"train": {"epochs": 2}}')
    out = tmp_path / "out"
    assert main(["run", *scenes, "-o", str(out), "--config", str(config),
                 *SETUPS[setup]]) == EXIT_OK
    capsys.readouterr()
    found = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
             for name in DIGESTS[setup]}
    assert found == DIGESTS[setup]
