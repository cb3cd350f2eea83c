"""``affgraph run``'s artifacts, and ``affgraph relations``' output for each
scene, pinned by sha256 on a 4-scene synthetic corpus.

A change that keeps behaviour keeps every digest.  The pinned files carry no
float written from a BLAS call (dendrogram.json is pinned only in SED mode,
where its heights are set-edit distances), so the digests hold across numpy
builds.  The negative-sampling trainer behind embeddings.tsv uses only
elementwise ufuncs, ``ufunc.at``, ``einsum`` without ``optimize``, and
``take``, which copies rows and does no arithmetic.  The trained
clusters.tsv is cut at the default 0.02, far below the lowest cosine merge
(about 0.76), so rounding cannot regroup it."""

import hashlib
import os
import subprocess
import sys

import pytest

import affgraph
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


# ``affgraph relations`` stdout per scene: under DiSR, under the RCC5(+On)
# baseline, and under DiSR with the literal reading of Algorithm 1
RELATION_SETUPS = {
    "disr": [],
    "rcc5_on": ["--calculus", "rcc5_on"],
    "alg1_literal": ["--config", '{"profile": {"alg1_literal": true}}'],
}

RELATION_DIGESTS = {
    "disr": {
        "put-into": "127b840725f342ab8ea1c34b6b53c6f083ce916d757cfbad7a2bd279217fb64d",
        "place-on": "3235c58c23891d7381f74281b70ca0bd781812d45e1bbf811f3dd3b385177706",
        "push-adjacent": "9dce7ce562721e1c27aa79c34f1c5d5e1bc0187591649e4b3157a3fb0c138117",
        "occlude-pass-behind":
            "6cd6197f3541e6fabbe0bdc14661f2f9a123f9f33e9552d369defce4a62dd29d",
    },
    "rcc5_on": {
        "put-into": "061cd6808cbfaeb8e9d757ae2011401c28a4fbbbd1244e571da37b366bf99a53",
        "place-on": "148ea65db13a642b04cc8cf06d913606b3dc48d6ebf6a261e59c40b032e7d24a",
        "push-adjacent": "2d4d13a5334cf28b725bc18b29dbaa15f2d3bf38520104757cffa70d1c221169",
        "occlude-pass-behind":
            "aff24fffda34410f582825ef261c07c0a6281401bdbef19790ac98f40ae9637b",
    },
    "alg1_literal": {
        "put-into": "77ca697ce5443d9406f19bde402257653ca728dfcc3efb58bace498247ccc8aa",
        "place-on": "3235c58c23891d7381f74281b70ca0bd781812d45e1bbf811f3dd3b385177706",
        "push-adjacent": "9dce7ce562721e1c27aa79c34f1c5d5e1bc0187591649e4b3157a3fb0c138117",
        "occlude-pass-behind":
            "6cd6197f3541e6fabbe0bdc14661f2f9a123f9f33e9552d369defce4a62dd29d",
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


@pytest.mark.parametrize("setup", sorted(RELATION_SETUPS))
def test_relations_output_matches_recorded_digests(tmp_path, capsys, scenes, setup):
    flags = list(RELATION_SETUPS[setup])
    if "--config" in flags:
        config = tmp_path / "config.json"
        config.write_text(flags[-1])
        flags[-1] = str(config)
    found = {}
    for path, (kind, _, _) in zip(scenes, SCENES):
        assert main(["relations", path, *flags]) == EXIT_OK
        found[kind] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert found == RELATION_DIGESTS[setup]


def test_run_artifacts_do_not_depend_on_the_hash_seed(tmp_path, scenes):
    # set and dict iteration over strings follows PYTHONHASHSEED; no artifact may
    config = tmp_path / "config.json"
    config.write_text('{"train": {"epochs": 2}}')
    src = os.path.dirname(os.path.dirname(affgraph.__file__))
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"out-{seed}"
        run = subprocess.run(
            [sys.executable, "-m", "affgraph.cli", "run", *scenes, "-o", str(out),
             "--config", str(config)],
            capture_output=True, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert run.returncode == EXIT_OK, run.stderr
        outputs.append((run.stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
    (stdout_0, files_0), (stdout_1, files_1) = outputs
    assert stdout_0 == stdout_1
    assert sorted(files_0) == sorted(files_1) and len(files_0) >= 7
    for name in files_0:
        assert files_0[name] == files_1[name], name
