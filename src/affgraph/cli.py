"""Command-line interface for the interaction-graph pipeline.

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3 numeric failure.
The AFFGRAPH_CONFIG environment variable names a default config file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Mapping
from contextlib import contextmanager

import numpy as np

from . import clustering as clust
from . import embedding as emb
from . import pipeline
from .evaluation import metrics_report, pca_project, v_measure
from .pipeline import PROFILES, PipelineConfig, PipelineError, load_config
from .scene import ROW_BREAKS, SceneError, load_scene, parse_json, save_scene
from .synth import SCRIPT_KINDS, ScriptError, SyntheticScript, generate_synthetic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

CONFIG_ENV = "AFFGRAPH_CONFIG"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _data_errors(path: str):
    """Report a ValueError raised in the block as a data error in ``path``."""
    try:
        yield
    except ValueError as exc:
        raise CliError(EXIT_DATA, f"{path}: {exc}") from exc


def _config(args) -> PipelineConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    cfg = None
    if path:
        try:
            cfg = load_config(path)
        except FileNotFoundError as exc:
            raise CliError(EXIT_USAGE, f"config file not found: {path}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_DATA, f"invalid config {path}: {exc}") from exc
    flags = {key: value for key, value in vars(args).items()  # they override the file
             if key in PipelineConfig.__dataclass_fields__ and value is not None}
    raw = flags.get("cut_threshold")
    if raw not in (None, "auto"):
        try:
            flags["cut_threshold"] = float(raw)
        except ValueError as exc:
            raise CliError(
                EXIT_USAGE, f"--cut-threshold must be a number or 'auto', got {raw!r}"
            ) from exc
    try:
        return pipeline.config_from_dict(flags, cfg)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc


class _SceneFiles(Mapping):
    """Scene files by name; each lookup reads and validates its file, so a
    caller that takes one scene at a time holds one parsed scene at a time."""

    def __init__(self, paths: dict[str, str]):
        self._paths = paths

    def __getitem__(self, name: str):
        return load_scene(self._paths[name])

    def __iter__(self):
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


def _load_scenes(paths: list[str]) -> _SceneFiles:
    """Scenes keyed by file basename, in argument order, read on lookup; a
    basename clash, or one that holds a tab or line break (it starts every
    graphlet id, a table row's first field), is refused before any file is read."""
    seen: dict[str, str] = {}
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if not ROW_BREAKS.isdisjoint(name):
            raise CliError(EXIT_USAGE, f"scene {path!r}: its name holds a tab or "
                                       "line break; rename it")
        if name in seen:
            raise CliError(EXIT_USAGE, f"scenes {seen[name]} and {path} share the "
                                       f"name {name!r}; rename one")
        seen[name] = path
    return _SceneFiles(seen)


def cmd_validate(args) -> int:
    for path in args.scenes:
        load_scene(path)
        print(f"ok {path}")
    return EXIT_OK


def cmd_relations(args) -> int:
    cfg = _config(args)
    scene = load_scene(args.scene)
    relations = pipeline.compute_frame_relations(scene, cfg)
    out = {f"{a}|{b}": tokens for (a, b), tokens in sorted(relations.items())}
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_episodes(args) -> int:
    cfg = _config(args)
    episodes = pipeline.compute_episodes(load_scene(args.scene), cfg)
    print(json.dumps(pipeline.episode_records(episodes), sort_keys=True))
    return EXIT_OK


def cmd_graphlets(args) -> int:
    cfg = _config(args)
    scenes = _load_scenes(args.scenes)
    records = []
    for name in sorted(scenes):  # as run does; .items() would hold a scene while reading the next
        records += pipeline.graphlet_records(pipeline.scene_graphlets(name, scenes[name], cfg)[1])
    pipeline.save_graphlet_corpus(records, args.output)
    print(f"{len(records)} graphlets -> {args.output}")
    return EXIT_OK


def cmd_embed(args) -> int:
    cfg = _config(args)
    with _data_errors(args.corpus):
        records = pipeline.load_graphlet_corpus(args.corpus)
        if not records:
            raise CliError(EXIT_DATA, f"empty graphlet corpus: {args.corpus}")
        _, table = pipeline.embed_corpus(records, cfg.train, cfg.seed)
    emb.save_embeddings(table, args.output)
    print(f"{len(records)} embeddings -> {args.output}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    cfg = _config(args)
    with _data_errors(args.embeddings):
        table = emb.load_embeddings(args.embeddings)
        dist = clust.pairwise_cosine_costs(table.vectors)
        dend, threshold, assignment = pipeline.cluster_table(
            dist, table.graph_ids, table.vectors, cfg.cut_threshold)
    clust.export_dendrogram_json(dend, args.dendrogram)
    pipeline.save_clusters(assignment, table.graph_ids, args.output)
    n_clusters = len(set(assignment.values()))
    print(f"{n_clusters} clusters at threshold {threshold:g} -> {args.output}")
    return EXIT_OK


def _load_truth(path: str) -> dict[str, list[str]]:
    """Groundtruth labels: a JSON object mapping graph ids to lists of strings."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            truth = parse_json(fh.read())
        except ValueError as exc:
            raise CliError(EXIT_DATA, f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(truth, dict):
        raise CliError(EXIT_DATA, f"{path}: not an object mapping ids to label lists")
    for gid, labels in truth.items():
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise CliError(EXIT_DATA, f"{path}: labels of {gid!r} are not a list of strings")
    return truth


def cmd_evaluate(args) -> int:
    truth = _load_truth(args.truth)
    with _data_errors(args.clusters):
        predicted = pipeline.load_clusters(args.clusters)
    with _data_errors(args.truth):  # no truth id names a clustered graph
        h, c, v = v_measure(truth, predicted)
    sys.stdout.write(metrics_report(h, c, v))
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _config(args)
    scenes = _load_scenes(args.scenes)
    truth = _load_truth(args.truth) if args.truth else None
    try:
        report = pipeline.run_pipeline(scenes, cfg, args.output, groundtruth=truth)
    except PipelineError as exc:
        if exc.stage != "evaluate":
            raise
        # no truth id names a graphlet of these scenes
        raise CliError(EXIT_DATA, f"{args.truth}: {exc}") from exc
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK


def cmd_synth(args) -> int:
    script = SyntheticScript(
        kind=args.kind, frame_count=args.frames, switch_frame=args.switch,
        jitter=args.jitter,
    )
    gen = generate_synthetic(script, args.seed)
    save_scene(gen.scene, args.output)
    if args.labels:
        payload = {f"{a}|{b}": labels for (a, b), labels in sorted(gen.labels.items())}
        with open(args.labels, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True))
    print(f"{args.kind} scene -> {args.output}")
    return EXIT_OK


def cmd_export(args) -> int:
    if bool(args.pca) != bool(args.embeddings):
        raise CliError(EXIT_USAGE, "--pca and --embeddings must be given together")
    try:
        dend = clust.load_dendrogram_json(args.dendrogram)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(EXIT_DATA, f"{args.dendrogram}: not a dendrogram: {exc!r}") from exc
    assignment = None
    if args.clusters:
        with _data_errors(args.clusters):
            assignment = pipeline.load_clusters(args.clusters)
        missing = [gid for gid in dend.leaf_ids if gid not in assignment]
        if missing:
            raise CliError(EXIT_DATA, f"{args.clusters}: no cluster for leaf "
                                      f"{missing[0]!r} of {args.dendrogram}")
    if args.pca:  # read every input before writing anything
        with _data_errors(args.embeddings):
            table = emb.load_embeddings(args.embeddings)
            proj = pca_project(table.vectors, 2)
    pipeline.export_dendrogram_dot(dend, assignment, args.output)
    if args.pca:
        with open(args.pca, "w", encoding="utf-8") as fh:
            for gid, (x, y) in zip(table.graph_ids, proj):
                fh.write(f"{gid}\t{float(x)!r}\t{float(y)!r}\n")
    print(f"dendrogram -> {args.output}")
    return EXIT_OK


# Config flags' argparse settings in `run --help` order; a stage takes those it reads
_CONFIG_FLAGS = {
    "--profile": {"choices": sorted(PROFILES)},
    "--calculus": {"choices": pipeline._CHOICES["calculus"]},
    "--mode": {"choices": pipeline._CHOICES["mode"]},
    "--smoothing": {"type": int},
    "--gap-bridge": {"type": int},
    "--seed": {"type": int},
    "--cut-threshold": {"help": "cut height, or 'auto' for BIC selection"},
}
_EPISODE_FLAGS = ("--profile", "--calculus", "--smoothing", "--gap-bridge")


def _add_config_flags(p: argparse.ArgumentParser, *names: str) -> None:
    p.add_argument("--config", help="pipeline config file (JSON)")
    for name in names:
        p.add_argument(name, **_CONFIG_FLAGS[name])


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one usage-error line, not a usage dump."""

    def error(self, message: str):
        raise CliError(EXIT_USAGE, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="affgraph",
        description="Interaction-graph affordance clustering pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate scene files")
    p.add_argument("scenes", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("relations", help="per-frame relation tokens for one scene")
    p.add_argument("scene")
    _add_config_flags(p, "--profile", "--calculus")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("episodes", help="episode segmentation for one scene")
    p.add_argument("scene")
    _add_config_flags(p, *_EPISODE_FLAGS)
    p.set_defaults(func=cmd_episodes)

    p = sub.add_parser("graphlets", help="build a graphlet corpus from scenes")
    p.add_argument("scenes", nargs="+")
    p.add_argument("-o", "--output", required=True)
    _add_config_flags(p, *_EPISODE_FLAGS)
    p.set_defaults(func=cmd_graphlets)

    p = sub.add_parser("embed", help="train embeddings for a graphlet corpus")
    p.add_argument("corpus")
    p.add_argument("-o", "--output", required=True)
    _add_config_flags(p, "--seed")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("cluster", help="cluster an embedding table")
    p.add_argument("embeddings")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dendrogram", required=True)
    _add_config_flags(p, "--cut-threshold")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="score a flat clustering against labels")
    p.add_argument("clusters")
    p.add_argument("truth")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline over scene files")
    p.add_argument("scenes", nargs="+")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--truth", help="groundtruth labels JSON")
    _add_config_flags(p, *_CONFIG_FLAGS)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("kind", choices=SCRIPT_KINDS)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--labels", help="write affordance labels JSON here")
    p.add_argument("--frames", type=int, default=36)
    p.add_argument("--switch", type=int, default=12)
    p.add_argument("--jitter", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("export", help="export a dendrogram as Graphviz DOT")
    p.add_argument("dendrogram")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--clusters", help="flat clustering TSV for leaf coloring")
    p.add_argument("--embeddings", help="embedding table for PCA export")
    p.add_argument("--pca", help="write 2-D PCA coordinates here")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help printed the usage
        return EXIT_OK
    except CliError as exc:
        label = "data error" if exc.code == EXIT_DATA else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.code
    except (SceneError, ScriptError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (emb.DivergenceError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
