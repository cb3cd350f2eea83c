"""End-to-end orchestration: scenes -> relations -> episodes -> graphlets ->
embeddings -> dendrogram -> clusters -> metrics."""

from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import clustering as clust
from . import embedding as emb
from .convexity import (
    FrameDepth,
    convexity_depth,
    deep_region,
    object_convexity,  # not called here; bench/tracer.py wraps this name
    track_convexity,
)
from .evaluation import metrics_report, v_measure
from .graphlet import AGraphlet, build_agraphlets, canonical_form, parse_canonical
from .qsr import EntityFrameState, disr, rcc2, rcc5_on
from .scene import (ROW_BREAKS, TYPE_NAMES, SceneSequence, build_semantic_depth_map,
                    is_json, parse_json)
from .temporal import Calculus, Episode, extract_episodes


@dataclass
class DatasetProfile:
    thresh_convex: float = 4.0
    h: int = 5
    n: int = 3
    noise_ratio: float = 0.01
    alg1_literal: bool = False


PROFILES = {
    "cad-like": DatasetProfile(thresh_convex=4.0),
    "wnp-like": DatasetProfile(thresh_convex=0.3),
    "load-like": DatasetProfile(thresh_convex=10.0),
}


@dataclass
class PipelineConfig:
    profile: DatasetProfile = field(default_factory=DatasetProfile)
    calculus: str = "disr"  # disr | rcc5_on
    mode: str = "embedding"  # embedding | sed
    smoothing: int = 0
    gap_bridge: int = 0
    train: emb.TrainConfig = field(default_factory=emb.TrainConfig)
    cut_threshold: Optional[float] = 0.02  # None selects the BIC minimum
    sed_threshold: float = 1.0
    c_spat: float = 0.5
    k_spat: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        """Check the type and range of every field, training's included."""
        for obj in (self, self.profile, self.train):
            hints = get_type_hints(type(obj))
            for f in fields(obj):
                value, hint = getattr(obj, f.name), hints[f.name]
                kinds = get_args(hint) or (hint,)  # Optional[X] is X or None
                if not any(is_json(value, kind) for kind in kinds):
                    want = " or ".join(TYPE_NAMES.get(k, k.__name__) for k in kinds)
                    raise ValueError(f"{f.name} must be {want}, got {value!r}")
                low, high = _RANGES.get(f.name, (None, None))
                if low is not None and value is not None and not low <= value <= high:
                    raise ValueError(f"{f.name} must be in [{low}, {high}], got {value!r}")
                if f.name in _CHOICES and value not in _CHOICES[f.name]:
                    raise ValueError(f"unknown {f.name} {value!r}")
        if self.profile.n >= self.profile.h:
            raise ValueError("profile h and n must satisfy 1 <= n < h, "
                             f"got h={self.profile.h}, n={self.profile.n}")
        self.train.validate()


# Inclusive bounds, which None (an "auto" cut) passes; TrainConfig.validate checks
# the training fields. h stops at the largest float, as convexity_depth divides
# by it.
_RANGES = {name: (0, math.inf) for name in (
    "cut_threshold", "sed_threshold", "thresh_convex", "noise_ratio", "smoothing",
    "gap_bridge", "seed")}
_RANGES.update(c_spat=(0, 1), k_spat=(0, 1), n=(1, math.inf), h=(2, sys.float_info.max))
_CHOICES = {"calculus": ("disr", "rcc5_on"), "mode": ("embedding", "sed")}


def config_from_dict(data: dict, base: Optional[PipelineConfig] = None) -> PipelineConfig:
    """``base`` (by default the default config) with the fields ``data`` sets.
    An unknown key, or a value of the wrong type or range, raises TypeError or
    ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a config is a JSON object, not {type(data).__name__}")
    changes = dict(data)
    _known_keys("at the top level", PipelineConfig, changes)
    prof = changes.get("profile")
    if isinstance(prof, str):
        if prof not in PROFILES:
            raise ValueError(f"profile {prof!r} is not a named profile "
                             f"({', '.join(sorted(PROFILES))})")
        changes["profile"] = replace(PROFILES[prof])
    elif isinstance(prof, dict):
        changes["profile"] = DatasetProfile(**_known_keys("in profile", DatasetProfile, prof))
    if changes.get("cut_threshold") == "auto":
        changes["cut_threshold"] = None
    train = changes.pop("train", {})
    if not isinstance(train, dict):
        raise ValueError(f"train must be an object, got {train!r}")
    cfg = replace(base or PipelineConfig(), **changes)
    cfg.train = replace(cfg.train, **_known_keys("in train", emb.TrainConfig, train))
    cfg.validate()
    return cfg


def _known_keys(section: str, cls: type, data: dict) -> dict:
    """``data``, once every key names a field of ``cls``."""
    names = {f.name for f in fields(cls)}
    unknown = [key for key in data if key not in names]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} {section}")
    return data


def load_config(path: str) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(parse_json(fh.read()))


# ---------------------------------------------------------------------------
# Relation extraction


def compute_frame_relations(
    scene: SceneSequence, cfg: PipelineConfig
) -> dict[tuple[str, str], list[tuple[int, str]]]:
    """Per-frame relation tokens for every ordered object pair (DiSR or the
    RCC5(+On) baseline) and every (object, human_part) pair (RCC2).

    One pass over the frames that observe an object builds each one's
    ownership map once, which decodes each observation's mask once for the
    map and the frame's RCC2 tests, and keeps of each visible object only
    what shape typing reads (a frame without an object yields no relation).
    Each track is then typed in one ``track_convexity`` call before any pair
    is scored."""
    prof = cfg.profile
    at = {ent.id: {obs.frame: obs for obs in ent.observations} for ent in scene.entities}
    objects = [ent.id for ent in scene.objects()]
    humans = [ent.id for ent in scene.human_parts()]

    # frame -> (object id -> (observation, FrameDepth or None), the frame's
    # (object id, human part id, RCC2 token) triples)
    visible: dict[int, tuple[dict, list]] = {}
    tracks: dict[str, list[FrameDepth]] = {}
    for f in sorted({f for eid in objects for f in at[eid]}):
        frame_objects = {eid: at[eid][f] for eid in objects if f in at[eid]}
        hands = {part: at[part][f] for part in humans if f in at[part]}
        smap = build_semantic_depth_map(scene.height, scene.width, frame_objects,
                                        hands.values())
        seen = {}
        for eid, obs in frame_objects.items():
            depth = None  # an object without a mask owns no pixel
            if obs.depth is not None and (owned := smap.owned_mask(eid)).any():
                vals = smap.depth[owned]
                x0 = max(0, int(math.floor(obs.bbox.xmin)))
                x1 = min(scene.width, int(math.ceil(obs.bbox.xmax)))
                y0 = max(0, int(math.floor(obs.bbox.ymin)))
                y1 = min(scene.height, int(math.ceil(obs.bbox.ymax)))
                local_owned = owned[y0:y1, x0:x1]
                depth = FrameDepth(
                    float(vals.min()), float(vals.max()), np.count_nonzero(local_owned),
                    deep_region(smap.depth[y0:y1, x0:x1], local_owned, prof.thresh_convex))
                tracks.setdefault(eid, []).append(depth)
            seen[eid] = (obs, depth)
        hand_masks = dict(zip(hands, smap.hand_masks))
        visible[f] = seen, [
            (eid, part, rcc2(smap.masks.get(eid), hand_masks[part], obs_o.bbox,
                             obs_h.bbox).value)
            for eid, obs_o in frame_objects.items() for part, obs_h in hands.items()]

    track_types = {eid: track_convexity(frames, prof.thresh_convex, prof.noise_ratio,
                                        prof.alg1_literal)
                   for eid, frames in tracks.items()}

    relations: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for f, (seen, contacts) in visible.items():
        states = {}
        for eid, (obs, depth) in seen.items():
            conv = track_types.get(eid)
            span = None if depth is None else (depth.dmin, depth.dmax)
            states[eid] = EntityFrameState(
                bbox=obs.bbox, convexity=conv, depth_range=span,
                concavity_bounds=None if span is None
                else convexity_depth(depth.dmin, depth.dmax, conv, prof.h, prof.n))
        ids = sorted(states)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if cfg.calculus == "disr":
                    rel_ab, rel_ba = disr(states[a], states[b])
                else:
                    rel_ab = rcc5_on(states[a].bbox, states[b].bbox)
                    rel_ba = rcc5_on(states[b].bbox, states[a].bbox)
                relations.setdefault((a, b), []).append((f, rel_ab.value))
                relations.setdefault((b, a), []).append((f, rel_ba.value))
        for eid, part, token in contacts:
            relations.setdefault((eid, part), []).append((f, token))
    return relations


def compute_episodes(scene: SceneSequence, cfg: PipelineConfig) -> list[Episode]:
    """The scene's relation episodes, pair by pair in sorted pair order."""
    relations = compute_frame_relations(scene, cfg)
    human_ids = {e.id for e in scene.human_parts()}
    obj_calc = Calculus.DISR if cfg.calculus == "disr" else Calculus.RCC5ON
    episodes: list[Episode] = []
    for pair in sorted(relations):
        calc = Calculus.RCC2 if pair[1] in human_ids else obj_calc
        episodes.extend(extract_episodes(
            relations[pair], pair, calc,
            smoothing=cfg.smoothing, gap_bridge=cfg.gap_bridge,
        ))
    return episodes


def scene_graphlets(
    scene_id: str, scene: SceneSequence, cfg: PipelineConfig
) -> tuple[list[Episode], list[AGraphlet]]:
    """The scene's episodes and the interaction graphlets built from them."""
    episodes = compute_episodes(scene, cfg)
    return episodes, build_agraphlets(scene_id, episodes)


def episode_records(episodes: list[Episode]) -> list[dict]:
    return [
        {"pair": list(ep.pair), "calculus": ep.calculus.value,
         "relation": ep.relation,
         "interval": [ep.interval.start, ep.interval.end]}
        for ep in episodes
    ]


# ---------------------------------------------------------------------------
# Corpus files


def graphlet_records(graphlets: list[AGraphlet]) -> list[dict]:
    """Corpus records: canonical form plus provenance."""
    return [
        {
            "id": g.id,
            "scene": g.scene_id,
            "anchor": g.anchor,
            "partner": g.partner_object,
            "human_part": g.human_part,
            "form": canonical_form(g),
            "episodes": g.episode_ids,
        }
        for g in graphlets
    ]


def save_graphlet_corpus(records: list[dict], path: str) -> None:
    """Line-delimited ``graphlet_records``."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_graphlet_corpus(path: str) -> list[dict]:
    """Read ``save_graphlet_corpus`` output, skipping blank lines; bytes that
    are not UTF-8, or a line that is not JSON, raise ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()  # UnicodeDecodeError is a ValueError
    records = []
    for n, line in enumerate(lines, 1):
        if line.strip():
            try:
                records.append(parse_json(line))
            except ValueError as exc:
                raise ValueError(f"line {n}: {exc}") from exc
    return records


def form_table(records: list[dict]) -> tuple[list[tuple], list[int]]:
    """``(forms, rows)``: each distinct ``form`` of ``records`` parsed by
    ``parse_canonical``, in first-seen order, and record i's index in ``forms``
    as ``rows[i]``.  A record without a well-formed ``form``, or whose ``id`` is
    not a string free of tabs and line breaks or repeats an earlier one, raises ValueError."""
    index: dict[str, int] = {}  # form -> its index in forms
    forms, rows = [], {}  # rows: id -> its form's index
    for n, rec in enumerate(records, 1):
        try:
            form = rec["form"]
            if form not in index:
                forms.append(parse_canonical(form))  # a str from here on
                index[form] = len(index)
            gid = rec["id"]
            if type(gid) is not str:  # the table writes 1 and "1" alike
                raise TypeError(f"id {gid!r} is not a string")
            if not ROW_BREAKS.isdisjoint(gid):  # the id is its row's first field
                raise ValueError(f"id {gid!r} holds a tab or line break")
            if gid in rows:
                raise ValueError(f"repeated id {gid!r}")
            rows[gid] = index[form]
        except KeyError as exc:
            raise ValueError(f"record {n} has no {exc} field") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"record {n}: {exc}") from exc
    return forms, list(rows.values())


def embed_corpus(records: list[dict], cfg: emb.TrainConfig,
                 seed: int) -> tuple[emb.Vocabulary, emb.EmbeddingTable]:
    """Tokenise each form of ``form_table(records)`` once (records of one form
    share one ``Counter``), index the tokens and train under ``seed``."""
    forms, rows = form_table(records)
    tokens = [emb.wl_tokens(labels, edges, cfg.wl_depth) for labels, edges in forms]
    corpus = [tokens[r] for r in rows]
    vocab = emb.build_vocabulary(corpus)
    return vocab, emb.train([rec["id"] for rec in records], corpus, vocab, cfg, seed)


# ---------------------------------------------------------------------------
# Clusters


def cluster_table(
    dist: np.ndarray, leaf_ids: list[str], vectors: Optional[np.ndarray],
    threshold: Optional[float], rows: Optional[list[int]] = None,
) -> tuple[clust.Dendrogram, float, dict[str, int]]:
    """Agglomerate ``dist``, leaf i in row ``rows[i]``, under average linkage
    and cut at ``threshold``, or, when it is None, at the height BIC selects on
    ``vectors``."""
    dend = clust.hierarchical_cluster(dist, leaf_ids=leaf_ids, rows=rows)
    if threshold is None:
        threshold = clust.select_threshold(dend, vectors)
    return dend, threshold, clust.cut(dend, threshold)


def save_clusters(assignment: dict[str, int], leaf_ids: list[str], path: str) -> None:
    """One ``id<TAB>cluster`` line per leaf, in ``leaf_ids`` order."""
    with open(path, "w", encoding="utf-8") as fh:
        for gid in leaf_ids:
            fh.write(f"{gid}\t{assignment[gid]}\n")


def load_clusters(path: str) -> dict[str, int]:
    """Read ``save_clusters`` output as ``{graph id: cluster}``; a malformed
    line, or one that repeats an id, raises ``ValueError``."""
    assignment = {}
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                try:
                    fields = line.rstrip("\n").split("\t")
                    if len(fields) != 2:
                        raise ValueError(f"expected 2 tab-separated fields, got {len(fields)}")
                    gid, cid = fields
                    if gid in assignment:
                        raise ValueError(f"repeated id {gid!r}")
                    assignment[gid] = int(cid)
                except ValueError as exc:
                    raise ValueError(f"line {n}: {exc}") from exc
    return assignment


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass
class RunReport:
    n_graphlets: int
    n_clusters: int
    cut_threshold: float
    homogeneity: Optional[float]
    completeness: Optional[float]
    v_measure: Optional[float]
    artifacts: dict[str, str] = field(default_factory=dict)  # stem -> out_dir-relative path

    def to_dict(self) -> dict:
        return asdict(self)


class PipelineError(RuntimeError):
    def __init__(self, stage: str, detail: str):
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage


def run_pipeline(
    scenes: Mapping[str, SceneSequence],
    cfg: PipelineConfig,
    out_dir: str,
    groundtruth: Optional[dict[str, list[str]]] = None,
) -> RunReport:
    """Run every stage, writing each intermediate artifact under ``out_dir``.

    Scenes are looked up one at a time, and each is dropped before the next
    lookup, so a mapping that reads on lookup holds one parsed scene at a time.
    A lookup's own error (a missing or malformed scene) propagates as it is,
    and ``out_dir`` is created only once every scene is read, if one has an interaction."""
    cfg.validate()
    if not scenes:
        raise PipelineError("input", "no scenes provided")
    artifacts: dict[str, str] = {}

    def artifact(name: str) -> str:
        """The path of ``name`` under ``out_dir``; the report records ``name``."""
        artifacts[os.path.splitext(name)[0]] = name
        return os.path.join(out_dir, name)

    records: list[dict] = []
    all_episodes: dict[str, list[dict]] = {}
    for scene_id in sorted(scenes):
        scene = scenes[scene_id]
        try:
            episodes, scene_gs = scene_graphlets(scene_id, scene, cfg)
        except Exception as exc:
            raise PipelineError("graphlets", f"scene {scene_id}: {exc}") from exc
        all_episodes[scene_id] = episode_records(episodes)
        records += graphlet_records(scene_gs)
        del scene, scene_gs  # past here a graphlet is its record
    if not records:
        raise PipelineError("graphlets", "no interactions found in any scene")
    os.makedirs(out_dir, exist_ok=True)
    with open(artifact("episodes.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(all_episodes, sort_keys=True))
    save_graphlet_corpus(records, artifact("graphlets.jsonl"))

    ids = [rec["id"] for rec in records]
    if cfg.mode == "embedding":
        vocab, table = embed_corpus(records, cfg.train, cfg.seed)
        emb.save_vocabulary(vocab, artifact("vocabulary.tsv"))
        emb.save_embeddings(table, artifact("embeddings.tsv"))
        dist, rows = clust.pairwise_cosine_costs(table.vectors), None
        vectors, threshold = table.vectors, cfg.cut_threshold
    else:
        forms, rows = form_table(records)
        dist, profile = clust.sed_matrix(forms, cfg.c_spat, cfg.k_spat)
        rows = [profile[r] for r in rows]
        vectors, threshold = None, cfg.sed_threshold

    dend, threshold, assignment = cluster_table(dist, ids, vectors, threshold, rows)
    clust.export_dendrogram_json(dend, artifact("dendrogram.json"))
    save_clusters(assignment, ids, artifact("clusters.tsv"))

    hom = comp = v = None
    if groundtruth:
        try:
            hom, comp, v = v_measure(groundtruth, assignment)
        except ValueError as exc:
            raise PipelineError("evaluate", str(exc)) from exc
        with open(artifact("metrics.txt"), "w", encoding="utf-8") as fh:
            fh.write(metrics_report(hom, comp, v))

    report = RunReport(
        n_graphlets=len(records),
        n_clusters=len(set(assignment.values())),
        cut_threshold=float(threshold),
        homogeneity=hom, completeness=comp, v_measure=v,
        artifacts=artifacts,
    )
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
    return report


def export_dendrogram_dot(
    dend: clust.Dendrogram, assignment: Optional[dict[str, int]], path: str
) -> None:
    """DOT rendering with leaves annotated by id and colored by cluster."""
    palette = [
        "lightblue", "lightgreen", "salmon", "gold", "plum", "khaki",
        "lightcyan", "orange", "palegreen", "pink",
    ]
    lines = ["graph dendrogram {", "  node [shape=box];"]
    for leaf in range(dend.n_leaves):
        gid = dend.leaf_ids[leaf]
        label = gid.replace("\\", "\\\\").replace('"', '\\"')  # a DOT quoted string
        color = ""
        if assignment is not None:
            cluster = assignment[gid]
            label += f"\\ncluster {cluster}"
            color = f', style=filled, fillcolor="{palette[cluster % len(palette)]}"'
        lines.append(f'  n{leaf} [label="{label}"{color}];')
    for mi, m in enumerate(dend.merges):
        node = dend.n_leaves + mi
        lines.append(f'  n{node} [shape=point, label="", xlabel="{m.height:.4f}"];')
        lines.append(f"  n{node} -- n{m.left};")
        lines.append(f"  n{node} -- n{m.right};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
