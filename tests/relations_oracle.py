"""Reference relation and graphlet stages: the bookkeeping-heavy versions.

``affgraph.pipeline.compute_frame_relations``, ``affgraph.scene.
build_semantic_depth_map`` and ``affgraph.graphlet.build_agraphlets`` compute
the same results in fewer steps; the tests compare the two on synthetic
scenes.  The product indexes every observation by frame once, builds each
frame's depth map from that index, decodes each mask once per frame, and
types each track's frames in one stacked labelling.  Here every frame, the
depth map's included, looks each observation up with a linear scan
(``observation_at``) over the entity's observations, each object's owned mask
is taken twice, each frame is typed on its own by the one-frame
``object_convexity`` and the types are voted per track, every RCC2 test
decodes both masks again, per-frame states are rebuilt into a third dict
before any pair is scored, masks are painted through ``np.unravel_index`` of
their foreground indices, and the temporal candidates of a graphlet are an
explicit double loop.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

import numpy as np

from affgraph.convexity import (
    ConvexityType,
    convexity_depth,
    deep_region,
    object_convexity,
)
from affgraph.graphlet import (
    ENTITY,
    ROLE_ANCHOR,
    ROLE_HUMAN,
    ROLE_PARTNER,
    SPATIAL,
    TEMPORAL,
    AGraphlet,
    _episode_id,
    _episode_sort_key,
    _pair_gap,
)
from affgraph.pipeline import PipelineConfig
from affgraph.qsr import EntityFrameState, disr, rcc2, rcc5_on
from affgraph.scene import Entity, EntityObservation, MaskRLE, SceneSequence, SemanticDepthMap
from affgraph.temporal import Calculus, Episode, allen


def observation_at(ent: Entity, frame: int) -> Optional[EntityObservation]:
    for obs in ent.observations:
        if obs.frame == frame:
            return obs
    return None


def build_semantic_depth_map(scene: SceneSequence, frame: int) -> SemanticDepthMap:
    """Resolve overlapping masks at one frame into exclusive pixel ownership.

    Overlap pixels go to the highest-score object (ties to the lower entity
    id); pixels under any human_part mask are excluded from object ownership.
    """
    if not (0 <= frame < scene.frame_count):
        raise ValueError(f"frame {frame} outside [0, {scene.frame_count})")
    owner = np.full((scene.height, scene.width), -1, dtype=int)
    depth = np.zeros((scene.height, scene.width), dtype=float)
    entity_ids: list[str] = []
    claims = []
    for ent in scene.objects():
        obs = observation_at(ent, frame)
        if obs is None or obs.mask is None:
            continue
        claims.append((-obs.score, ent.id, ent, obs))
    claims.sort()
    # paint lowest priority first so stronger claims overwrite
    for neg_score, ent_id, ent, obs in reversed(claims):
        if ent_id not in entity_ids:
            entity_ids.append(ent_id)
        idx = entity_ids.index(ent_id)
        rows_cols = np.unravel_index(
            np.flatnonzero(obs.mask.to_array()), (scene.height, scene.width)
        )
        owner[rows_cols] = idx
        if obs.depth is not None:
            depth[rows_cols] = np.asarray(obs.depth.values, dtype=float)
        else:
            depth[rows_cols] = 0.0
    for ent in scene.human_parts():
        obs = observation_at(ent, frame)
        if obs is None or obs.mask is None:
            continue
        rows_cols = np.unravel_index(
            np.flatnonzero(obs.mask.to_array()), (scene.height, scene.width)
        )
        owner[rows_cols] = -1
        depth[rows_cols] = 0.0
    # contacts are tested on each observation's own mask (``_decoded``)
    return SemanticDepthMap(entity_ids=entity_ids, owner=owner, depth=depth,
                            masks={}, hand_masks=[])


def _decoded(mask: Optional[MaskRLE]) -> Optional[np.ndarray]:
    return None if mask is None else mask.to_array()


def majority_convexity(per_frame_types: list[ConvexityType]) -> ConvexityType:
    """Majority vote over per-frame types; ties favor concave > surface > convex."""
    counts = Counter(per_frame_types)
    priority = {ConvexityType.CONCAVE: 0, ConvexityType.SURFACE: 1, ConvexityType.CONVEX: 2}
    return max(counts, key=lambda t: (counts[t], -priority[t]))


def compute_frame_relations(
    scene: SceneSequence, cfg: PipelineConfig
) -> dict[tuple[str, str], list[tuple[int, str]]]:
    """Per-frame relation tokens for every ordered object pair (DiSR or the
    RCC5(+On) baseline) and every (object, human_part) pair (RCC2)."""
    prof = cfg.profile
    states: dict[int, dict[str, EntityFrameState]] = {}
    per_frame_conv: dict[str, list[ConvexityType]] = {}
    per_frame_vals: dict[tuple[str, int], np.ndarray] = {}

    objects = scene.objects()
    humans = scene.human_parts()

    for f in range(scene.frame_count):
        smap = build_semantic_depth_map(scene, f)
        frame_states: dict[str, EntityFrameState] = {}
        for ent in objects:
            obs = observation_at(ent, f)
            if obs is None:
                continue
            depth_range = None
            if obs.mask is not None and obs.depth is not None:
                owned = smap.owned_mask(ent.id)
                if owned.any():
                    vals = np.sort(smap.depth[owned])
                    depth_range = (float(vals[0]), float(vals[-1]))
                    per_frame_vals[(ent.id, f)] = vals
                    x0 = max(0, int(math.floor(obs.bbox.xmin)))
                    x1 = min(scene.width, int(math.ceil(obs.bbox.xmax)))
                    y0 = max(0, int(math.floor(obs.bbox.ymin)))
                    y1 = min(scene.height, int(math.ceil(obs.bbox.ymax)))
                    local_owned = owned[y0:y1, x0:x1]
                    local_depth = smap.depth[y0:y1, x0:x1]
                    deep = deep_region(local_depth, local_owned, prof.thresh_convex)
                    per_frame_conv.setdefault(ent.id, []).append(object_convexity(
                        vals, deep, prof.thresh_convex,
                        noise_ratio=prof.noise_ratio,
                        object_pixel_count=int(local_owned.sum()),
                        alg1_literal=prof.alg1_literal,
                    ))
            frame_states[ent.id] = EntityFrameState(
                bbox=obs.bbox, depth_range=depth_range)
        states[f] = frame_states

    # consolidate convexity per track
    track_types = {
        eid: majority_convexity(types) for eid, types in per_frame_conv.items()
    }

    relations: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for f in range(scene.frame_count):
        frame_states = states[f]
        # attach concavity bounds with the consolidated type
        resolved: dict[str, EntityFrameState] = {}
        for eid, st in frame_states.items():
            conv = track_types.get(eid)
            bounds = None
            vals = per_frame_vals.get((eid, f))
            if vals is not None and conv is not None:
                bounds = convexity_depth(vals, conv, prof.h, prof.n)
            resolved[eid] = EntityFrameState(
                bbox=st.bbox, depth_range=st.depth_range,
                concavity_bounds=bounds, convexity=conv)

        ids = sorted(resolved)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if cfg.calculus == "disr":
                    rel_ab, rel_ba = disr(resolved[a], resolved[b])
                    tok_ab, tok_ba = rel_ab.value, rel_ba.value
                else:
                    tok_ab = rcc5_on(resolved[a].bbox, resolved[b].bbox).value
                    tok_ba = rcc5_on(resolved[b].bbox, resolved[a].bbox).value
                relations.setdefault((a, b), []).append((f, tok_ab))
                relations.setdefault((b, a), []).append((f, tok_ba))

        for ent in objects:
            obs_o = observation_at(ent, f)
            if obs_o is None:
                continue
            for part in humans:
                obs_h = observation_at(part, f)
                if obs_h is None:
                    continue
                rel = rcc2(_decoded(obs_o.mask), _decoded(obs_h.mask), obs_o.bbox, obs_h.bbox)
                relations.setdefault((ent.id, part.id), []).append((f, rel.value))
    return relations


def build_agraphlets(
    scene_id: str,
    episodes: list[Episode],
    temporal_cap: int = 256,
    non_interaction: str = "NI",
) -> list[AGraphlet]:
    """One graphlet per ordered object pair sharing a non-NI DiSR episode.

    Each graphlet combines the pair's DiSR episodes with the anchor's RCC2
    episodes against its designated human part (the part with the most
    connected frames), plus Allen temporal vertices for episode pairs up to
    ``temporal_cap``, closest in time first.
    """
    disr_by_pair: dict[tuple[str, str], list[Episode]] = {}
    rcc2_by_pair: dict[tuple[str, str], list[Episode]] = {}
    for ep in episodes:
        if ep.calculus is Calculus.RCC2:
            rcc2_by_pair.setdefault(ep.pair, []).append(ep)
        else:  # DiSR or the RCC5(+On) baseline calculus
            disr_by_pair.setdefault(ep.pair, []).append(ep)

    graphlets: list[AGraphlet] = []
    for (anchor, partner), disr_eps in sorted(disr_by_pair.items()):
        if not any(ep.relation != non_interaction for ep in disr_eps):
            continue
        # pick the human part with the most C frames against the anchor
        best_part: Optional[str] = None
        best_c_frames = -1
        for (a, part), rcc2_eps in sorted(rcc2_by_pair.items()):
            if a != anchor:
                continue
            c_frames = sum(
                ep.interval.end - ep.interval.start + 1
                for ep in rcc2_eps if ep.relation == "C"
            )
            if c_frames > best_c_frames:
                best_c_frames = c_frames
                best_part = part
        human_eps = rcc2_by_pair.get((anchor, best_part), []) if best_part else []

        g = AGraphlet(anchor=anchor, partner_object=partner,
                      human_part=best_part if human_eps else None, scene_id=scene_id)
        v_anchor = g.add_vertex(ENTITY, ROLE_ANCHOR)
        v_partner = g.add_vertex(ENTITY, ROLE_PARTNER)
        v_human = g.add_vertex(ENTITY, ROLE_HUMAN) if human_eps else None

        included: list[tuple[Episode, int]] = []
        for ep in sorted(disr_eps, key=_episode_sort_key):
            v = g.add_vertex(SPATIAL, f"{ep.calculus.value}:{ep.relation}")
            g.add_edge(v_anchor, v)
            g.add_edge(v_partner, v)
            g.spatial_calculus[v] = ep.calculus
            g.episode_ids.append(_episode_id(ep))
            included.append((ep, v))
        for ep in sorted(human_eps, key=_episode_sort_key):
            v = g.add_vertex(SPATIAL, f"{ep.calculus.value}:{ep.relation}")
            g.add_edge(v_anchor, v)
            if v_human is not None:
                g.add_edge(v_human, v)
            g.spatial_calculus[v] = Calculus.RCC2
            g.episode_ids.append(_episode_id(ep))
            included.append((ep, v))

        candidates = []
        for i in range(len(included)):
            for j in range(i + 1, len(included)):
                ep_i, v_i = included[i]
                ep_j, v_j = included[j]
                gap = _pair_gap(ep_i, ep_j)
                candidates.append((gap, i, j))
        candidates.sort()
        for gap, i, j in candidates[:temporal_cap]:
            ep_i, v_i = included[i]
            ep_j, v_j = included[j]
            # canonical direction: earlier-starting episode first
            if _episode_sort_key(ep_j) < _episode_sort_key(ep_i):
                ep_i, v_i, ep_j, v_j = ep_j, v_j, ep_i, v_i
            rel = allen(ep_i.interval, ep_j.interval)
            v = g.add_vertex(TEMPORAL, rel.value)
            g.add_edge(v_i, v)
            g.add_edge(v_j, v)
        graphlets.append(g)
    return graphlets
