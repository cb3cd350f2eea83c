"""Synthetic scene generator with known per-frame relations and labels.

Scenes are constructed so the spatial predicates provably hold at every
frame; the generator emits the expected relation key alongside the scene so
the relation extraction can be validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convexity import ConvexityType, convexity_depth
from .scene import (
    BoundingBox,
    DepthSample,
    Entity,
    EntityKind,
    EntityObservation,
    MaskRLE,
    SceneSequence,
)

SCRIPT_KINDS = (
    "place-on",
    "put-into",
    "take-out",
    "push-adjacent",
    "occlude-pass-behind",
)


class ScriptError(ValueError):
    """Raised for infeasible script parameters."""


@dataclass(frozen=True)
class SyntheticScript:
    kind: str
    frame_count: int = 36
    switch_frame: int = 12
    touch_lead: int = 4  # frames the hand holds the moving object before the event
    extra_touch: bool = False  # a second, late hand contact with the moving object
    early_release: bool = False  # hand lets go just before the event, not after
    jitter: int = 1

    def validate(self) -> None:
        if self.kind not in SCRIPT_KINDS:
            raise ScriptError(f"unknown script kind {self.kind!r}")
        t = self.switch_frame
        if not (self.touch_lead + 1 <= t <= self.frame_count - 8):
            raise ScriptError(
                f"switch_frame {t} incompatible with frame_count {self.frame_count} "
                f"and touch_lead {self.touch_lead}"
            )


@dataclass
class GeneratedScene:
    scene: SceneSequence
    # ordered (entity, entity) -> affordance labels for the anchored graphlet
    labels: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    # ordered pair -> per-frame expected relation tokens
    relation_key: dict[tuple[str, str], list[tuple[int, str]]] = field(default_factory=dict)


WIDTH = 64
HEIGHT = 48

STATIC = "obj_a"  # supporter / container / pushed-against / occluded object
MOVER = "obj_b"
HAND = "hand"


def _rect_mask(x0: int, y0: int, x1: int, y1: int) -> MaskRLE:
    arr = np.zeros((HEIGHT, WIDTH), dtype=bool)
    arr[y0:y1, x0:x1] = True
    return MaskRLE.from_array(arr)


def _rect_obs(frame: int, x0: int, y0: int, x1: int, y1: int, score: float,
              depth_grid: np.ndarray) -> EntityObservation:
    # the mask's foreground, in run (row-major) order, is exactly this slice
    depth = DepthSample(values=tuple(depth_grid[y0:y1, x0:x1].ravel().tolist()))
    return EntityObservation(
        frame=frame,
        bbox=BoundingBox(float(x0), float(y0), float(x1), float(y1)),
        score=score, mask=_rect_mask(x0, y0, x1, y1), depth=depth,
    )


def _table_depth(x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    """Row-graded depth, range 12: a surface-type profile under thresh 4."""
    grid = np.zeros((HEIGHT, WIDTH))
    h = y1 - y0
    for r in range(y0, y1):
        grid[r, x0:x1] = 10.0 + 12.0 * (r - y0) / max(1, h - 1)
    return grid


def _bowl_depth(x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    """Ring-structured depth: shallow rim, deep annulus, shallow core.

    The deep annulus encloses a hole, so the deep-region contour hierarchy
    flags the object concave; dmin=10, dmax=22.
    """
    grid = np.zeros((HEIGHT, WIDTH))
    grid[y0:y1, x0:x1] = 10.0
    grid[y0 + 3 : y1 - 3, x0 + 3 : x1 - 3] = 22.0
    grid[y0 + 6 : y1 - 6, x0 + 6 : x1 - 6] = 12.5
    return grid


def _flat_depth(value: float) -> np.ndarray:
    return np.full((HEIGHT, WIDTH), value)


def _gradient_depth(x0: int, x1: int, lo: float, hi: float) -> np.ndarray:
    """Column-graded depth between lo and hi across the box width."""
    grid = np.zeros((HEIGHT, WIDTH))
    for c in range(x0, x1):
        grid[:, c] = lo + (hi - lo) * (c - x0) / max(1, (x1 - x0 - 1))
    return grid


def _check_containment_band(thresh_convex: float, h: int, n: int) -> None:
    """The mover's depth band (16, 20) must sit inside the container's
    concavity band computed with the configured h and n."""
    bowl_depths = np.array([10.0, 22.0])
    bounds = convexity_depth(bowl_depths, ConvexityType.CONCAVE, h, n)
    if not (20.0 > bounds.dc_min and 20.0 <= bounds.dc_max
            and 16.0 >= bounds.dc_min and 16.0 < bounds.dc_max):
        raise ScriptError(
            f"containee depth band (16,20) outside container concavity "
            f"[{bounds.dc_min}, {bounds.dc_max}] for h={h}, n={n}"
        )
    if 22.0 - 10.0 <= thresh_convex:
        raise ScriptError("container depth range must exceed thresh_convex")


def generate_synthetic(
    script: SyntheticScript,
    seed: int,
    thresh_convex: float = 4.0,
    h: int = 5,
    n: int = 3,
) -> GeneratedScene:
    script.validate()
    rng = np.random.default_rng(seed)
    T = script.frame_count
    t = script.switch_frame
    tc = t - script.touch_lead

    if script.kind == "place-on":
        return _place_on(script, rng, T, t, tc)
    if script.kind == "put-into":
        _check_containment_band(thresh_convex, h, n)
        return _put_into(script, rng, T, t, tc, reverse=False)
    if script.kind == "take-out":
        _check_containment_band(thresh_convex, h, n)
        return _put_into(script, rng, T, t, tc, reverse=True)
    if script.kind == "push-adjacent":
        return _push_adjacent(script, rng, T, t, tc)
    return _occlude(script, rng, T, t)


def _jitter(rng: np.random.Generator, amount: int) -> int:
    if amount <= 0:
        return 0
    return int(rng.integers(-amount, amount + 1))


def _hand_windows(script: SyntheticScript, T: int, t: int, tc: int) -> list[tuple[int, int]]:
    """Frame windows with hand-mover contact."""
    windows = [(tc, t - 1 if script.early_release else t + 1)]
    if script.extra_touch:
        lo = min(t + 4, T - 3)
        windows.append((lo, min(lo + 2, T - 1)))
    return windows


def _in_windows(f: int, windows: list[tuple[int, int]]) -> bool:
    return any(a <= f <= b for a, b in windows)


def _place_on(script, rng, T, t, tc) -> GeneratedScene:
    # static supporter: row-graded surface
    sx0, sy0, sx1, sy1 = 8, 24, 56, 44
    table_grid = _table_depth(sx0, sy0, sx1, sy1)
    cup_grid = _flat_depth(15.0)
    hand_grid = _flat_depth(13.0)

    far_x = 2 + _jitter(rng, script.jitter)
    far_x = max(0, min(far_x, sx0 - 9))  # keep the mover clear of the supporter
    on_x = 24 + _jitter(rng, script.jitter)

    entities = {
        STATIC: Entity(STATIC, EntityKind.OBJECT),
        MOVER: Entity(MOVER, EntityKind.OBJECT),
        HAND: Entity(HAND, EntityKind.HUMAN_PART),
    }
    windows = _hand_windows(script, T, t, tc)
    # brief hand contact with the supporter after the release, clear of the
    # mover and of the supporter's deep rows
    static_touch = (t + 3, t + 8) if t + 8 <= T - 2 else None
    for f in range(T):
        entities[STATIC].observations.append(
            _rect_obs(f, sx0, sy0, sx1, sy1, 0.9, table_grid))
        if f < t:
            mx, my = far_x, 6
        else:
            # On(mover, supporter): horizontally inside, overlapping the top edge
            mx, my = on_x, 18
        entities[MOVER].observations.append(
            _rect_obs(f, mx, my, mx + 8, my + 8, 0.95, cup_grid))
        if _in_windows(f, windows):
            # touch the mover's top rows only; never the supporter's mask
            entities[HAND].observations.append(
                _rect_obs(f, mx + 1, my - 3, mx + 6, my + 2, 0.99, hand_grid))
        elif static_touch and static_touch[0] <= f <= static_touch[1]:
            entities[HAND].observations.append(
                _rect_obs(f, 44, 26, 48, 30, 0.99, hand_grid))
        else:
            entities[HAND].observations.append(
                _rect_obs(f, 56, 2, 62, 8, 0.99, hand_grid))

    gen = _finish(entities, T)
    gen.labels[(STATIC, MOVER)] = ["can-support"]
    gen.labels[(MOVER, STATIC)] = ["supportable"]
    _fill_key(gen, T, t, rel_after=("Sup", "Supi"), windows=windows)
    return gen


def _put_into(script, rng, T, t, tc, reverse: bool) -> GeneratedScene:
    bx0, by0, bx1, by1 = 20, 14, 40, 34
    bowl_grid = _bowl_depth(bx0, by0, bx1, by1)
    ball_grid = _gradient_depth(0, WIDTH, 16.0, 20.0)
    hand_grid = _flat_depth(17.0)

    far_x = 2 + _jitter(rng, script.jitter)
    far_x = max(0, min(far_x, bx0 - 9))
    in_x = 27 + _jitter(rng, script.jitter)
    in_x = max(bx0 + 6, min(in_x, bx1 - 6 - 6))  # stay over the shallow core

    entities = {
        STATIC: Entity(STATIC, EntityKind.OBJECT),
        MOVER: Entity(MOVER, EntityKind.OBJECT),
        HAND: Entity(HAND, EntityKind.HUMAN_PART),
    }
    windows = _hand_windows(script, T, t, tc)
    # brief hand contact with the container's outer rim right at the event,
    # clear of the mover and of the deep annulus
    static_touch = (t, t + 5) if t + 5 <= T - 2 else None
    for f in range(T):
        entities[STATIC].observations.append(
            _rect_obs(f, bx0, by0, bx1, by1, 0.9, bowl_grid))
        inside = (f >= t) if not reverse else (f < t)
        if inside:
            mx, my = in_x, 21
        else:
            mx, my = far_x, 2
        ball_depth = _gradient_depth(mx, mx + 6, 16.0, 20.0)
        entities[MOVER].observations.append(
            _rect_obs(f, mx, my, mx + 6, my + 6, 0.95, ball_depth))
        if _in_windows(f, windows):
            hx = mx + 1
            hy = max(0, my - 2)
            entities[HAND].observations.append(
                _rect_obs(f, hx, hy, hx + 4, hy + 4, 0.99, hand_grid))
        elif static_touch and static_touch[0] <= f <= static_touch[1]:
            entities[HAND].observations.append(
                _rect_obs(f, bx0, by0 + 1, bx0 + 3, by0 + 6, 0.99, hand_grid))
        else:
            entities[HAND].observations.append(
                _rect_obs(f, 56, 40, 62, 46, 0.99, hand_grid))

    gen = _finish(entities, T)
    gen.labels[(STATIC, MOVER)] = ["can-contain"]
    gen.labels[(MOVER, STATIC)] = ["containable"]
    _fill_key(gen, T, t, rel_after=("Cont", "Conti"), windows=windows, reverse=reverse)
    return gen


def _push_adjacent(script, rng, T, t, tc) -> GeneratedScene:
    ax_far = 5 + _jitter(rng, script.jitter)
    ax_far = max(0, min(ax_far, 10))
    b_x0, b_y0 = 30, 20
    hand_grid = _flat_depth(11.0)

    entities = {
        STATIC: Entity(STATIC, EntityKind.OBJECT),
        MOVER: Entity(MOVER, EntityKind.OBJECT),
        HAND: Entity(HAND, EntityKind.HUMAN_PART),
    }
    b_depth = _gradient_depth(b_x0, b_x0 + 10, 12.0, 15.0)
    windows = _hand_windows(script, T, t, tc)
    # brief hand contact with the static box before the push, placed so the
    # two anchored graphlets differ in exactly one temporal label
    static_touch = (2, 6) if tc >= 8 else None
    for f in range(T):
        entities[STATIC].observations.append(
            _rect_obs(f, b_x0, b_y0, b_x0 + 10, b_y0 + 10, 0.9, b_depth))
        if f < t:
            mx = ax_far
        else:
            mx = 22  # overlap the static box by 2 columns
        a_depth = _gradient_depth(mx, mx + 10, 10.0, 13.0)
        entities[MOVER].observations.append(
            _rect_obs(f, mx, b_y0, mx + 10, b_y0 + 10, 0.85, a_depth))
        if _in_windows(f, windows):
            entities[HAND].observations.append(
                _rect_obs(f, max(0, mx - 3), b_y0 + 2, mx + 2, b_y0 + 7, 0.99, hand_grid))
        elif static_touch and static_touch[0] <= f <= static_touch[1]:
            entities[HAND].observations.append(
                _rect_obs(f, b_x0 + 3, b_y0 + 2, b_x0 + 7, b_y0 + 6, 0.99, hand_grid))
        else:
            entities[HAND].observations.append(
                _rect_obs(f, 56, 2, 62, 8, 0.99, hand_grid))

    gen = _finish(entities, T)
    gen.labels[(STATIC, MOVER)] = ["adjacent-interaction"]
    gen.labels[(MOVER, STATIC)] = ["adjacent-interaction"]
    _fill_key(gen, T, t, rel_after=("Adj", "Adj"), windows=windows, mover_first=True)
    return gen


def _occlude(script, rng, T, t) -> GeneratedScene:
    # distant static object; near mover passes across it with a large depth gap
    s_depth = _gradient_depth(24, 40, 30.0, 34.0)
    m_depth = _gradient_depth(0, WIDTH, 10.0, 13.0)
    entities = {
        STATIC: Entity(STATIC, EntityKind.OBJECT),
        MOVER: Entity(MOVER, EntityKind.OBJECT),
    }
    for f in range(T):
        entities[STATIC].observations.append(
            _rect_obs(f, 24, 14, 40, 30, 0.9, s_depth))
        # sweep left to right across the static box, vertically offset so the
        # mover's box is never x-contained (On fails both ways)
        mx = min(2 + 2 * f, WIDTH - 13)
        md = _gradient_depth(mx, mx + 12, 10.0, 13.0)
        entities[MOVER].observations.append(
            _rect_obs(f, mx, 18, mx + 12, 27, 0.95, md))

    gen = _finish(entities, T)
    key_ab = [(f, "NI") for f in range(T)]
    gen.relation_key[(STATIC, MOVER)] = key_ab
    gen.relation_key[(MOVER, STATIC)] = list(key_ab)
    return gen


def _finish(entities: dict[str, Entity], frame_count: int) -> GeneratedScene:
    scene = SceneSequence(width=WIDTH, height=HEIGHT, frame_count=frame_count,
                          fps=30.0, entities=list(entities.values()))
    scene.validate()
    return GeneratedScene(scene=scene)


def _fill_key(gen: GeneratedScene, T: int, t: int,
              rel_after: tuple[str, str],
              windows: list[tuple[int, int]],
              reverse: bool = False,
              mover_first: bool = False) -> None:
    ab, ba = rel_after

    def tok(f: int, rel: str) -> str:
        active = (f >= t) if not reverse else (f < t)
        return rel if active else "NI"

    gen.relation_key[(STATIC, MOVER)] = [(f, tok(f, ab)) for f in range(T)]
    gen.relation_key[(MOVER, STATIC)] = [(f, tok(f, ba)) for f in range(T)]
    gen.relation_key[(MOVER, HAND)] = [
        (f, "C" if _in_windows(f, windows) else "DC") for f in range(T)
    ]
    # the hand touches the static object's mask only while over it
    static_c = [
        (f, "C" if (_contact_static(gen, f)) else "DC") for f in range(T)
    ]
    gen.relation_key[(STATIC, HAND)] = static_c


def _contact_static(gen: GeneratedScene, f: int) -> bool:
    scene = gen.scene
    try:
        hand = scene.entity(HAND)
    except KeyError:
        return False
    obs_s = scene.entity(STATIC).observation_at(f)
    obs_h = hand.observation_at(f)
    if obs_s is None or obs_h is None or obs_s.mask is None or obs_h.mask is None:
        return False
    return bool(np.any(obs_s.mask.to_array() & obs_h.mask.to_array()))
