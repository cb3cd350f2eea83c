"""Synthetic scene generator with known per-frame relations and labels.

Scenes are constructed so the spatial predicates provably hold at every
frame; the generator emits the expected relation key alongside the scene so
the relation extraction can be validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


# place-on sets its mover down at x 24 +- jitter; beyond 16 it can leave the
# supporter's columns 8-56, so the scene no longer shows the On its key says
MAX_JITTER = 16
# a generated frame costs about 87 KB of memory until the scene is written
MAX_FRAMES = 1000


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
        if not 0 <= self.jitter <= MAX_JITTER:
            raise ScriptError(f"jitter {self.jitter} outside [0, {MAX_JITTER}]")
        if self.frame_count > MAX_FRAMES:
            raise ScriptError(f"frame_count {self.frame_count} above {MAX_FRAMES}")
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
    """The run-length encoding of a non-empty rectangle's filled grid:
    background up to the first pixel, then each row's width and the gap to the
    next row; full-width rows make one run."""
    w = x1 - x0
    if w == WIDTH:
        runs = [y0 * WIDTH, (y1 - y0) * WIDTH]
    else:
        runs = [y0 * WIDTH + x0] + [w, WIDTH - w] * (y1 - y0 - 1) + [w]
    end = (HEIGHT - y1) * WIDTH + WIDTH - x1
    if end:
        runs.append(end)
    return MaskRLE(width=WIDTH, height=HEIGHT, runs=tuple(runs))


def _rect_obs(parts: dict, frame: int, x0: int, y0: int, x1: int, y1: int, score: float,
              depth_grid: np.ndarray) -> EntityObservation:
    """One frame's observation of a rectangle over ``depth_grid``.

    ``parts`` is one scene's memo of the frozen box, mask and depth sample
    built for each rectangle and grid.  It keys on the grid's ``id`` and also
    holds the grid, so no other grid can take that id while the memo lives.
    """
    key = (x0, y0, x1, y1, id(depth_grid))
    part = parts.get(key)
    if part is None:
        part = parts[key] = (
            depth_grid,
            BoundingBox(float(x0), float(y0), float(x1), float(y1)),
            _rect_mask(x0, y0, x1, y1),
            # the mask's foreground, in run (row-major) order, is exactly this slice
            DepthSample(values=tuple(depth_grid[y0:y1, x0:x1].ravel().tolist())),
        )
    _, bbox, mask, depth = part
    return EntityObservation(frame=frame, bbox=bbox, score=score, mask=mask, depth=depth)


def _table_depth(x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    """Row-graded depth, range 12: a surface-type profile under thresh 4."""
    grid = np.zeros((HEIGHT, WIDTH))
    grid[y0:y1, x0:x1] = (10.0 + 12.0 * np.arange(y1 - y0) / max(1, y1 - y0 - 1))[:, None]
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
    grid[:, x0:x1] = lo + (hi - lo) * np.arange(x1 - x0) / max(1, x1 - x0 - 1)
    return grid


def generate_synthetic(script: SyntheticScript, seed: int) -> GeneratedScene:
    script.validate()
    if seed < 0:
        raise ScriptError(f"seed {seed} is negative")
    rng = np.random.default_rng(seed)
    T = script.frame_count
    t = script.switch_frame
    tc = t - script.touch_lead

    if script.kind == "place-on":
        return _place_on(script, rng, T, t, tc)
    if script.kind in ("put-into", "take-out"):
        return _put_into(script, rng, T, t, tc, reverse=script.kind == "take-out")
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


Box = tuple[int, int, int, int]  # x0, y0, x1, y1


def _place_on(script, rng, T, t, tc) -> GeneratedScene:
    # The mover starts at x 0, clear of the supporter at x 8.  This draw is
    # unused; it keeps on_x's place in each seed's stream.
    _jitter(rng, script.jitter)
    on_x = 24 + _jitter(rng, script.jitter)
    cup_grid = _flat_depth(15.0)
    supporter = (8, 24, 56, 44)  # row-graded surface
    return _hand_object(
        script, T, t, tc, static=supporter, static_grid=_table_depth(*supporter),
        # after the event On(mover, supporter): horizontally inside,
        # overlapping the top edge
        movers=(((0, 6, 8, 14), cup_grid), ((on_x, 18, on_x + 8, 26), cup_grid)),
        mover_score=0.95, hand_depth=13.0,
        # touch the mover's top rows only; never the supporter's mask
        hand_on=lambda x, y, *_: (x + 1, y - 3, x + 6, y + 2),
        # brief hand contact with the supporter after the release, clear of
        # the mover and of the supporter's deep rows
        touch=(t + 3, t + 8, (44, 26, 48, 30)) if t + 8 <= T - 2 else None,
        park=(56, 2, 62, 8),
        labels=("can-support", "supportable"), rel_after=("Sup", "Supi"),
    )


def _put_into(script, rng, T, t, tc, reverse: bool) -> GeneratedScene:
    bowl = (20, 14, 40, 34)
    far_x = max(0, min(2 + _jitter(rng, script.jitter), bowl[0] - 9))
    # stay over the shallow core
    in_x = max(bowl[0] + 6, min(27 + _jitter(rng, script.jitter), bowl[2] - 12))

    def ball(x: int, y: int) -> tuple[Box, np.ndarray]:
        # depths 16-20 lie in the bowl's concavity band under the default profile
        return (x, y, x + 6, y + 6), _gradient_depth(x, x + 6, 16.0, 20.0)

    return _hand_object(
        script, T, t, tc, static=bowl, static_grid=_bowl_depth(*bowl),
        movers=(ball(far_x, 2), ball(in_x, 21)), mover_score=0.95, hand_depth=17.0,
        hand_on=lambda x, y, *_: (x + 1, y - 2, x + 5, y + 2),
        # brief hand contact with the container's outer rim right at the
        # event, clear of the mover and of the deep annulus
        touch=(t, t + 5, (20, 15, 23, 20)) if t + 5 <= T - 2 else None,
        park=(56, 40, 62, 46),
        labels=("can-contain", "containable"), rel_after=("Cont", "Conti"), reverse=reverse,
    )


def _push_adjacent(script, rng, T, t, tc) -> GeneratedScene:
    far_x = max(0, min(5 + _jitter(rng, script.jitter), 10))

    def block(x: int) -> tuple[Box, np.ndarray]:
        return (x, 20, x + 10, 30), _gradient_depth(x, x + 10, 10.0, 13.0)

    return _hand_object(
        script, T, t, tc, static=(30, 20, 40, 30),
        static_grid=_gradient_depth(30, 40, 12.0, 15.0),
        # after the push the mover overlaps the static box by 2 columns
        movers=(block(far_x), block(22)), mover_score=0.85, hand_depth=11.0,
        hand_on=lambda x, y, *_: (max(0, x - 3), y + 2, x + 2, y + 7),
        # brief hand contact with the static box before the push, placed so
        # the two anchored graphlets differ in exactly one temporal label
        touch=(2, 6, (33, 22, 37, 26)) if tc >= 8 else None,
        park=(56, 2, 62, 8),
        labels=("adjacent-interaction", "adjacent-interaction"), rel_after=("Adj", "Adj"),
    )


def _overlap(a: Box, b: Box) -> bool:
    """Whether two boxes overlap with positive area, as their rectangle masks do."""
    return max(a[0], b[0]) < min(a[2], b[2]) and max(a[1], b[1]) < min(a[3], b[3])


def _hand_object(script, T, t, tc, *, static: Box, static_grid, movers, mover_score: float,
                 hand_depth: float, hand_on, touch: tuple[int, int, Box] | None, park: Box,
                 labels: tuple[str, str], rel_after: tuple[str, str],
                 reverse: bool = False) -> GeneratedScene:
    """The frame loop of the hand-object scripts.

    The mover's box and depth grid are ``movers[active]``, where ``active``
    (from the switch frame on, or before it if ``reverse``) means
    ``rel_after`` holds.  The hand holds the mover at ``hand_on(*box)`` in
    its windows, else rests on the static object in ``touch``'s frame
    window, else parks.
    """
    entities = {
        STATIC: Entity(STATIC, EntityKind.OBJECT),
        MOVER: Entity(MOVER, EntityKind.OBJECT),
        HAND: Entity(HAND, EntityKind.HUMAN_PART),
    }
    windows = _hand_windows(script, T, t, tc)
    hand_grid = _flat_depth(hand_depth)
    ab, ba = rel_after
    key = {(STATIC, MOVER): [], (MOVER, STATIC): [], (MOVER, HAND): [], (STATIC, HAND): []}
    parts: dict = {}
    for f in range(T):
        active = (f >= t) != reverse
        box, grid = movers[active]
        held = any(a <= f <= b for a, b in windows)
        if held:
            hand = hand_on(*box)
        elif touch and touch[0] <= f <= touch[1]:
            hand = touch[2]
        else:
            hand = park
        entities[STATIC].observations.append(_rect_obs(parts, f, *static, 0.9, static_grid))
        entities[MOVER].observations.append(_rect_obs(parts, f, *box, mover_score, grid))
        entities[HAND].observations.append(_rect_obs(parts, f, *hand, 0.99, hand_grid))
        key[(STATIC, MOVER)].append((f, ab if active else "NI"))
        key[(MOVER, STATIC)].append((f, ba if active else "NI"))
        key[(MOVER, HAND)].append((f, "C" if held else "DC"))
        key[(STATIC, HAND)].append((f, "C" if _overlap(hand, static) else "DC"))

    gen = _finish(entities, T)
    gen.labels = {(STATIC, MOVER): [labels[0]], (MOVER, STATIC): [labels[1]]}
    gen.relation_key = key
    return gen


def _occlude(script, rng, T, t) -> GeneratedScene:
    # distant static object; near mover passes across it with a large depth gap
    s_depth = _gradient_depth(24, 40, 30.0, 34.0)
    entities = {
        STATIC: Entity(STATIC, EntityKind.OBJECT),
        MOVER: Entity(MOVER, EntityKind.OBJECT),
    }
    parts: dict = {}
    for f in range(T):
        entities[STATIC].observations.append(
            _rect_obs(parts, f, 24, 14, 40, 30, 0.9, s_depth))
        # sweep left to right across the static box, vertically offset so the
        # mover's box is never x-contained (On fails both ways)
        mx = min(2 + 2 * f, WIDTH - 13)
        md = _gradient_depth(mx, mx + 12, 10.0, 13.0)
        entities[MOVER].observations.append(
            _rect_obs(parts, f, mx, 18, mx + 12, 27, 0.95, md))

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
