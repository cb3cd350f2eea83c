"""Convexity typing from depth distributions and the holes of depth contours."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np


class ConvexityType(str, Enum):
    CONCAVE = "concave"
    SURFACE = "surface"
    CONVEX = "convex"


@dataclass(frozen=True)
class ConcavityBounds:
    dc_min: float
    dc_max: float


# The most pixels labelled at once, as many as the largest frame a scene may
# hold: a stack any larger is halved, so typing a long track of large frames
# needs no more memory than one such frame (18-76 bytes a pixel, measured on
# solid and on random 2048 x 2048 grids).
MAX_STACK_PIXELS = 2**23


def label_components(grid: np.ndarray) -> tuple[np.ndarray, int, np.ndarray, int]:
    """Label a binary grid's 8-connected foreground and 4-connected background.

    Returns ``(fg_labels, n_fg, bg_labels, n_bg)``: each int32 label grid is
    0 off its own pixels and numbers its components 1.. in raster order of
    their first pixel.

    Rows split into runs of equal value (Rosenfeld & Pfaltz, JACM 1966); a run
    joins the same-valued runs it touches in the row above, diagonally too for
    foreground, by hook-and-shortcut rounds (Shiloach & Vishkin, 1982).
    """
    h, w = grid.shape
    flat = grid.ravel()
    bound = np.ones(h * w + 1, dtype=bool)  # runs start at each row and value change
    np.not_equal(flat[1:], flat[:-1], out=bound[1:-1])
    bound[::w] = True
    starts = np.flatnonzero(bound)  # the last is the grid's end
    lengths = starts[1:] - starts[:-1]
    starts = starts[:-1]
    fg = flat[starts]

    # each run's span in the row above, one column wider each side for
    # foreground; the runs covering it are a contiguous index range
    row_start = starts - starts % w
    first = np.maximum(starts - fg, row_start) - w
    last = np.minimum(starts + lengths - 1 + fg, row_start + w - 1) - w
    below = np.flatnonzero(starts >= w)
    lo = np.searchsorted(starts, first[below], side="right") - 1
    hi = np.searchsorted(starts, last[below], side="right") - 1
    counts = hi - lo + 1
    b = np.repeat(below, counts)  # each pair (a, b): run a in the range above run b
    a = np.arange(b.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    same = fg[a] == fg[b]
    a, b = a[same], b[same]

    # a hook points the larger root of each edge between two trees at the
    # smaller, and pointer jumping makes every parent a root again; so a root
    # ends as its component's first run in raster order
    parent = np.arange(starts.size)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent = up

    root = parent == np.arange(starts.size)
    fg_ids = np.cumsum(root & fg, dtype=np.int32)
    bg_ids = np.cumsum(root & ~fg, dtype=np.int32)
    fg_labels = np.repeat(np.where(fg, fg_ids[parent], 0), lengths).reshape(h, w)
    bg_labels = np.repeat(np.where(fg, 0, bg_ids[parent]), lengths).reshape(h, w)
    return fg_labels, int(fg_ids[-1]), bg_labels, int(bg_ids[-1])


def surviving_hole_counts(grids: Sequence[np.ndarray], noise_ratio: float = 0.0,
                          reference_areas: Optional[Sequence[int]] = None) -> np.ndarray:
    """Count each binary grid's holes that survive noise pruning.

    Foreground components are 8-connected, holes (enclosed background) are
    4-connected. Contours nest inside the frame: a component in a hole, a
    hole in the component that encloses it. In grid i, a contour with area <
    noise_ratio * reference_areas[i] is pruned with every contour inside it
    (each reference defaults to its grid's foreground pixel count).

    The grids are labelled once, stacked top to bottom with one background
    row between them and padded with background on the right: no 8-connected
    foreground and no enclosed background crosses a separator row, and each
    grid's edge background reaches the stack's border through it.
    """
    grids = [np.asarray(grid, dtype=bool) for grid in grids]
    if any(grid.size == 0 for grid in grids):
        raise ValueError("grid must be non-empty")
    if reference_areas is None:
        reference_areas = [int(grid.sum()) for grid in grids]
    return _stacked_hole_counts(grids, noise_ratio * np.asarray(reference_areas, dtype=float))


def _stacked_hole_counts(grids: list[np.ndarray], min_area: np.ndarray) -> np.ndarray:
    """``surviving_hole_counts`` with each grid's least contour area given."""
    if not grids:
        return np.zeros(0, dtype=int)
    tops = np.cumsum([0] + [grid.shape[0] + 1 for grid in grids])  # each grid's first row
    shape = (tops[-1] - 1, max(grid.shape[1] for grid in grids))
    if len(grids) > 1 and shape[0] * shape[1] > MAX_STACK_PIXELS:
        half = len(grids) // 2
        return np.concatenate((_stacked_hole_counts(grids[:half], min_area[:half]),
                               _stacked_hole_counts(grids[half:], min_area[half:])))
    stack = np.zeros(shape, dtype=bool)
    for grid, top in zip(grids, tops):
        stack[top:top + grid.shape[0], :grid.shape[1]] = grid

    fg_labels, n_fg, bg_labels, n_bg = label_components(stack)
    # (component, background) label pairs that are 4-neighbours: each label
    # grid is 0 off its own pixels, so across a foreground/background edge the
    # sum of the two ends is the label of the end of that kind
    comp, hole = [], []
    for a, b in ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :])):
        edge = stack[a] != stack[b]
        comp.append((fg_labels[a] + fg_labels[b])[edge])
        hole.append((bg_labels[a] + bg_labels[b])[edge])
    comp, hole = np.concatenate(comp), np.concatenate(hole)

    # Rosenfeld (JACM 1970): one component encloses each hole and touches it;
    # it is the lowest label among those touching it, since its first pixel
    # in raster order precedes the hole's and any island's inside the hole
    owner = np.full(n_bg + 1, n_fg + 1)
    np.minimum.at(owner, hole, comp)
    border = np.concatenate((bg_labels[0], bg_labels[-1], bg_labels[:, 0], bg_labels[:, -1]))
    owner[border] = owner[0] = 0  # no hole: border background and label 0
    # a component's parent hole: the lowest enclosed hole it touches but does not own
    island = (owner[hole] != 0) & (owner[hole] != comp)
    parent = np.full(n_fg + 1, n_bg + 1)
    np.minimum.at(parent, comp[island], hole[island])
    parent[parent > n_bg] = 0  # in no hole: inside the frame

    # labels number components in raster order of their first pixel, and
    # every contour lies in its own grid's rows: so grid i's labels run from
    # the highest label met before its rows to the highest met by its last row
    last_rows = tops[1:] - 2
    fg_grid = np.searchsorted(np.maximum.accumulate(fg_labels.max(axis=1))[last_rows],
                              np.arange(n_fg + 1))
    bg_grid = np.searchsorted(np.maximum.accumulate(bg_labels.max(axis=1))[last_rows],
                              np.arange(n_bg + 1))

    # label 0 stands for the frame on both sides: owner 0 and parent 0 point
    # at it, and it is live; each round settles one more level of nesting in
    # every grid at once
    big_comp = np.bincount(fg_labels.ravel(), minlength=n_fg + 1) >= min_area[fg_grid]
    big_hole = np.bincount(bg_labels.ravel(), minlength=n_bg + 1) >= min_area[bg_grid]
    big_comp[0] = big_hole[0] = True
    live_comp = big_comp
    while True:
        live_hole = big_hole & live_comp[owner]
        settled = big_comp & live_hole[parent]
        if (settled == live_comp).all():
            return np.bincount(bg_grid[live_hole & (owner != 0)], minlength=len(grids))
        live_comp = settled


def surviving_holes(grid: np.ndarray, noise_ratio: float = 0.0,
                    reference_area: Optional[int] = None) -> int:
    """``surviving_hole_counts`` of the one grid."""
    return int(surviving_hole_counts(
        [grid], noise_ratio, None if reference_area is None else [reference_area])[0])


def deep_region(depth_grid: np.ndarray, owned: np.ndarray, thresh_convex: float) -> np.ndarray:
    """Pixels whose depth exceeds the object's dmin by more than thresh_convex.

    ``owned`` marks pixels belonging to the object; others are background.
    The dmin offset keeps the region invariant under constant depth shifts.
    """
    owned = np.asarray(owned, dtype=bool)
    depths = depth_grid[owned]
    if not depths.size:
        return np.zeros_like(owned)
    return owned & (depth_grid > float(depths.min()) + thresh_convex)


def _shape_type(drange: float, has_hole: bool, thresh_convex: float,
                alg1_literal: bool) -> ConvexityType:
    if alg1_literal:
        if drange < thresh_convex and has_hole:
            return ConvexityType.CONCAVE
        if drange < thresh_convex:
            return ConvexityType.SURFACE
        return ConvexityType.CONVEX
    if drange > thresh_convex and has_hole:
        return ConvexityType.CONCAVE
    if drange > thresh_convex:
        return ConvexityType.SURFACE
    return ConvexityType.CONVEX


def object_convexity(
    depth_values: np.ndarray,
    deep: np.ndarray,
    thresh_convex: float,
    noise_ratio: float = 0.01,
    object_pixel_count: Optional[int] = None,
    alg1_literal: bool = False,
) -> ConvexityType:
    """Classify one object at one frame as concave / surface / convex.

    Default semantics: depth range > thresh_convex with a surviving hole in
    the deep region (``surviving_holes``) means concave, without one surface;
    otherwise convex. ``alg1_literal`` flips the range inequality so a
    small-range object with a hole is classified concave instead.
    """
    depth_values = np.asarray(depth_values, dtype=float)
    if depth_values.size == 0:
        raise ValueError("depth_values must be non-empty")
    drange = float(depth_values.max() - depth_values.min())
    if object_pixel_count is None:
        object_pixel_count = int(depth_values.size)
    has_hole = np.asarray(deep).any() and surviving_holes(
        deep, noise_ratio=noise_ratio, reference_area=object_pixel_count) > 0
    return _shape_type(drange, has_hole, thresh_convex, alg1_literal)


def convexity_depth(
    dmin: float, dmax: float, convexity: ConvexityType, h: int, n: int
) -> ConcavityBounds:
    """Depth band of a concave object's indentation, from the object's depth
    range [dmin, dmax].

    Concave objects take the n deepest of h equal sections of their depth
    range; other types span the full range.
    """
    if not (1 <= n < h):
        raise ValueError(f"require 1 <= n < h, got n={n}, h={h}")
    if convexity is ConvexityType.CONCAVE:
        sections = (dmax - dmin) / h
        return ConcavityBounds(dc_min=dmax - n * sections, dc_max=dmax)
    return ConcavityBounds(dc_min=dmin, dc_max=dmax)


class FrameDepth(NamedTuple):
    """What shape typing reads of one object at one frame: the least and
    greatest of its owned depths, its owned pixel count inside its box, and
    its deep region there (``deep_region``)."""

    dmin: float
    dmax: float
    owned: int
    deep: np.ndarray


_PRIORITY = {ConvexityType.CONCAVE: 0, ConvexityType.SURFACE: 1, ConvexityType.CONVEX: 2}


def track_convexity(frames: Sequence[FrameDepth], thresh_convex: float,
                    noise_ratio: float = 0.01, alg1_literal: bool = False) -> ConvexityType:
    """One type for a track: each frame typed as ``object_convexity`` types it
    from the same facts, then a majority vote; ties favor concave > surface >
    convex.

    The holes of every frame with a deep pixel are counted in one
    ``surviving_hole_counts`` call, each frame against its own owned count.
    """
    if not frames:
        raise ValueError("frames must be non-empty")
    deep = [i for i, frame in enumerate(frames) if frame.deep.any()]
    has_hole = np.zeros(len(frames), dtype=bool)
    has_hole[deep] = surviving_hole_counts(
        [frames[i].deep for i in deep], noise_ratio, [frames[i].owned for i in deep]) > 0
    counts = Counter(_shape_type(frame.dmax - frame.dmin, hole, thresh_convex, alg1_literal)
                     for frame, hole in zip(frames, has_hole.tolist()))
    return max(counts, key=lambda t: (counts[t], -_PRIORITY[t]))
