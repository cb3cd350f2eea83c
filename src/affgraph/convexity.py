"""Convexity typing from depth distributions and the holes of depth contours."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np


class ConvexityType(str, Enum):
    CONCAVE = "concave"
    SURFACE = "surface"
    CONVEX = "convex"


@dataclass(frozen=True)
class ConcavityBounds:
    dc_min: float
    dc_max: float


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


def surviving_holes(grid: np.ndarray, noise_ratio: float = 0.0,
                    reference_area: Optional[int] = None) -> int:
    """Count the holes of a binary grid that survive noise pruning.

    Foreground components are 8-connected, holes (enclosed background) are
    4-connected. Contours nest inside the frame: a component in a hole, a
    hole in the component that encloses it. A contour with area <
    noise_ratio * reference_area is pruned with every contour inside it
    (reference defaults to the grid's foreground pixel count).
    """
    grid = np.asarray(grid, dtype=bool)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    if reference_area is None:
        reference_area = int(grid.sum())
    min_area = noise_ratio * reference_area

    fg_labels, n_fg, bg_labels, n_bg = label_components(grid)
    # (component, background) label pairs that are 4-neighbours: each label
    # grid is 0 off its own pixels, so across a foreground/background edge the
    # sum of the two ends is the label of the end of that kind
    comp, hole = [], []
    for a, b in ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :])):
        edge = grid[a] != grid[b]
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

    # label 0 stands for the frame on both sides: owner 0 and parent 0 point
    # at it, and it is live; each round settles one more level of nesting
    big_comp = np.bincount(fg_labels.ravel(), minlength=n_fg + 1) >= min_area
    big_hole = np.bincount(bg_labels.ravel(), minlength=n_bg + 1) >= min_area
    big_comp[0] = big_hole[0] = True
    live_comp = big_comp
    while True:
        live_hole = big_hole & live_comp[owner]
        settled = big_comp & live_hole[parent]
        if (settled == live_comp).all():
            return int(np.count_nonzero(live_hole[owner != 0]))
        live_comp = settled


def deep_region(depth_grid: np.ndarray, owned: np.ndarray, thresh_convex: float) -> np.ndarray:
    """Pixels whose depth exceeds the object's dmin by more than thresh_convex.

    ``owned`` marks pixels belonging to the object; others are background.
    The dmin offset keeps the region invariant under constant depth shifts.
    """
    owned = np.asarray(owned, dtype=bool)
    if not owned.any():
        return np.zeros_like(owned)
    dmin = float(depth_grid[owned].min())
    return owned & (depth_grid > dmin + thresh_convex)


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


def convexity_depth(
    depth_values: np.ndarray, convexity: ConvexityType, h: int, n: int
) -> ConcavityBounds:
    """Depth band of a concave object's indentation.

    Concave objects take the n deepest of h equal sections of their depth
    range; other types span the full range.
    """
    depth_values = np.asarray(depth_values, dtype=float)
    if depth_values.size == 0:
        raise ValueError("depth_values must be non-empty")
    if not (1 <= n < h):
        raise ValueError(f"require 1 <= n < h, got n={n}, h={h}")
    dmin = float(depth_values.min())
    dmax = float(depth_values.max())
    if convexity is ConvexityType.CONCAVE:
        sections = (dmax - dmin) / h
        return ConcavityBounds(dc_min=dmax - n * sections, dc_max=dmax)
    return ConcavityBounds(dc_min=dmin, dc_max=dmax)


def track_convexity(per_frame_types: list[ConvexityType]) -> ConvexityType:
    """Majority vote over per-frame types; ties favor concave > surface > convex."""
    if not per_frame_types:
        raise ValueError("per_frame_types must be non-empty")
    counts = Counter(per_frame_types)
    priority = {ConvexityType.CONCAVE: 0, ConvexityType.SURFACE: 1, ConvexityType.CONVEX: 2}
    return max(counts, key=lambda t: (counts[t], -priority[t]))
