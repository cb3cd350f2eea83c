"""Per-frame qualitative spatial calculi: RCC2, DiSR, and the RCC5(+On) baseline."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .convexity import ConcavityBounds, ConvexityType
from .scene import BoundingBox
from .temporal import Calculus


class Rcc2Relation(str, Enum):
    C = "C"
    DC = "DC"


class DisrRelation(str, Enum):
    SUP = "Sup"
    SUPI = "Supi"
    CONT = "Cont"
    CONTI = "Conti"
    ADJ = "Adj"
    NI = "NI"


class Rcc5OnRelation(str, Enum):
    DR = "DR"
    PO = "PO"
    PP = "PP"
    PPI = "PPi"
    ON = "On"
    ONI = "Oni"


# each object-pair calculus' relation for a pair that does not interact
NON_INTERACTION = {Calculus.DISR: DisrRelation.NI, Calculus.RCC5ON: Rcc5OnRelation.DR}


@dataclass(frozen=True)
class EntityFrameState:
    """One entity's per-frame facts needed by the spatial predicates."""

    bbox: BoundingBox
    depth_range: Optional[tuple[float, float]] = None  # (dmin, dmax)
    concavity_bounds: Optional[ConcavityBounds] = None
    convexity: Optional[ConvexityType] = None


def rcc2(mask_a: Optional[np.ndarray], mask_b: Optional[np.ndarray],
         bbox_a: BoundingBox, bbox_b: BoundingBox) -> Rcc2Relation:
    """C iff the decoded masks (boolean grids of one frame) share a foreground
    pixel, else DC.

    With a mask missing, falls back to an approximate bbox intersection test.
    """
    if mask_a is None or mask_b is None:
        return Rcc2Relation.C if bbox_a.intersection_area(bbox_b) > 0 else Rcc2Relation.DC
    if mask_a.shape != mask_b.shape:
        raise ValueError("masks must share the same grid")
    if (mask_a & mask_b).any():
        return Rcc2Relation.C
    return Rcc2Relation.DC


def overlap_2d(a: BoundingBox, b: BoundingBox) -> bool:
    """True iff the boxes share interior area (boundary contact excluded)."""
    return a.intersection_area(b) > 0


def part_2d(a: BoundingBox, b: BoundingBox) -> bool:
    """True iff a's box lies inside b's box; boundary contact allowed."""
    return (a.xmin >= b.xmin and a.xmax <= b.xmax
            and a.ymin >= b.ymin and a.ymax <= b.ymax)


def dpo(depth_a: Optional[tuple[float, float]],
        depth_b: Optional[tuple[float, float]]) -> bool:
    """Depth-range partial overlap; false (approximate) when depth is missing."""
    if depth_a is None or depth_b is None:
        return False
    amin, amax = depth_a
    bmin, bmax = depth_b
    return ((amax >= bmin and amax < bmax and amin < bmin)
            or (bmax >= amin and bmax < amax and bmin < amin))


def dpp(depth_a: Optional[tuple[float, float]],
        bounds_b: Optional[ConcavityBounds]) -> bool:
    """Depth range of a proper-part-of b's concavity band; false when missing."""
    if depth_a is None or bounds_b is None:
        return False
    amin, amax = depth_a
    return (amax > bounds_b.dc_min and amax <= bounds_b.dc_max
            and amin >= bounds_b.dc_min and amin < bounds_b.dc_max)


def on(a: BoundingBox, b: BoundingBox) -> bool:
    """a rests on top of b in the image plane (y-down convention)."""
    return (overlap_2d(a, b)
            and a.ymin <= b.ymin and a.ymax <= b.ymax
            and a.xmax <= b.xmax and a.xmin >= b.xmin)


def _sup(alpha: EntityFrameState, beta: EntityFrameState) -> bool:
    return ((dpo(alpha.depth_range, beta.depth_range)
             and alpha.convexity is ConvexityType.SURFACE)
            or on(beta.bbox, alpha.bbox))


def _cont(alpha: EntityFrameState, beta: EntityFrameState) -> bool:
    return (part_2d(beta.bbox, alpha.bbox)
            and alpha.convexity is ConvexityType.CONCAVE
            and dpp(beta.depth_range, alpha.concavity_bounds))


def disr(a: EntityFrameState, b: EntityFrameState) -> tuple[DisrRelation, DisrRelation]:
    """Resolve the DiSR relation for (a,b) and its converse for (b,a).

    Raw predicates can co-occur; priority Cont > Conti > Sup > Supi > Adj > NI
    picks a single relation per ordered pair, keeping converses coherent.
    """
    cont_ab = _cont(a, b)
    cont_ba = _cont(b, a)
    sup_ab = _sup(a, b)
    sup_ba = _sup(b, a)
    # mutual containment or mutual support is contradictory; cancel both and
    # fall through to the symmetric relations so converses stay coherent
    if cont_ab and cont_ba:
        cont_ab = cont_ba = False
    if sup_ab and sup_ba:
        sup_ab = sup_ba = False
    adj = (overlap_2d(a.bbox, b.bbox)
           and dpo(a.depth_range, b.depth_range)
           and not cont_ab and not cont_ba and not sup_ab and not sup_ba)
    if cont_ab:
        return DisrRelation.CONT, DisrRelation.CONTI
    if cont_ba:
        return DisrRelation.CONTI, DisrRelation.CONT
    if sup_ab:
        return DisrRelation.SUP, DisrRelation.SUPI
    if sup_ba:
        return DisrRelation.SUPI, DisrRelation.SUP
    if adj:
        return DisrRelation.ADJ, DisrRelation.ADJ
    return DisrRelation.NI, DisrRelation.NI


def rcc5_on(a: BoundingBox, b: BoundingBox) -> Rcc5OnRelation:
    """RCC5 over boxes with the On predicate taking priority when it holds.

    Equal boxes satisfy On, so RCC5's EQ is never the answer and has no member.
    """
    if on(a, b):
        return Rcc5OnRelation.ON
    if on(b, a):
        return Rcc5OnRelation.ONI
    if part_2d(a, b):
        return Rcc5OnRelation.PP
    if part_2d(b, a):
        return Rcc5OnRelation.PPI
    if overlap_2d(a, b):
        return Rcc5OnRelation.PO
    return Rcc5OnRelation.DR
