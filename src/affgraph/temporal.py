"""Episode segmentation and Allen interval relations over discrete frames."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class Interval:
    """Inclusive frame interval."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} > end {self.end}")


class Calculus(str, Enum):
    DISR = "DiSR"
    RCC2 = "RCC2"
    RCC5ON = "RCC5On"


@dataclass(frozen=True)
class Episode:
    pair: tuple[str, str]
    calculus: Calculus
    relation: str
    interval: Interval


class AllenRelation(str, Enum):
    BEFORE = "<"
    AFTER = ">"
    MEETS = "m"
    MET_BY = "mi"
    OVERLAPS = "o"
    OVERLAPPED_BY = "oi"
    STARTS = "s"
    STARTED_BY = "si"
    DURING = "d"
    CONTAINS = "di"
    FINISHES = "f"
    FINISHED_BY = "fi"
    EQUALS = "="


def allen(a: Interval, b: Interval) -> AllenRelation:
    """Unique Allen relation under discrete inclusive-interval semantics.

    Frames are atomic samples: meets means b starts on the frame right after
    a ends, with no shared frame. This keeps the 13 relations JEPD.
    """
    if a.start == b.start and a.end == b.end:
        return AllenRelation.EQUALS
    if a.end + 1 < b.start:
        return AllenRelation.BEFORE
    if b.end + 1 < a.start:
        return AllenRelation.AFTER
    if a.end + 1 == b.start:
        return AllenRelation.MEETS
    if b.end + 1 == a.start:
        return AllenRelation.MET_BY
    if a.start == b.start:
        return AllenRelation.STARTS if a.end < b.end else AllenRelation.STARTED_BY
    if a.end == b.end:
        return AllenRelation.FINISHES if a.start > b.start else AllenRelation.FINISHED_BY
    if b.start < a.start and a.end < b.end:
        return AllenRelation.DURING
    if a.start < b.start and b.end < a.end:
        return AllenRelation.CONTAINS
    if a.start < b.start:
        return AllenRelation.OVERLAPS
    return AllenRelation.OVERLAPPED_BY


def extract_episodes(
    relations: list[tuple[int, str]],
    pair: tuple[str, str],
    calculus: Calculus,
    smoothing: int = 0,
    gap_bridge: int = 0,
) -> list[Episode]:
    """Segment per-frame relation tokens into maximal episodes.

    Gaps of at most ``gap_bridge`` missing frames inherit the preceding token;
    longer gaps terminate episodes. A run of at most ``smoothing`` frames
    between two runs of one token in the same segment is absorbed into them,
    leftmost first. One pass over the relations keeps only the runs, so time
    and memory grow with the observed frames, not with the bridged ones.
    """
    runs: list[list] = []  # [token, first frame, last frame]
    seg = 0  # index of the current segment's first run
    for f, tok in relations:
        if runs and f <= runs[-1][2]:
            raise ValueError("relation frames must be strictly ascending")
        if runs and f - runs[-1][2] - 1 <= gap_bridge:
            last = runs[-1]
            if tok != last[0]:
                last[2] = f - 1  # the bridged gap extends the completed run
                if len(runs) - seg > 1 and runs[-2][0] == tok and last[2] - last[1] < smoothing:
                    runs.pop()  # a flicker: the runs on both sides and it become one
            if runs[-1][0] == tok:
                runs[-1][2] = f
                continue
        else:
            seg = len(runs)
        runs.append([tok, f, f])
    return [Episode(pair=pair, calculus=calculus, relation=tok, interval=Interval(a, b))
            for tok, a, b in runs]
