"""Frame-by-frame reference for episode segmentation.

``extract_episodes`` writes one token for every frame, bridged gaps included,
and ``_absorb_flicker`` re-encodes a segment's runs after each absorbed
flicker. ``affgraph.temporal.extract_episodes`` reaches the same episodes in
one pass over runs; ``tests/test_temporal.py`` compares the two.
"""

from __future__ import annotations

from affgraph.temporal import Calculus, Episode, Interval


def _absorb_flicker(tokens: list[str], smoothing: int) -> list[str]:
    """Absorb runs of at most ``smoothing`` frames sandwiched between two runs
    of the same token, repeating until stable."""
    if smoothing <= 0:
        return tokens
    changed = True
    while changed:
        changed = False
        runs: list[tuple[str, int]] = []
        for tok in tokens:
            if runs and runs[-1][0] == tok:
                runs[-1] = (tok, runs[-1][1] + 1)
            else:
                runs.append((tok, 1))
        for i in range(1, len(runs) - 1):
            tok, length = runs[i]
            if length <= smoothing and runs[i - 1][0] == runs[i + 1][0]:
                runs[i] = (runs[i - 1][0], length)
                changed = True
                break
        tokens = [tok for tok, length in runs for _ in range(length)]
    return tokens


def extract_episodes(
    relations: list[tuple[int, str]],
    pair: tuple[str, str],
    calculus: Calculus,
    smoothing: int = 0,
    gap_bridge: int = 0,
) -> list[Episode]:
    """Segment per-frame relation tokens into maximal episodes.

    Gaps of at most ``gap_bridge`` missing frames inherit the preceding token;
    longer gaps terminate episodes. Short flickers (length <= smoothing)
    between identical runs are absorbed before segmentation.
    """
    if not relations:
        return []
    frames = [f for f, _ in relations]
    if any(b <= a for a, b in zip(frames, frames[1:])):
        raise ValueError("relation frames must be strictly ascending")

    # split into contiguous segments, bridging short gaps
    segments: list[list[tuple[int, str]]] = [[relations[0]]]
    for (prev_f, prev_tok), (f, tok) in zip(relations, relations[1:]):
        gap = f - prev_f - 1
        if gap > gap_bridge:
            segments.append([(f, tok)])
        else:
            seg = segments[-1]
            for missing in range(prev_f + 1, f):
                seg.append((missing, prev_tok))
            seg.append((f, tok))

    episodes: list[Episode] = []
    for seg in segments:
        toks = _absorb_flicker([tok for _, tok in seg], smoothing)
        start_idx = 0
        for i in range(1, len(toks) + 1):
            if i == len(toks) or toks[i] != toks[start_idx]:
                episodes.append(Episode(
                    pair=pair, calculus=calculus, relation=toks[start_idx],
                    interval=Interval(seg[start_idx][0], seg[i - 1][0]),
                ))
                start_idx = i
    return episodes
