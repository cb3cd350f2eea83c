"""Three-layer interaction graphlets and their canonical serialization."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Iterator, Optional

from .qsr import NON_INTERACTION
from .temporal import Calculus, Episode, allen

ENTITY = "entity"
SPATIAL = "spatial"
TEMPORAL = "temporal"
TEMPORAL_CAP = 256  # temporal vertices per graphlet at most, closest episode pairs first

ROLE_ANCHOR = "anchor"
ROLE_PARTNER = "partner"
ROLE_HUMAN = "human"


@dataclass
class AGraphlet:
    """Labeled graph over entity / spatial / temporal vertex layers.

    Entity vertices carry role labels only; spatial vertices one episode
    relation each; temporal vertices an Allen relation between two episodes.
    Edges join adjacent layers only.
    """

    anchor: str
    partner_object: str
    human_part: Optional[str]
    scene_id: str
    vertex_layers: list[str] = field(default_factory=list)
    vertex_labels: list[str] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    episode_ids: list[str] = field(default_factory=list)

    @property
    def id(self) -> str:
        return f"{self.scene_id}/{self.anchor}/{self.partner_object}"

    def vertex_count(self) -> int:
        return len(self.vertex_labels)

    def add_vertex(self, layer: str, label: str) -> int:
        self.vertex_layers.append(layer)
        self.vertex_labels.append(label)
        return len(self.vertex_labels) - 1

    def add_edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def neighbors(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.vertex_labels]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def _episode_sort_key(ep: Episode) -> tuple:
    return (ep.interval.start, ep.calculus.value, ep.relation, ep.interval.end)


def _pair_gap(a: Episode, b: Episode) -> int:
    """Temporal distance between episode intervals (negative when overlapping)."""
    return max(a.interval.start, b.interval.start) - min(a.interval.end, b.interval.end)


def build_agraphlets(scene_id: str, episodes: list[Episode]) -> list[AGraphlet]:
    """One graphlet per ordered object pair with an interacting episode, one
    whose relation is not its calculus' ``NON_INTERACTION`` token.

    Each graphlet combines the pair's object episodes with the anchor's RCC2
    episodes against its designated human part (the part with the most
    connected frames), plus Allen temporal vertices for episode pairs up to
    ``TEMPORAL_CAP``, closest in time first.
    """
    disr_by_pair: dict[tuple[str, str], list[Episode]] = {}
    rcc2_by_pair: dict[tuple[str, str], list[Episode]] = {}
    for ep in episodes:  # DiSR or the RCC5(+On) baseline calculus, or RCC2
        by_pair = rcc2_by_pair if ep.calculus is Calculus.RCC2 else disr_by_pair
        by_pair.setdefault(ep.pair, []).append(ep)

    graphlets: list[AGraphlet] = []
    for (anchor, partner), disr_eps in sorted(disr_by_pair.items()):
        if all(ep.relation == NON_INTERACTION[ep.calculus] for ep in disr_eps):
            continue
        # the human part with the most C frames against the anchor, first on ties
        parts = sorted(part for a, part in rcc2_by_pair if a == anchor)
        human = max(parts, default=None, key=lambda part: sum(
            ep.interval.end - ep.interval.start + 1
            for ep in rcc2_by_pair[(anchor, part)] if ep.relation == "C"))
        g = AGraphlet(anchor=anchor, partner_object=partner, human_part=human,
                      scene_id=scene_id)
        v_anchor = g.add_vertex(ENTITY, ROLE_ANCHOR)
        v_partner = g.add_vertex(ENTITY, ROLE_PARTNER)
        spatial = [(ep, v_partner) for ep in sorted(disr_eps, key=_episode_sort_key)]
        if human is not None:
            v_human = g.add_vertex(ENTITY, ROLE_HUMAN)
            spatial += [(ep, v_human) for ep in
                        sorted(rcc2_by_pair[(anchor, human)], key=_episode_sort_key)]

        included: list[tuple[Episode, int]] = []
        for ep, other in spatial:
            v = g.add_vertex(SPATIAL, f"{ep.calculus.value}:{ep.relation}")
            g.add_edge(v_anchor, v)
            g.add_edge(other, v)
            g.episode_ids.append(_episode_id(ep))
            included.append((ep, v))

        # closest in time first, index order among equal gaps
        near = heapq.nsmallest(TEMPORAL_CAP, combinations(included, 2),
                               key=lambda p: _pair_gap(p[0][0], p[1][0]))
        for pair in near:
            # canonical direction: earlier-starting episode first
            (ep_i, v_i), (ep_j, v_j) = sorted(pair, key=lambda iv: _episode_sort_key(iv[0]))
            v = g.add_vertex(TEMPORAL, allen(ep_i.interval, ep_j.interval).value)
            g.add_edge(v_i, v)
            g.add_edge(v_j, v)
        graphlets.append(g)
    return graphlets


def _episode_id(ep: Episode) -> str:
    return (f"{ep.calculus.value}:{ep.pair[0]}:{ep.pair[1]}:"
            f"{ep.relation}:{ep.interval.start}-{ep.interval.end}")


# ---------------------------------------------------------------------------
# Canonical serialization


def _refine(adj: list[set[int]], colors: list[int]) -> list[int]:
    """Iterate color refinement until the partition stabilizes."""
    n = len(colors)
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [palette[sig] for sig in signatures]
        if len(set(new_colors)) == len(set(colors)):
            return new_colors
        colors = new_colors


def _serialize(order: list[int], layers: list[str], labels: list[str],
               edges: list[tuple[int, int]]) -> str:
    pos = {v: i for i, v in enumerate(order)}
    vparts = [f"{layers[v]}|{labels[v]}" for v in order]
    eparts = sorted(
        f"{min(pos[u], pos[v])}-{max(pos[u], pos[v])}" for u, v in edges
    )
    return "V[" + ";".join(vparts) + "]E[" + ";".join(eparts) + "]"


_MAX_LEAVES = 10_000


def _leaves(g: AGraphlet, colors: list[int]) -> Iterator[str]:
    """Yield the serialization of each leaf of the individualization-refinement
    search tree, depth first: at each node the lowest tied color is split by
    individualizing its vertices, in index order, to color ``n + 1``."""
    n = g.vertex_count()
    adj = g.neighbors()
    stack = []  # (refined colors, remaining vertices of the lowest tied color)
    while True:
        colors = _refine(adj, colors)
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            groups.setdefault(c, []).append(v)
        tied = [c for c, vs in groups.items() if len(vs) > 1]
        if tied:
            stack.append((colors, iter(groups[min(tied)])))
        else:
            order = sorted(range(n), key=lambda v: colors[v])
            yield _serialize(order, g.vertex_layers, g.vertex_labels, g.edges)
        # back up to the deepest node with a branch left
        while stack and (v := next(stack[-1][1], None)) is None:
            stack.pop()
        if not stack:
            return
        colors = list(stack[-1][0])
        colors[v] = n + 1  # individualize


def canonical_form(g: AGraphlet) -> str:
    """Deterministic serialization invariant under vertex-id permutation.

    Color refinement orders most vertices; remaining ties are resolved by
    branching on each candidate and keeping the lexicographically smallest
    serialization among the first ``_MAX_LEAVES`` leaves of the search.
    """
    labels = [f"{lay}|{lbl}" for lay, lbl in zip(g.vertex_layers, g.vertex_labels)]
    base = {lbl: i for i, lbl in enumerate(sorted(set(labels)))}
    return min(islice(_leaves(g, [base[lbl] for lbl in labels]), _MAX_LEAVES))


def parse_canonical(form: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Decode a canonical form back into vertex labels and an edge list.

    Labels come back as "layer|label" strings in canonical vertex order.  A
    malformed form, or an edge to a vertex it does not list, raises ValueError.
    """
    if not (form.startswith("V[") and "]E[" in form and form.endswith("]")):
        raise ValueError(f"malformed canonical form: {form[:40]!r}")
    vpart, epart = form[2:-1].split("]E[", 1)
    labels = vpart.split(";") if vpart else []
    edges = []
    if epart:
        for token in epart.split(";"):
            u, v = token.split("-")
            edges.append((int(u), int(v)))
            if max(edges[-1]) >= len(labels):
                raise ValueError(f"edge {token} names a vertex the form does not list")
    return labels, edges
