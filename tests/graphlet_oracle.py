"""Recursive reference for the canonical-form search.

``canonical_form`` runs the individualization-refinement search as a recursive
closure whose state lives in the ``best`` and ``leaves`` lists, checking the
leaf budget on every call. ``affgraph.graphlet.canonical_form`` visits the
same leaves in the same order as one non-recursive stream;
``tests/test_graphlet.py`` compares the two under budgets that cut the search.
"""

from __future__ import annotations

from affgraph.graphlet import AGraphlet, _refine, _serialize


def canonical_form(g: AGraphlet, max_leaves: int) -> str:
    """The smallest serialization among the first ``max_leaves`` leaves."""
    n = g.vertex_count()
    if n == 0:
        return "V[]E[]"
    adj = g.neighbors()
    labels = [f"{lay}|{lbl}" for lay, lbl in zip(g.vertex_layers, g.vertex_labels)]
    base = {lbl: i for i, lbl in enumerate(sorted(set(labels)))}
    init = [base[lbl] for lbl in labels]

    best: list[str] = []
    leaves = [0]

    def search(colors: list[int]) -> None:
        if leaves[0] >= max_leaves:
            return
        colors = _refine(adj, colors)
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            groups.setdefault(c, []).append(v)
        tied = sorted((c for c, vs in groups.items() if len(vs) > 1))
        if not tied:
            order = sorted(range(n), key=lambda v: colors[v])
            s = _serialize(order, g.vertex_layers, g.vertex_labels, g.edges)
            leaves[0] += 1
            if not best or s < best[0]:
                best[:] = [s]
            return
        target = groups[tied[0]]
        for v in target:
            branched = list(colors)
            branched[v] = n + 1  # individualize
            search(branched)

    search(init)  # the first descent always reaches a leaf within the budget
    return best[0]
