"""The contour-tree builder that ``convexity.contour_hierarchy`` replaced.

It masks and dilates the full grid once per background and once per
foreground component, settles a hole touched by several components with a
bounding-box containment search, and assembles the tree by mutual recursion.
Kept as an independent oracle for the one-pass builder, with the tests'
``children_of`` walker.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import ndimage

from affgraph.convexity import ContourNode, ContourTree

_STRUCT8 = np.ones((3, 3), dtype=int)
_STRUCT4 = ndimage.generate_binary_structure(2, 1)


def contour_hierarchy_oracle(grid: np.ndarray, noise_ratio: float = 0.0,
                      reference_area: Optional[int] = None) -> ContourTree:
    """Build the contour-inclusion tree of a binary grid.

    Foreground components are 8-connected, holes (enclosed background) are
    4-connected. Contours with area < noise_ratio * reference_area are pruned
    (reference defaults to the grid's foreground pixel count).
    """
    grid = np.asarray(grid, dtype=bool)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    if reference_area is None:
        reference_area = int(grid.sum())
    min_area = noise_ratio * reference_area
    root = ContourNode(id=0, area=int(grid.size), is_hole=False, parent=None)
    nodes = {0: root}
    next_id = 1

    fg_labels, n_fg = ndimage.label(grid, structure=_STRUCT8)
    bg_labels, n_bg = ndimage.label(~grid, structure=_STRUCT4)
    # background components touching the border are outside every contour
    border = np.zeros_like(grid, dtype=bool)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    outside_bg = set(np.unique(bg_labels[border & ~grid]))

    fg_ids = range(1, n_fg + 1)
    dilated = {fid: fg_labels == fid for fid in fg_ids}

    # holes of a fg component: bg components (not outside) whose adjacent fg
    # pixels all belong to that component's boundary, i.e. surrounded by it
    hole_owner: dict[int, int] = {}
    for bid in range(1, n_bg + 1):
        if bid in outside_bg:
            continue
        hole = bg_labels == bid
        ring = ndimage.binary_dilation(hole, structure=_STRUCT4) & ~hole
        owners = set(fg_labels[ring & grid])
        owners.discard(0)
        if len(owners) == 1:
            hole_owner[bid] = owners.pop()
        elif owners:
            # touched by several components: owned by the one enclosing it
            # (pick the component whose bounding box contains the hole)
            for fid in sorted(owners):
                comp = dilated[fid]
                rows = np.flatnonzero(comp.any(axis=1))
                cols = np.flatnonzero(comp.any(axis=0))
                hrows = np.flatnonzero(hole.any(axis=1))
                hcols = np.flatnonzero(hole.any(axis=0))
                if (rows[0] <= hrows[0] and hrows[-1] <= rows[-1]
                        and cols[0] <= hcols[0] and hcols[-1] <= cols[-1]):
                    hole_owner[bid] = fid
                    break
            else:
                hole_owner[bid] = sorted(owners)[0]

    # which hole (if any) encloses each fg component
    comp_parent_hole: dict[int, int] = {}
    for fid in fg_ids:
        comp = dilated[fid]
        ring = ndimage.binary_dilation(comp, structure=_STRUCT4) & ~comp
        adj_bg = set(bg_labels[ring & ~grid])
        adj_bg.discard(0)
        inside = [b for b in adj_bg if b not in outside_bg and hole_owner.get(b) != fid]
        if inside:
            comp_parent_hole[fid] = sorted(inside)[0]

    # assemble tree with pruning (pruned nodes drop their whole subtree)
    fg_node: dict[int, int] = {}
    bg_node: dict[int, int] = {}

    def add_component(fid: int, parent_node: int) -> None:
        nonlocal next_id
        comp = dilated[fid]
        area = int(comp.sum())
        if area < min_area:
            return
        node = ContourNode(id=next_id, area=area, is_hole=False,
                           parent=parent_node)
        nodes[next_id] = node
        nodes[parent_node].children.append(next_id)
        fg_node[fid] = next_id
        next_id += 1
        for bid in sorted(b for b, owner in hole_owner.items() if owner == fid):
            add_hole(bid, node.id)

    def add_hole(bid: int, parent_node: int) -> None:
        nonlocal next_id
        hole = bg_labels == bid
        area = int(hole.sum())
        if area < min_area:
            return
        node = ContourNode(id=next_id, area=area, is_hole=True,
                           parent=parent_node)
        nodes[next_id] = node
        nodes[parent_node].children.append(next_id)
        bg_node[bid] = next_id
        next_id += 1
        for fid in sorted(f for f, h in comp_parent_hole.items() if h == bid):
            add_component(fid, node.id)

    for fid in sorted(f for f in fg_ids if f not in comp_parent_hole):
        add_component(fid, 0)
    return ContourTree(nodes=nodes)


def children_of(tree: ContourTree, node_id: int) -> list[ContourNode]:
    """The nodes of ``node_id``'s children, in order."""
    return [tree.nodes[c] for c in tree.nodes[node_id].children]
