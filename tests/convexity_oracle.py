"""Contour-inclusion trees, the reference for ``convexity.surviving_holes``.

``contour_hierarchy`` is the one-pass tree builder the product used before it
only counted surviving holes: it shares ``label_components`` and the
owner/parent rule, and assembles the tree by a depth-first walk.
``contour_hierarchy_oracle`` is the older builder it replaced: it masks and
dilates the full grid once per background and once per foreground component,
settles a hole touched by several components with a bounding-box containment
search, and assembles the tree by mutual recursion. Each tree's
``hole_count()`` is the number of holes that survive pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import ndimage

from affgraph.convexity import label_components


@dataclass
class ContourNode:
    """Node of the contour-inclusion tree.

    The root represents the image frame; its children are foreground
    components, whose children are the holes they enclose, and so on for
    components nested inside holes.
    """

    id: int
    area: int
    is_hole: bool
    parent: Optional[int]
    children: list[int] = field(default_factory=list)


@dataclass
class ContourTree:
    nodes: dict[int, ContourNode]

    def hole_count(self) -> int:
        return sum(1 for n in self.nodes.values() if n.is_hole)


def contour_hierarchy(grid: np.ndarray, noise_ratio: float = 0.0,
                      reference_area: Optional[int] = None) -> ContourTree:
    """Build the contour-inclusion tree of a binary grid.

    Foreground components are 8-connected, holes (enclosed background) are
    4-connected. Contours with area < noise_ratio * reference_area are pruned
    with their subtree (reference defaults to the grid's foreground pixel
    count). Node ids follow a depth-first walk that visits children in label
    order, the holes of a component and the components inside a hole alike.
    """
    grid = np.asarray(grid, dtype=bool)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    if reference_area is None:
        reference_area = int(grid.sum())
    min_area = noise_ratio * reference_area

    fg_labels, n_fg, bg_labels, n_bg = label_components(grid)
    comp, hole = [], []
    for a, b in ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :])):
        edge = grid[a] != grid[b]
        comp.append((fg_labels[a] + fg_labels[b])[edge])
        hole.append((bg_labels[a] + bg_labels[b])[edge])
    comp, hole = np.concatenate(comp), np.concatenate(hole)

    owner = np.full(n_bg + 1, n_fg + 1)
    np.minimum.at(owner, hole, comp)
    border = np.concatenate((bg_labels[0], bg_labels[-1], bg_labels[:, 0], bg_labels[:, -1]))
    owner[border] = owner[0] = 0
    island = (owner[hole] != 0) & (owner[hole] != comp)
    parent = np.full(n_fg + 1, n_bg + 1)
    np.minimum.at(parent, comp[island], hole[island])
    parent[parent > n_bg] = 0

    holes_of: list[list[int]] = [[] for _ in range(n_fg + 1)]
    for b in np.flatnonzero(owner).tolist():
        holes_of[owner[b]].append(b)
    comps_in: list[list[int]] = [[] for _ in range(n_bg + 1)]  # [0]: the frame's
    for f in range(1, n_fg + 1):
        comps_in[parent[f]].append(f)
    areas = (np.bincount(fg_labels.ravel(), minlength=n_fg + 1),
             np.bincount(bg_labels.ravel(), minlength=n_bg + 1))

    nodes = {0: ContourNode(id=0, area=int(grid.size), is_hole=False, parent=None)}
    stack = [(False, f, 0) for f in reversed(comps_in[0])]
    while stack:
        is_hole, label, parent_id = stack.pop()
        area = int(areas[is_hole][label])
        if area < min_area:
            continue
        node = ContourNode(id=len(nodes), area=area, is_hole=is_hole, parent=parent_id)
        nodes[node.id] = node
        nodes[parent_id].children.append(node.id)
        kids = comps_in[label] if is_hole else holes_of[label]
        stack.extend((not is_hole, k, node.id) for k in reversed(kids))
    return ContourTree(nodes=nodes)


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
