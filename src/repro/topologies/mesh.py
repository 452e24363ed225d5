"""2D mesh with XY dimension-order routing.

Implements the paper's stated future work ("compare the performance of
the Quarc against other widely used NoC architectures such as mesh and
torus", Sec. 4).  XY routing is deadlock-free without VCs; the routers
still instantiate two VC lanes so buffering is comparable across
topologies.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.topologies.base import Channel, Topology

__all__ = ["MeshTopology"]


class MeshTopology(Topology):
    """``rows x cols`` mesh; node id = ``row * cols + col``."""

    name = "mesh"

    def __init__(self, n: int, cols: int = 0):
        super().__init__(n)
        if cols <= 0:
            cols = int(math.isqrt(n))
        if n % cols:
            raise ValueError(f"mesh: {n} nodes do not fill {cols} columns")
        self.cols = cols
        self.rows = n // cols

    # -- coordinates ----------------------------------------------------
    def coords(self, node: int) -> Tuple[int, int]:
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        return row * self.cols + col

    # -- structure ------------------------------------------------------
    def channels(self) -> List[Channel]:
        chans = []
        for node in range(self.n):
            r, c = self.coords(node)
            if c + 1 < self.cols:
                chans.append(Channel(node, self.node_at(r, c + 1), "east"))
            if c > 0:
                chans.append(Channel(node, self.node_at(r, c - 1), "west"))
            if r + 1 < self.rows:
                chans.append(Channel(node, self.node_at(r + 1, c), "south"))
            if r > 0:
                chans.append(Channel(node, self.node_at(r - 1, c), "north"))
        return chans

    # -- XY routing -----------------------------------------------------
    def path(self, src: int, dst: int) -> List[int]:
        self.validate_pair(src, dst)
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        nodes = [src]
        r, c = sr, sc
        while c != dc:                       # X first
            c += 1 if dc > c else -1
            nodes.append(self.node_at(r, c))
        while r != dr:                       # then Y
            r += 1 if dr > r else -1
            nodes.append(self.node_at(r, c))
        return nodes

    def hops(self, src: int, dst: int) -> int:
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        return abs(sr - dr) + abs(sc - dc)
