"""2D torus with dimension-order routing and per-dimension datelines.

Like the mesh, this exists for the paper's future-work comparison.  Each
dimension is a ring, so shortest-direction routing needs the same 2-VC
dateline discipline the Spidergon/Quarc rims use.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.topologies.base import Channel, Topology

__all__ = ["TorusTopology"]


class TorusTopology(Topology):
    """``rows x cols`` torus; node id = ``row * cols + col``."""

    name = "torus"

    def __init__(self, n: int, cols: int = 0):
        super().__init__(n)
        if cols <= 0:
            cols = int(math.isqrt(n))
        if n % cols:
            raise ValueError(f"torus: {n} nodes do not fill {cols} columns")
        self.cols = cols
        self.rows = n // cols

    def coords(self, node: int) -> Tuple[int, int]:
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        return (row % self.rows) * self.cols + (col % self.cols)

    def channels(self) -> List[Channel]:
        chans = []
        for node in range(self.n):
            r, c = self.coords(node)
            chans.append(Channel(node, self.node_at(r, c + 1), "east"))
            chans.append(Channel(node, self.node_at(r, c - 1), "west"))
            chans.append(Channel(node, self.node_at(r + 1, c), "south"))
            chans.append(Channel(node, self.node_at(r - 1, c), "north"))
        return chans

    @staticmethod
    def _ring_steps(frm: int, to: int, size: int) -> int:
        """Signed shortest steps on a ring; ties break positive."""
        fwd = (to - frm) % size
        bwd = size - fwd
        if fwd == 0:
            return 0
        return fwd if fwd <= bwd else -bwd

    def path(self, src: int, dst: int) -> List[int]:
        self.validate_pair(src, dst)
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        nodes = [src]
        r, c = sr, sc
        dx = self._ring_steps(sc, dc, self.cols)
        step = 1 if dx > 0 else -1
        for _ in range(abs(dx)):
            c = (c + step) % self.cols
            nodes.append(self.node_at(r, c))
        dy = self._ring_steps(sr, dr, self.rows)
        step = 1 if dy > 0 else -1
        for _ in range(abs(dy)):
            r = (r + step) % self.rows
            nodes.append(self.node_at(r, c))
        return nodes

    def hops(self, src: int, dst: int) -> int:
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        return (abs(self._ring_steps(sc, dc, self.cols))
                + abs(self._ring_steps(sr, dr, self.rows)))
