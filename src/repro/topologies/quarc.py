"""The Quarc (Quad-arc) topology -- the paper's contribution.

Quarc modifies Spidergon by splitting the single spoke into two physical
cross links (cross-right and cross-left), which makes the topology
edge-symmetric, and by partitioning the other N-1 nodes seen from any
source into four *quadrants*, each served by a dedicated injection queue
of the all-port transceiver:

========  ==========================  ===========================
quadrant  destinations (cw dist k)    route
========  ==========================  ===========================
RIGHT     ``1 <= k <= q``             CW rim, k hops
XLEFT     ``q < k <= 2q``             cross, then CCW ``2q - k`` hops
XRIGHT    ``2q < k < 3q``             cross, then CW ``k - 2q`` hops
LEFT      ``3q <= k <= 4q-1``         CCW rim, ``N - k`` hops
========  ==========================  ===========================

with ``q = N/4`` (the Quarc requires ``N % 4 == 0``).  Every route is a
shortest path, the maximum path length is ``q + 1`` hops, and inside the
switch each input port has at most two legal outputs (local eject or
fixed-direction forward) -- the property that deletes the routing logic.

Broadcast (Fig. 6): the source emits one packet per quadrant whose header
destination is the *last node of the branch*; intermediate switches clone
(absorb-and-forward).  For source 0 on N=16 the four destinations are
4, 12, 5 and 11 exactly as in the paper's figure.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.topologies.base import Channel, Topology
from repro.topologies.ring import cw_dist

__all__ = ["QuarcTopology", "RIGHT", "LEFT", "XRIGHT", "XLEFT", "QUADRANTS"]

#: Quadrant identifiers (also index the transceiver's four queues).
RIGHT, LEFT, XRIGHT, XLEFT = "right", "left", "xright", "xleft"
QUADRANTS = (RIGHT, LEFT, XRIGHT, XLEFT)


class QuarcTopology(Topology):
    """Quarc graph + quadrant routing math."""

    name = "quarc"

    def __init__(self, n: int):
        super().__init__(n)
        if n % 4:
            raise ValueError(
                f"Quarc requires a node count divisible by 4 (got {n})")
        if n < 8:
            raise ValueError(f"Quarc needs at least 8 nodes (got {n})")
        self.q = n // 4

    # -- structure ------------------------------------------------------
    def channels(self) -> List[Channel]:
        chans = []
        n = self.n
        half = n // 2
        for i in range(n):
            chans.append(Channel(i, (i + 1) % n, "cw"))
            chans.append(Channel(i, (i - 1) % n, "ccw"))
            # the doubled spoke: two physical channels per direction pair
            chans.append(Channel(i, (i + half) % n, "cross_r"))
            chans.append(Channel(i, (i + half) % n, "cross_l"))
        return chans

    def antipode(self, node: int) -> int:
        return (node + self.n // 2) % self.n

    # -- quadrant calculator (the transceiver's routing act, Sec. 2.4) ---
    def quadrant(self, src: int, dst: int) -> str:
        """Destination quadrant as computed by the quadrant calculator."""
        self.validate_pair(src, dst)
        k = cw_dist(src, dst, self.n)
        q = self.q
        if k <= q:
            return RIGHT
        if k <= 2 * q:
            return XLEFT
        if k < 3 * q:
            return XRIGHT
        return LEFT

    def path(self, src: int, dst: int) -> List[int]:
        self.validate_pair(src, dst)
        n = self.n
        quad = self.quadrant(src, dst)
        if quad == RIGHT:
            k = cw_dist(src, dst, n)
            return [(src + i) % n for i in range(k + 1)]
        if quad == LEFT:
            k = cw_dist(dst, src, n)
            return [(src - i) % n for i in range(k + 1)]
        at = self.antipode(src)
        nodes = [src, at]
        step = 1 if quad == XRIGHT else -1
        while at != dst:
            at = (at + step) % n
            nodes.append(at)
        return nodes

    def hops(self, src: int, dst: int) -> int:
        """O(1) hop count (path() is O(hops); both must agree)."""
        k = cw_dist(src, dst, self.n)
        q = self.q
        if k <= q:
            return k
        if k <= 2 * q:
            return 1 + (2 * q - k)
        if k < 3 * q:
            return 1 + (k - 2 * q)
        return self.n - k

    # -- broadcast branches (Fig. 6) -------------------------------------
    def broadcast_dests(self, src: int) -> Dict[str, Optional[int]]:
        """Header destination for each broadcast branch.

        ``RIGHT``: last CW-rim node ``src+q``; ``LEFT``: ``src-q``;
        ``XLEFT``: antipode then CCW down to ``src+q+1`` (this branch
        absorbs at the antipode); ``XRIGHT``: antipode then CW up to
        ``src+3q-1`` (``None`` when the branch is empty, i.e. q == 1).
        For src=0, N=16 this yields 4 / 12 / 5 / 11 -- the paper's example.
        """
        n, q = self.n, self.q
        return {
            RIGHT: (src + q) % n,
            LEFT: (src - q) % n,
            XLEFT: (src + q + 1) % n,
            XRIGHT: (src + 3 * q - 1) % n if q > 1 else None,
        }

    def broadcast_coverage(self, src: int) -> Dict[str, List[int]]:
        """Nodes absorbed by each branch; the union is all N-1 others.

        The antipodal node is covered by the XLEFT branch (it is that
        branch's first absorber); the XRIGHT stream transits the antipode
        without absorbing, which is what keeps coverage duplicate-free.
        """
        n, q = self.n, self.q
        anti = self.antipode(src)
        cov = {
            RIGHT: [(src + i) % n for i in range(1, q + 1)],
            LEFT: [(src - i) % n for i in range(1, q + 1)],
            XLEFT: [(anti - i) % n for i in range(0, q)],
            XRIGHT: [(anti + i) % n for i in range(1, q)],
        }
        return cov

    def broadcast_branch_hops(self, src: int) -> Dict[str, int]:
        """Link traversals per branch; the max bounds broadcast latency."""
        dests = self.broadcast_dests(src)
        hops = {}
        for quad, dst in dests.items():
            hops[quad] = 0 if dst is None else self.hops(src, dst)
        return hops
