"""NUMA interconnect topologies (paper Fig. 2).

The interconnect is an undirected graph whose nodes are *memory
controllers*.  The hop count between the controller local to a requesting
core and the controller owning the data determines the extra latency of a
remote access:

* Intel NUMA (Fig. 2a): two controllers joined by one QPI link — distances
  are 0 (local) and 1 hop.
* AMD NUMA (Fig. 2b): eight controllers (two per package) on a partial
  mesh of HyperTransport links — distances are 0, 1 and 2 hops.  The
  concrete edge set below is the Magny-Cours four-package topology: the
  two nodes of a package are directly linked, and each node carries three
  external links arranged so every package pair is connected while some
  node pairs still need two hops.
"""

from __future__ import annotations

from repro.util.units import Frequency, ns_to_cycles
from repro.util.validation import (
    ValidationError,
    check_nonnegative,
    check_positive,
)


class Interconnect:
    """Hop-distance model over memory-controller nodes.

    Parameters
    ----------
    edges:
        Undirected links between controller ids.
    hop_latency_ns:
        Extra latency contributed by each hop traversed.
    nodes:
        Explicit node set (required so single-node or disconnected-probe
        graphs are well-defined).
    link_bandwidth_bytes_per_s:
        Payload bandwidth of one link, per direction.  Remote requests
        occupy link capacity for one cache-line transfer per hop; ``None``
        models infinitely fast links (latency only).
    """

    def __init__(self, nodes: list[int], edges: list[tuple[int, int]],
                 hop_latency_ns: float,
                 link_bandwidth_bytes_per_s: float | None = None) -> None:
        if not nodes:
            raise ValidationError("interconnect needs at least one node")
        check_nonnegative("hop_latency_ns", hop_latency_ns)
        self.hop_latency_ns = hop_latency_ns
        if link_bandwidth_bytes_per_s is not None:
            check_positive("link_bandwidth_bytes_per_s",
                           link_bandwidth_bytes_per_s)
        self.link_bandwidth_bytes_per_s = link_bandwidth_bytes_per_s
        adjacency: dict[int, list[int]] = {node: [] for node in nodes}
        for a, b in edges:
            if a not in adjacency or b not in adjacency:
                raise ValidationError(f"edge ({a}, {b}) references unknown node")
            if a == b:
                raise ValidationError(f"self-loop on node {a}")
            adjacency[a].append(b)
            adjacency[b].append(a)
        self._dist = {src: _bfs_hops(adjacency, src) for src in adjacency}
        if any(len(row) < len(adjacency) for row in self._dist.values()):
            raise ValidationError("interconnect must be connected")

    def __cache_tokens__(self) -> dict:
        """Value identity for solver cache keys (see ``repro.perf.keys``).

        The hop-distance matrix plus the latency/bandwidth parameters
        fully determine this object's observable behaviour.
        """
        return {
            "hop_latency_ns": self.hop_latency_ns,
            "link_bandwidth_bytes_per_s": self.link_bandwidth_bytes_per_s,
            "dist": self._dist,
        }

    @property
    def nodes(self) -> list[int]:
        return sorted(self._dist)

    def hops(self, src: int, dst: int) -> int:
        """Number of links between controllers ``src`` and ``dst``."""
        try:
            return self._dist[src][dst]
        except KeyError:
            raise ValidationError(f"unknown controller pair ({src}, {dst})") from None

    def latency_ns(self, src: int, dst: int) -> float:
        """Extra interconnect latency for a request from ``src`` to ``dst``."""
        return self.hops(src, dst) * self.hop_latency_ns

    def latency_cycles(self, src: int, dst: int, freq: Frequency) -> float:
        """Same, in core cycles."""
        return ns_to_cycles(self.latency_ns(src, dst), freq) if \
            self.hops(src, dst) else 0.0

    def link_transfer_ns(self, line_bytes: int = 64) -> float:
        """Time one cache line occupies one link, in nanoseconds.

        Zero when links are modelled as infinitely fast.
        """
        if self.link_bandwidth_bytes_per_s is None:
            return 0.0
        return line_bytes / self.link_bandwidth_bytes_per_s * 1e9

    def distance_classes(self) -> list[int]:
        """Sorted distinct hop counts over all node pairs.

        The paper reports these as "direct, one hop" (Intel) and "direct,
        one hop and two hops" (AMD).
        """
        return sorted({hops for row in self._dist.values()
                       for hops in row.values()})

    def mean_hops_from(self, src: int) -> float:
        """Average hops from ``src`` to every node (including itself)."""
        nodes = self.nodes
        return sum(self.hops(src, d) for d in nodes) / len(nodes)


def _bfs_hops(adjacency: dict[int, list[int]], src: int) -> dict[int, int]:
    """Hop count from ``src`` to every node it reaches, in BFS order."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for node in frontier:
            for peer in adjacency[node]:
                if peer not in dist:
                    dist[peer] = dist[node] + 1
                    nxt.append(peer)
        frontier = nxt
    return dist


def intel_numa_interconnect(hop_latency_ns: float = 32.0,
                            link_bandwidth_gbps: float = 12.8) -> Interconnect:
    """Two directly linked controllers (paper Fig. 2a): one QPI link."""
    check_positive("hop_latency_ns", hop_latency_ns)
    return Interconnect(nodes=[0, 1], edges=[(0, 1)],
                        hop_latency_ns=hop_latency_ns,
                        link_bandwidth_bytes_per_s=link_bandwidth_gbps * 1e9)


def amd_numa_interconnect(hop_latency_ns: float = 50.0,
                          link_bandwidth_gbps: float = 6.4) -> Interconnect:
    """Eight controllers on the Magny-Cours partial mesh (paper Fig. 2b).

    Nodes ``2p`` and ``2p+1`` are the two controllers of package ``p``.
    The edge set gives distance classes {0, 1, 2}: every package pair has
    at least one direct link, but some individual node pairs are two hops
    apart — matching the paper's "direct, one hop and two hops".
    """
    check_positive("hop_latency_ns", hop_latency_ns)
    # Packages form a ring: adjacent packages are fully linked die-to-die
    # (one hop), diagonal packages have no direct links (two hops via a
    # neighbour).  This is what gives the testbed its three memory
    # latencies (direct / one hop / two hops) with *heterogeneous*
    # package distances — the property that makes the paper's
    # homogeneous-latency model variant lose accuracy on this machine.
    def pkg(p):
        return (2 * p, 2 * p + 1)

    edges = [(0, 1), (2, 3), (4, 5), (6, 7)]  # intra-package links
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):  # package ring
        for u in pkg(a):
            for v in pkg(b):
                edges.append((u, v))
    return Interconnect(nodes=list(range(8)), edges=edges,
                        hop_latency_ns=hop_latency_ns,
                        link_bandwidth_bytes_per_s=link_bandwidth_gbps * 1e9)
