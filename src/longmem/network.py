"""Thresholded correlation networks, community structure, era splits.

Edges keep their signed coefficient, but modularity is computed on the
positive-weight subgraph only (negative survivors of a high threshold are
rare and standard modularity assumes non-negative weights); the number of
excluded negative edges is recorded on the partition.

Community detection is a greedy multi-level modularity pass made fully
deterministic: nodes are visited in canonical id order permuted by the
seeded generator, gain ties (within 1e-12) go to the smallest label, and final
labels are renumbered by each community's smallest member id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .dcca import DccaMatrix
from .errors import AlignmentError, LongmemError
from .series import RatePanel, _first

__all__ = [
    "CorrelationNetwork",
    "CommunityPartition",
    "build_network",
    "detect_communities",
    "average_weighted_degree",
    "split_periods",
    "to_graphml",
    "to_dot",
]

# Relative slack for "these two modularity gains are the same number".
_GAIN_TIE_REL = 1e-12


@dataclass(frozen=True)
class CorrelationNetwork:
    """Nodes with the pairwise edges that survived the threshold."""

    ids: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    scale: int
    threshold: float

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        known = set(self.ids)
        seen = set()
        for a, b, w in self.edges:
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if a not in known or b not in known:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown node")
            key = (a, b) if a <= b else (b, a)
            if key in seen:
                raise ValueError(f"duplicate edge for pair {key}")
            seen.add(key)
            if abs(w) < self.threshold:
                raise ValueError(
                    f"edge ({a!r}, {b!r}) weight {w} below threshold {self.threshold}"
                )

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def to_json_dict(self) -> dict:
        return {
            "ids": list(self.ids),
            "edges": [[a, b, float(w)] for a, b, w in self.edges],
            "scale": self.scale,
            "threshold": self.threshold,
        }


def build_network(m: DccaMatrix, threshold: float = 0.8) -> CorrelationNetwork:
    """Keep the pairs whose |rho| reaches the threshold, which is in (0, 1]."""
    rows, cols = np.triu_indices(len(m.ids), k=1)
    weights = m.rho[rows, cols]
    keep = np.abs(weights) >= threshold
    edges = tuple(
        (m.ids[i], m.ids[j], w)
        for i, j, w in zip(rows[keep].tolist(), cols[keep].tolist(),
                           weights[keep].tolist())
    )
    return CorrelationNetwork(
        ids=m.ids, edges=edges, scale=m.scale, threshold=threshold
    )


@dataclass(frozen=True)
class CommunityPartition:
    """Node to community assignment plus the modularity it achieves."""

    assignment: tuple[tuple[str, int], ...]  # (id, label), in network id order
    modularity_q: float
    resolution: float
    seed: int
    n_negative_excluded: int

    def __post_init__(self):
        if self.modularity_q > 1.0:
            raise ValueError("modularity cannot exceed 1")

    @property
    def labels(self) -> dict[str, int]:
        return dict(self.assignment)

    @property
    def communities(self) -> tuple[tuple[str, ...], ...]:
        """Members per label, labels ascending, members in id order."""
        by_label: dict[int, list[str]] = {}
        for node, label in self.assignment:
            by_label.setdefault(label, []).append(node)
        return tuple(
            tuple(sorted(by_label[lab])) for lab in sorted(by_label)
        )

    def to_json_dict(self) -> dict:
        return {
            "assignment": [[n, int(c)] for n, c in self.assignment],
            "modularity_q": self.modularity_q,
            "resolution": self.resolution,
            "seed": self.seed,
            "n_negative_excluded": self.n_negative_excluded,
        }


def _total(values) -> float:
    """Floats added left to right, as Python 3.11's builtin ``sum`` does;
    its compensated form from 3.12 on would move Q and gains by a bit."""
    total = 0.0
    for v in values:
        total += v
    return total


def _modularity(
    n_nodes: int,
    edges: list[tuple[int, int, float]],
    comm: list[int],
    resolution: float,
) -> float:
    """Q of an assignment on the positive-weight graph; 0 when edgeless."""
    strength = [0.0] * n_nodes
    for u, v, w in edges:
        strength[u] += w
        strength[v] += w
    two_m = _total(strength)
    if two_m == 0.0:
        return 0.0
    q = 0.0
    for u, v, w in edges:
        if comm[u] == comm[v]:
            q += 2.0 * w
    tot: dict[int, float] = {}
    for u in range(n_nodes):
        tot[comm[u]] = tot.get(comm[u], 0.0) + strength[u]
    q /= two_m
    q -= resolution * _total(t * t for t in tot.values()) / (two_m * two_m)
    return q


def _louvain_level(
    neighbors: list[dict[int, float]],
    loops: list[float],
    resolution: float,
    order: np.ndarray,
) -> list[int] | None:
    """One local-move phase; returns the assignment or None if nothing moved."""
    strength = [2.0 * lp + _total(nb.values())
                for lp, nb in zip(loops, neighbors)]
    two_m = _total(strength)
    if two_m == 0.0:
        return None  # edgeless graph: nothing to move
    comm = list(range(len(loops)))
    tot = strength.copy()
    moved_any = False
    improved = True
    while improved:
        improved = False
        for u in order.tolist():
            cu = comm[u]
            # weight from u to each neighboring community, u taken out of its own
            w_to: dict[int, float] = {cu: 0.0}
            for v, w in neighbors[u].items():
                c = comm[v]
                w_to[c] = w_to.get(c, 0.0) + w
            tot[cu] -= strength[u]
            best_c = cu
            best_gain = w_to.get(cu, 0.0) - resolution * tot[cu] * strength[u] / two_m
            for c in sorted(w_to):
                gain = w_to[c] - resolution * tot[c] * strength[u] / two_m
                tie = _GAIN_TIE_REL * max(1.0, abs(gain), abs(best_gain))
                if gain > best_gain + tie or (
                    abs(gain - best_gain) <= tie and c < best_c
                ):
                    best_gain = gain
                    best_c = c
            tot[best_c] += strength[u]
            comm[u] = best_c
            if best_c != cu:
                improved = True
                moved_any = True
    return comm if moved_any else None


def _aggregate(
    neighbors: list[dict[int, float]],
    loops: list[float],
    comm: list[int],
) -> tuple[list[dict[int, float]], list[float]]:
    """Collapse communities 0..k-1 into nodes; internal weight as self-loops."""
    k = max(comm) + 1
    new_neighbors: list[dict[int, float]] = [dict() for _ in range(k)]
    new_loops = [0.0] * k
    for u, c in enumerate(comm):
        new_loops[c] += loops[u]
    for u, cu in enumerate(comm):
        for v, w in neighbors[u].items():
            if v < u:
                continue
            cv = comm[v]
            if cu == cv:
                new_loops[cu] += w
            else:
                new_neighbors[cu][cv] = new_neighbors[cu].get(cv, 0.0) + w
                new_neighbors[cv][cu] = new_neighbors[cv].get(cu, 0.0) + w
    return new_neighbors, new_loops


def detect_communities(
    net: CorrelationNetwork,
    resolution: float = 1.0,
    seed: int = 0,
) -> CommunityPartition:
    """Greedy multi-level modularity maximization, deterministic given seed.

    Runs on the positive-weight subgraph.  A network with edges but no
    positive ones has no graph to optimize and is an error; an edgeless
    network degenerates to singleton communities at Q = 0.
    """
    if not 0.0 < resolution < math.inf:
        raise ValueError("resolution must be positive and finite")
    if net.n_nodes == 0:
        raise LongmemError("cannot partition an empty network")
    index = {node: i for i, node in enumerate(net.ids)}
    positive = [
        (index[a], index[b], w) for a, b, w in net.edges if w > 0.0
    ]
    n_negative = net.n_edges - len(positive)
    if net.n_edges > 0 and not positive:
        raise LongmemError(
            "all edges carry negative weight; no positive-weight subgraph "
            "to run modularity on"
        )

    n = net.n_nodes
    neighbors: list[dict[int, float]] = [dict() for _ in range(n)]
    loops = [0.0] * n
    for u, v, w in positive:
        neighbors[u][v] = neighbors[u].get(v, 0.0) + w
        neighbors[v][u] = neighbors[v].get(u, 0.0) + w

    rng = np.random.default_rng(seed)
    # assign[i] = node of the current level that original node i belongs to
    assign = list(range(n))
    while len(loops) > 1:
        order = rng.permutation(len(loops))
        comm = _louvain_level(neighbors, loops, resolution, order)
        if comm is None:
            break
        rank = {c: i for i, c in enumerate(sorted(set(comm)))}
        comm = [rank[c] for c in comm]  # 0..k-1: _aggregate makes max + 1 nodes
        assign = [comm[a] for a in assign]
        neighbors, loops = _aggregate(neighbors, loops, comm)

    q = _modularity(n, positive, assign, resolution)
    # canonical labels: communities numbered by their smallest member id
    relabel: dict[int, int] = {}
    for i in sorted(range(n), key=net.ids.__getitem__):
        relabel.setdefault(assign[i], len(relabel))
    assignment = tuple(
        (node, relabel[assign[i]]) for i, node in enumerate(net.ids)
    )
    return CommunityPartition(
        assignment=assignment,
        modularity_q=q,
        resolution=resolution,
        seed=seed,
        n_negative_excluded=n_negative,
    )


def average_weighted_degree(net: CorrelationNetwork) -> float:
    """Mean over nodes of the summed magnitudes of incident edges."""
    if net.n_nodes == 0:
        return 0.0
    total = 0.0
    for _, _, w in net.edges:
        total += 2.0 * abs(w)
    return total / net.n_nodes


def split_periods(
    panel: RatePanel,
    windows: list[tuple[date, date]],
) -> list[RatePanel]:
    """The sub-panel on each date window (windows may overlap).

    A window ``(d_from, d_to)`` holds the panel's dates from ``d_from`` to
    ``d_to``, both included, less those where no series is observed.  Each
    series must keep at least two observations in it (AlignmentError), and
    at least two of its dates must be shared by every series
    (LongmemError).  A window that drops no date holds a view of the
    panel's matrix, not a copy.
    """
    if not windows:
        raise ValueError("need at least one window")
    out = []
    for d_from, d_to in windows:
        lo = np.searchsorted(panel.days, np.datetime64(d_from, "D"), side="left")
        hi = np.searchsorted(panel.days, np.datetime64(d_to, "D"), side="right")
        sub, days = panel.matrix[:, lo:hi], panel.days[lo:hi]
        seen = ~np.isnan(sub)
        counts = seen.sum(axis=1)
        i = _first(counts < 2)
        if i is not None:
            raise AlignmentError(
                f"series {panel.ids[i]!r}: window {d_from}..{d_to} keeps "
                f"{counts[i]} observations (< 2)")
        n_shared = int(seen.all(axis=0).sum())
        if n_shared < 2:
            raise LongmemError(
                f"window {d_from.isoformat()}..{d_to.isoformat()} leaves "
                f"{n_shared} shared dates, need at least 2"
            )
        used = seen.any(axis=0)
        if not used.all():
            sub, days = sub[:, used], days[used]
        out.append(RatePanel.from_matrix(panel.ids, days, sub))
    return out


def _fmt_weight(w: float) -> str:
    return repr(float(w))


_XML_ESCAPES = (("&", "&amp;"), (">", "&gt;"), ("<", "&lt;"),
                ("\n", "&#10;"), ("\r", "&#13;"), ("\t", "&#9;"))


def _xml_attr(s: str) -> str:
    """Quoted XML attribute value, the same bytes as saxutils.quoteattr.

    ``&``, ``>`` and ``<`` are escaped first, then newline, carriage return
    and tab as character references.  The value is wrapped in double
    quotes unless it holds one and no single quote; holding both, its
    double quotes become ``&quot;``.
    """
    for char, ref in _XML_ESCAPES:
        s = s.replace(char, ref)
    if '"' not in s:
        return f'"{s}"'
    if "'" not in s:
        return f"'{s}'"
    return '"' + s.replace('"', "&quot;") + '"'


def to_graphml(net: CorrelationNetwork, partition: CommunityPartition) -> str:
    """GraphML text with edge weights and community labels."""
    labels = partition.labels
    quoted = {node: _xml_attr(node) for node in net.ids}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
        '  <key id="community" for="node" attr.name="community" attr.type="int"/>',
        '  <graph id="rho-network" edgedefault="undirected">',
    ]
    for node in net.ids:
        lines.append(f"    <node id={quoted[node]}>")
        lines.append(f'      <data key="community">{labels[node]}</data>')
        lines.append("    </node>")
    for a, b, w in net.edges:
        lines.append(f"    <edge source={quoted[a]} target={quoted[b]}>")
        lines.append(f'      <data key="weight">{_fmt_weight(w)}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(net: CorrelationNetwork, partition: CommunityPartition) -> str:
    """Graphviz DOT text with edge weights and community labels."""
    labels = partition.labels
    quoted = {node: _dot_quote(node) for node in net.ids}
    lines = ["graph rho_network {"]
    for node in net.ids:
        lines.append(f"  {quoted[node]} [community={labels[node]}];")
    for a, b, w in net.edges:
        lines.append(f"  {quoted[a]} -- {quoted[b]} [weight={_fmt_weight(w)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
