import datetime as dt
import itertools
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from longmem.cli import _csv
from longmem.dcca import DccaMatrix, pairwise_matrix
from longmem import network
from longmem.errors import AlignmentError, LongmemError
from longmem.network import (
    CommunityPartition,
    CorrelationNetwork,
    _aggregate,
    _louvain_level,
    _xml_attr,
    average_weighted_degree,
    build_network,
    detect_communities,
    split_periods,
    to_dot,
    to_graphml,
)
from longmem.scaling import dfa
from longmem.series import RatePanel
from longmem.synthetic import BlockSpec, generate_blocks

from conftest import make_series, rule_tests
from reference import naive_edges


def matrix_from(rho: np.ndarray, ids=None) -> DccaMatrix:
    n = rho.shape[0]
    ids = tuple(ids) if ids else tuple(f"n{i}" for i in range(n))
    return DccaMatrix(ids, 50, dfa(1), rho)


def random_matrix(seed: int, n: int = 6) -> DccaMatrix:
    rng = np.random.default_rng(seed)
    rho = rng.uniform(-0.99, 0.99, size=(n, n))
    rho = np.triu(rho, 1)
    rho = rho + rho.T
    np.fill_diagonal(rho, 1.0)
    return matrix_from(rho)


def clique_pair_network() -> CorrelationNetwork:
    ids = ("a", "b", "c", "d", "e", "f")
    groups = [("a", "b", "c"), ("d", "e", "f")]
    edges = tuple((x, y, 0.9) for g in groups
                  for x, y in itertools.combinations(g, 2))
    return CorrelationNetwork(ids, edges, 50, 0.8)


class TestBuildNetwork:
    def test_all_ones_complete_graph(self):
        net = build_network(matrix_from(np.ones((4, 4))))
        assert net.n_nodes == 4
        assert net.n_edges == 6
        assert all(w == 1.0 for _, _, w in net.edges)

    def test_below_threshold_filtered(self):
        rho = np.full((4, 4), 0.5)
        np.fill_diagonal(rho, 1.0)
        net = build_network(matrix_from(rho), threshold=0.8)
        assert net.n_edges == 0
        assert net.n_nodes == 4

    def test_signed_weights_kept(self):
        rho = np.array([[1.0, -0.9], [-0.9, 1.0]])
        net = build_network(matrix_from(rho), threshold=0.8)
        assert net.edges == (("n0", "n1", -0.9),)

    def test_block_matrix_edges_mostly_within(self):
        spec = BlockSpec(n_blocks=3, block_size=5, common_weight=0.9,
                         hurst=0.8, n=2048, seed=0)
        m = pairwise_matrix(generate_blocks(spec), 100, dfa(1),
                            input_kind="increments")
        net = build_network(m, threshold=0.8)
        within = sum(1 for a, b, _ in net.edges
                     if a.split(":")[0] == b.split(":")[0])
        assert within > net.n_edges - within

    def test_threshold_monotonicity(self):
        for seed in range(5):
            m = random_matrix(seed)
            previous = None
            for t in (0.2, 0.5, 0.8):
                edges = {(a, b) for a, b, _ in build_network(m, t).edges}
                if previous is not None:
                    assert edges <= previous
                previous = edges

    def test_matches_loop_oracle(self):
        m = random_matrix(7, n=40)
        for t in (0.05, 0.2, 0.5):
            net = build_network(m, t)
            want = naive_edges(m.ids, m.rho, t)
            assert net.edges == want
            assert all(type(w) is float for *_, w in net.edges)


class TestDetectCommunities:
    def test_two_cliques_any_seed(self):
        net = clique_pair_network()
        for seed in range(5):
            part = detect_communities(net, seed=seed)
            assert part.communities == (("a", "b", "c"), ("d", "e", "f"))
            assert part.labels["a"] == 0
            assert part.labels["d"] == 1

    def test_complete_uniform_graph_single_community(self):
        ids = tuple("abcde")
        edges = tuple((x, y, 0.9)
                      for x, y in itertools.combinations(ids, 2))
        net = CorrelationNetwork(ids, edges, 10, 0.5)
        part = detect_communities(net)
        assert len(part.communities) == 1
        assert part.modularity_q == pytest.approx(0.0, abs=1e-12)

    def test_high_resolution_splits(self):
        ids = tuple("abcde")
        edges = tuple((x, y, 0.9)
                      for x, y in itertools.combinations(ids, 2))
        net = CorrelationNetwork(ids, edges, 10, 0.5)
        assert len(detect_communities(net, resolution=50.0).communities) == 5

    def test_block_ensemble_end_to_end(self):
        spec = BlockSpec(n_blocks=3, block_size=5, common_weight=0.9,
                         hurst=0.8, n=2048, seed=0)
        m = pairwise_matrix(generate_blocks(spec), 100, dfa(1),
                            input_kind="increments")
        part = detect_communities(build_network(m, threshold=0.8))
        expected = tuple(
            tuple(f"b{b}:m{m_}" for m_ in range(1, 6))
            for b in range(1, 4)
        )
        assert part.communities == expected

    def test_edgeless_network_is_singletons(self):
        net = CorrelationNetwork(("a", "b", "c"), (), 50, 0.8)
        part = detect_communities(net)
        assert len(part.communities) == 3
        assert part.modularity_q == 0.0

    def test_q_bounds(self):
        for seed in range(5):
            net = build_network(random_matrix(seed, n=8), threshold=0.3)
            if net.n_edges == 0 or all(w < 0 for _, _, w in net.edges):
                continue
            part = detect_communities(net)
            assert -1e-12 <= part.modularity_q <= 1.0

    def test_negative_edges_excluded_and_counted(self):
        ids = ("a", "b", "c", "d")
        edges = (("a", "b", 0.9), ("c", "d", -0.85))
        net = CorrelationNetwork(ids, edges, 50, 0.8)
        part = detect_communities(net)
        assert part.n_negative_excluded == 1
        assert part.labels["a"] == part.labels["b"]
        assert part.labels["c"] != part.labels["d"]

    def test_q_at_least_one_community_value(self):
        # one community holding every node scores 1 - resolution
        rng = np.random.default_rng(15)
        for seed in range(300):
            net = build_network(random_matrix(seed, n=int(rng.integers(2, 25))),
                                threshold=float(rng.uniform(0.3, 0.95)))
            if not any(w > 0 for _, _, w in net.edges):
                continue
            resolution = float(rng.uniform(0.01, 5.0))
            part = detect_communities(net, resolution=resolution, seed=seed)
            assert part.modularity_q >= 1.0 - resolution - 1e-12

    def test_same_bits_under_compensated_sum(self, monkeypatch):
        # Python 3.12's builtin sum of floats is compensated; a network whose
        # strengths add to another last bit that way keeps Q and partition
        net = build_network(random_matrix(4, n=5), threshold=0.3)
        strength = dict.fromkeys(net.ids, 0.0)
        for a, b, w in net.edges:
            if w > 0.0:
                strength[a] += w
                strength[b] += w
        plain = 0.0
        for v in strength.values():
            plain += v
        assert math.fsum(strength.values()) != plain
        part = detect_communities(net)
        monkeypatch.setattr(network, "sum", math.fsum, raising=False)
        patched = detect_communities(net)
        assert repr(patched.modularity_q) == repr(part.modularity_q)
        assert patched.assignment == part.assignment

    def test_table(self):
        # the partition_s<scale>.csv layout the CLI writes
        part = detect_communities(clique_pair_network())
        assert _csv(("id", "community"), part.assignment) == (
            "id,community\na,0\nb,0\nc,0\nd,1\ne,1\nf,1\n")


def level_graph(n, edges, loops=None):
    """Neighbor maps and self-loops of a Louvain level from (u, v, w) edges."""
    neighbors = [dict() for _ in range(n)]
    for u, v, w in edges:
        neighbors[u][v] = neighbors[v][u] = w
    return neighbors, loops or [0.0] * n


def random_level(seed):
    """A random weighted level graph with some self-loops, and a visit order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    edges = [(u, v, float(rng.uniform(0.5, 1.0)))
             for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.4]
    loops = [float(rng.uniform(0.0, 1.0)) if rng.random() < 0.3 else 0.0
             for _ in range(n)]
    return (*level_graph(n, edges, loops), rng.permutation(n))


def strengths(neighbors, loops):
    return [2.0 * lp + sum(nb.values()) for lp, nb in zip(loops, neighbors)]


def level_modularity(neighbors, loops, comm):
    """Q of ``comm`` on a level graph, a self-loop counting twice."""
    strength = strengths(neighbors, loops)
    two_m = sum(strength)
    inside = sum(2.0 * loops[u] + sum(w for v, w in neighbors[u].items()
                                      if comm[v] == comm[u])
                 for u in range(len(loops)))
    tot = {}
    for u, c in enumerate(comm):
        tot[c] = tot.get(c, 0.0) + strength[u]
    return inside / two_m - sum(t * t for t in tot.values()) / two_m ** 2


class TestLouvainSteps:
    def test_node_takes_its_best_move(self):
        # node 0 gains more by joining 1 (0.9) than 2 (0.5); 1 then stays
        neighbors, loops = level_graph(3, [(0, 1, 0.9), (0, 2, 0.5)])
        assert _louvain_level(neighbors, loops, 1.0, np.arange(3)) == [1, 1, 1]

    def test_rounding_tie_goes_to_the_smaller_label(self):
        # once 3 joins 2, node 0 sees 0.3 toward community 1 and 0.1 + 0.2
        # (0.30000000000000004) toward 2; the self-loop of 1 makes both
        # totals 2.3, so the two gains differ by rounding alone
        neighbors, loops = level_graph(
            4, [(0, 1, 0.3), (0, 2, 0.1), (0, 3, 0.2), (2, 3, 1.0)],
            [0.0, 1.0, 0.0, 0.0])
        comm = _louvain_level(neighbors, loops, 1.0, np.array([3, 0, 1, 2]))
        assert comm == [1, 1, 2, 2]

    def test_level_leaves_no_improving_move(self):
        for seed in range(60):
            neighbors, loops, order = random_level(seed)
            comm = _louvain_level(neighbors, loops, 1.0, order)
            if comm is None:
                continue
            strength = strengths(neighbors, loops)
            two_m = sum(strength)
            tot = {}
            for u, c in enumerate(comm):
                tot[c] = tot.get(c, 0.0) + strength[u]
            for u, cu in enumerate(comm):
                w_to = {cu: 0.0}
                for v, w in neighbors[u].items():
                    w_to[comm[v]] = w_to.get(comm[v], 0.0) + w
                rest = {**tot, cu: tot[cu] - strength[u]}  # u taken out
                gain = {c: w - rest[c] * strength[u] / two_m for c, w in w_to.items()}
                assert max(gain.values()) <= gain[cu] + 1e-9, (seed, u)

    def test_aggregate_keeps_weight_and_modularity(self):
        for seed in range(20):
            neighbors, loops, _ = random_level(seed)
            comm = np.random.default_rng(seed).integers(0, 3, len(loops))
            comm = np.unique(comm, return_inverse=True)[1].tolist()  # 0..k-1
            new_neighbors, new_loops = _aggregate(neighbors, loops, comm)
            assert sum(strengths(new_neighbors, new_loops)) == pytest.approx(
                sum(strengths(neighbors, loops)), rel=1e-12)
            assert level_modularity(
                new_neighbors, new_loops, list(range(len(new_loops)))
            ) == pytest.approx(level_modularity(neighbors, loops, comm),
                               rel=1e-12, abs=1e-12)


class TestAverageWeightedDegree:
    def test_triangle(self):
        ids = ("a", "b", "c")
        edges = tuple((x, y, 0.9)
                      for x, y in itertools.combinations(ids, 2))
        net = CorrelationNetwork(ids, edges, 50, 0.8)
        assert average_weighted_degree(net) == pytest.approx(1.8)

    def test_empty_network(self):
        assert average_weighted_degree(
            CorrelationNetwork((), (), 50, 0.8)) == 0.0
        assert average_weighted_degree(
            CorrelationNetwork(("a", "b"), (), 50, 0.8)) == 0.0

    def test_negative_weight_counts_magnitude(self):
        net = CorrelationNetwork(("a", "b"), (("a", "b", -0.9),), 50, 0.8)
        assert average_weighted_degree(net) == pytest.approx(0.9)

    def test_non_increasing_in_threshold(self):
        for seed in range(5):
            m = random_matrix(seed, n=8)
            degrees = [average_weighted_degree(build_network(m, t))
                       for t in (0.2, 0.5, 0.8)]
            assert degrees[0] >= degrees[1] >= degrees[2]


def two_ramps(n=600) -> RatePanel:
    a = make_series(np.arange(n, dtype=float) + 1.0, "a")
    b = make_series(np.arange(n, dtype=float) * 2.0 + 1.0, "b")
    return RatePanel((a, b))


class TestSplitPeriods:
    def test_full_range_identity(self):
        panel = two_ramps()
        lo, hi = panel.date_index[0], panel.date_index[-1]
        (sub,) = split_periods(panel, [(lo, hi)])
        assert sub.date_index == panel.date_index
        for orig, new in zip(panel.series, sub.series):
            assert np.array_equal(orig.values, new.values)

    def test_overlapping_windows(self):
        panel = two_ramps()
        dates = panel.date_index
        first = (dates[0], dates[399])
        second = (dates[200], dates[-1])
        subs = split_periods(panel, [first, second])
        assert len(subs) == 2
        assert len(subs[0].date_index) == 400
        assert len(subs[1].date_index) == 400
        overlap = set(subs[0].date_index) & set(subs[1].date_index)
        assert len(overlap) == 200

    def test_restrict_drops_unobserved_dates(self):
        days = np.array(["2020-01-01", "2020-01-02", "2020-01-03",
                         "2020-01-04"], dtype="datetime64[D]")
        panel = RatePanel.from_matrix(
            ["a", "b"], days,
            [[1.0, np.nan, 3.0, 4.0], [5.0, np.nan, 7.0, 8.0]])
        (sub,) = split_periods(panel, [(D(2020, 1, 2), D(2020, 1, 4))])
        assert sub.date_index == (D(2020, 1, 3), D(2020, 1, 4))
        assert sub.is_aligned
        with pytest.raises(AlignmentError, match="'a'.*keeps 1"):
            split_periods(panel, [(D(2020, 1, 1), D(2020, 1, 2))])

    def test_window_copies_only_when_a_date_drops(self):
        panel = RatePanel.from_matrix(
            ["a", "b"], np.arange(4).astype("datetime64[D]"),
            [[1.0, 2.0, np.nan, 4.0], [5.0, 6.0, np.nan, 8.0]])
        kept, dropped = split_periods(panel, [(D(1970, 1, 1), D(1970, 1, 2)),
                                              (D(1970, 1, 1), D(1970, 1, 4))])
        assert np.shares_memory(kept.matrix, panel.matrix)
        assert not np.shares_memory(dropped.matrix, panel.matrix)
        assert dropped.matrix.tolist() == [[1.0, 2.0, 4.0], [5.0, 6.0, 8.0]]


class TestExports:
    def test_graphml_parses_and_carries_attributes(self):
        net = clique_pair_network()
        part = detect_communities(net)
        text = to_graphml(net, part)
        root = ET.fromstring(text)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        nodes = root.findall(f"{ns}graph/{ns}node")
        edges = root.findall(f"{ns}graph/{ns}edge")
        assert len(nodes) == 6
        assert len(edges) == 6
        data = nodes[0].find(f"{ns}data")
        assert data.get("key") == "community"
        assert data.text == "0"
        weight = edges[0].find(f"{ns}data")
        assert float(weight.text) == 0.9

    def test_graphml_escapes_ids(self):
        net = CorrelationNetwork(('we"ird', "ok"), (('we"ird', "ok", 0.9),),
                                 50, 0.8)
        root = ET.fromstring(to_graphml(net, detect_communities(net)))
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        ids = [n.get("id") for n in root.findall(f"{ns}graph/{ns}node")]
        assert 'we"ird' in ids

    def test_dot_output(self):
        net = clique_pair_network()
        part = detect_communities(net)
        text = to_dot(net, part)
        assert text.startswith("graph rho_network {")
        assert '"a" -- "b" [weight=0.9];' in text
        assert '"a" [community=0];' in text
        assert text.rstrip().endswith("}")

    def test_dot_quotes_ids(self):
        net = CorrelationNetwork(('we"ird', "ok"), (), 50, 0.8)
        assert '"we\\"ird" [community=1];' in to_dot(net, detect_communities(net))

    @pytest.mark.parametrize("text", [
        "plain", "a&b", "<tag>", "it's", 'say "hi"', """both ' and \"""",
        "tab\there", "two\nlines", "cr\rlf", "&<>'\"\t\n\r", "&amp;", ""])
    def test_xml_attr_matches_saxutils(self, text):
        from xml.sax.saxutils import quoteattr

        assert _xml_attr(text) == quoteattr(text)

    def test_graphml_round_trips_awkward_ids(self):
        ids = ("a&b<c>", "q'\"", "t\tn\nr\r")
        net = CorrelationNetwork(ids, ((ids[0], ids[1], 0.9),
                                       (ids[1], ids[2], -0.7)), 50, 0.5)
        root = ET.fromstring(to_graphml(net, detect_communities(net)))
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        assert [n.get("id") for n in root.findall(f"{ns}graph/{ns}node")] == list(ids)
        assert [(e.get("source"), e.get("target"))
                for e in root.findall(f"{ns}graph/{ns}edge")] == [
                    (ids[0], ids[1]), (ids[1], ids[2])]


class TestDatesHelper:
    def test_cliques_partition_roundtrip_via_json(self):
        part = detect_communities(clique_pair_network())
        d = part.to_json_dict()
        assert d["n_negative_excluded"] == 0
        assert dict(tuple(x) for x in d["assignment"]) == part.labels


def dot_of(ids):
    """DOT text of an edgeless network on ``ids``."""
    net = CorrelationNetwork(ids, (), 50, 0.8)
    return to_dot(net, detect_communities(net))


D = dt.date
ONE_SHARED_DATE = RatePanel.from_matrix(
    ["a", "b"], np.arange("2020-01-01", "2020-01-06", dtype="datetime64[D]"),
    [[1, 2, 3, np.nan, np.nan], [np.nan, np.nan, 3, 4, 5]])
TWO_SHARED_DATES = RatePanel.from_matrix(
    ["a", "b"], np.arange("2020-01-01", "2020-01-06", dtype="datetime64[D]"),
    [[1, 2, 3, 4, np.nan], [np.nan, np.nan, 3, 4, 5]])
RULES = {
    "TestBuildNetwork": [
        *[(f"test_threshold_validation[{bad}]",
           lambda bad=bad: build_network(matrix_from(np.ones((2, 2))), threshold=bad),
           ValueError, "threshold must be in (0, 1]") for bad in (0.0, -0.5, 1.01)],
        # |rho| equal to the threshold is an edge, built or given
        *[(f"test_edge_at_threshold_kept[{name}]", call, None, (("a", "b", -0.8),))
          for name, call in [
              ("build_network", lambda: build_network(matrix_from(
                  np.array([[1.0, -0.8], [-0.8, 1.0]]), ("a", "b")), 0.8).edges),
              ("CorrelationNetwork", lambda: CorrelationNetwork(
                  ("a", "b"), (("a", "b", -0.8),), 50, 0.8).edges)]],
        *[(f"test_network_invariants_enforced[{name}]",
           lambda ids=ids, edges=edges: CorrelationNetwork(ids, edges, 50, 0.8),
           ValueError, message) for name, ids, edges, message in [
              ("self-loop", ("a",), (("a", "a", 0.9),), "self-loop on 'a'"),
              ("unknown-node", ("a", "b"), (("a", "zz", 0.9),),
               "edge ('a', 'zz') references unknown node"),
              ("duplicate-edge", ("a", "b"), (("a", "b", 0.9), ("b", "a", 0.85)),
               "duplicate edge for pair ('a', 'b')"),
              ("below-threshold", ("a", "b"), (("a", "b", 0.5),),
               "edge ('a', 'b') weight 0.5 below threshold 0.8")]],
        ("test_default_threshold",
         lambda: build_network(matrix_from(np.array([[1.0, 0.5], [0.5, 1.0]]))).edges,
         None, ()),
        ("test_threshold_of_one_accepted",
         lambda: build_network(matrix_from(np.ones((2, 2))), threshold=1.0).edges,
         None, (("n0", "n1", 1.0),))],
    "TestDetectCommunities": [
        ("test_all_negative_is_error",
         lambda: detect_communities(
             CorrelationNetwork(("a", "b"), (("a", "b", -0.9),), 50, 0.8)),
         LongmemError, "all edges carry negative weight; no positive-weight "
                       "subgraph to run modularity on"),
        ("test_empty_network_is_error",
         lambda: detect_communities(CorrelationNetwork((), (), 50, 0.8)),
         LongmemError, "cannot partition an empty network"),
        *[(name, lambda r=r: detect_communities(clique_pair_network(), resolution=r),
           ValueError, "resolution must be positive and finite")
          for name, r in [("test_resolution_validation", 0.0),
                          ("test_non_finite_resolution_rejected[nan]", np.nan),
                          ("test_non_finite_resolution_rejected[inf]", np.inf)]],
        ("test_q_capped_validation",
         lambda: CommunityPartition((("a", 0),), 1.5, 1.0, 0, 0), ValueError,
         "modularity cannot exceed 1"),
        ("test_q_of_one_accepted",
         lambda: CommunityPartition((("a", 0),), 1.0, 1.0, 0, 0).modularity_q,
         None, 1.0)],
    "TestLouvainSteps": [
        # communities 0 and 1 become two nodes: 0 keeps the 0.5 edge inside
        # it as a self-loop, and 0.25 joins it to 1
        ("test_aggregate_makes_one_node_per_community",
         lambda: _aggregate(*level_graph(3, [(0, 1, 0.5), (1, 2, 0.25)]), [0, 0, 1]),
         None, ([{1: 0.25}, {0: 0.25}], [0.5, 0.0])),
        # two nodes joined by weight w, at a resolution that leaves the gains
        # w (join) and 0 (stay): gains within 1e-12 tie, and the tie goes to
        # the smaller label, so node 0 stays and node 1 joins it
        *[(f"test_gain_tie_window[{w}]", lambda w=w: _louvain_level(
            *level_graph(2, [(0, 1, w)]), 1e-300, np.arange(2)), None, comm)
          for w, comm in [(5e-13, [0, 0]), (1e-12, [0, 0]), (2e-12, [1, 1])]]],
    "TestExports": [
        ("test_dot_escapes_backslashes", lambda: dot_of(("a\\b",)).splitlines()[1],
         None, '  "a\\\\b" [community=0];')],
    "TestSplitPeriods": [
        ("test_window_outside_range",
         lambda: split_periods(two_ramps(), [(D(1990, 1, 1), D(1990, 6, 1))]),
         AlignmentError,
         "series 'a': window 1990-01-01..1990-06-01 keeps 0 observations (< 2)"),
        ("test_window_with_one_shared_date",
         lambda: split_periods(ONE_SHARED_DATE, [(D(2020, 1, 1), D(2020, 1, 5))]),
         LongmemError, "window 2020-01-01..2020-01-05 leaves 1 shared dates, "
                       "need at least 2"),
        ("test_no_windows", lambda: split_periods(two_ramps(), []), ValueError,
         "need at least one window"),
        ("test_window_with_two_shared_dates",
         lambda: [p.matrix.shape for p in split_periods(
             TWO_SHARED_DATES, [(D(2020, 1, 1), D(2020, 1, 5))])], None, [(2, 5)])],
}
rule_tests(globals(), RULES)
