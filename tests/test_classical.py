"""Commutative seed mutation, d/g/F extraction, exchange graphs."""

from pathlib import Path

import pytest

import valq.exchange
from valq.classical import (
    ClassicalSeed,
    NoConstantTerm,
    cluster_variable_index,
    default_names,
    enumerate_exchange_graph,
    g_from_d,
    graph_to_dot,
    subgraph_is_connected,
    variable_f_polynomial,
    variable_g_vector,
)
from valq.exchange import builtin_exchange_data
from valq.laurent import LaurentPoly, NegativeExponentInF
from valq.verify import PASS, VerifyContext, run_check

from conftest import shift, substitute_monomials

GRAPH_SIZES = {"A2": 5, "B2": 6, "G2": 8, "A3": 14, "B3": 20}
GRAPHS = Path(__file__).resolve().parent / "golden" / "graphs"


def separation_holds(seed, i):
    """Whether variable i of the seed equals its frozen-free degree times
    its frozen polynomial evaluated at the framed-column monomials."""
    n = seed.current.n
    images = [
        tuple(seed.initial.btilde[r][j] for r in range(2 * n))
        for j in range(n)
    ]
    x = seed.variables[i]
    rebuilt = shift(
        substitute_monomials(variable_f_polynomial(x, n), 2 * n, images),
        tuple(variable_g_vector(x, n)) + (0,) * n,
    )
    return rebuilt == x


class TestMutation:
    def test_first_b2_exchange(self, b2):
        s = ClassicalSeed.initial_seed(b2)
        m = s.mutate(0)
        assert m.variables[0].render(default_names(2)) == (
            "x1^-1*x2^2 + x1^-1*y1"
        )

    def test_involution(self):
        # walk_seeds reads a move back along an edge instead of mutating
        # again, which rests on this at every seed and slot.
        for name, depth in [("B2", None), ("B3", None), ("G2", None), ("WILD3", 2)]:
            g = enumerate_exchange_graph(builtin_exchange_data(name), max_depth=depth)
            for s in g.seeds:
                for k in range(s.current.n):
                    back = s.mutate(k).mutate(k)
                    assert back.variables == s.variables
                    assert back.current == s.current

    def test_no_classical_seed_mutates_a_form(self, monkeypatch):
        # The commutative exchange never reads the skew form, so neither
        # a classical walk nor the sink-source pairing carries one.
        def refuse(*args):
            raise AssertionError("a classical seed mutated a form")

        monkeypatch.setattr(valq.exchange, "mutate_lam", refuse)
        ctx = VerifyContext(builtin_exchange_data("B3"))
        assert run_check("sink-source-reflection", ctx).status == PASS
        assert all(s.current.lam is None for s in ctx.classical_graph().seeds)

    def test_variables_are_laurent_with_positive_coefficients(self, b3):
        s = ClassicalSeed.initial_seed(b3).mutate_sequence([0, 1, 2, 1, 0])
        for v in s.variables:
            assert all(c > 0 for c in v.terms.values())

    def test_quantum_classical_agreement(self, b2):
        from valq.qtorus import QuantumSeed

        seq = [0, 1, 0, 1]
        cs = ClassicalSeed.initial_seed(b2).mutate_sequence(seq)
        qs = QuantumSeed.initial_seed(b2).mutate_sequence(seq)
        for i in range(2):
            assert qs.variables[i].specialize_q1() == cs.variables[i]


class TestInvariantExtraction:
    def b2_table(self, b2):
        table = {}
        for seed in enumerate_exchange_graph(b2).seeds:
            for i in range(2):
                d = seed.d_vector(i)
                if not all(x <= 0 for x in d):
                    x = seed.variables[i]
                    table.setdefault(
                        d,
                        (
                            variable_f_polynomial(x, 2).render(["y1", "y2"]),
                            variable_g_vector(x, 2),
                        ),
                    )
        return table

    def test_b2_d_vectors(self, b2):
        assert set(self.b2_table(b2)) == {(1, 0), (1, 1), (1, 2), (0, 1)}

    def test_b2_f_polynomials(self, b2):
        table = self.b2_table(b2)
        assert table[(1, 0)][0] == "y1 + 1"
        assert table[(1, 1)][0] == "y1*y2 + y1 + 1"
        assert table[(1, 2)][0] == "y1*y2^2 + 2*y1*y2 + y1 + 1"
        assert table[(0, 1)][0] == "y2 + 1"

    def test_b2_g_vectors(self, b2):
        table = self.b2_table(b2)
        assert table[(1, 0)][1] == (-1, 2)
        assert table[(1, 1)][1] == (-1, 1)
        assert table[(1, 2)][1] == (-1, 0)
        assert table[(0, 1)][1] == (0, -1)

    def test_g_from_d_matches_extraction(self, b2):
        for d, (_, g) in self.b2_table(b2).items():
            assert g_from_d(b2, d) == g

    def test_initial_variable_invariants(self, b2):
        s = ClassicalSeed.initial_seed(b2)
        assert s.d_vector(0) == (-1, 0)
        assert variable_f_polynomial(s.variables[0], 2) == LaurentPoly.one(2)
        assert variable_g_vector(s.variables[0], 2) == (1, 0)

    def test_separation_holds_across_seeds(self, b2):
        for seed in enumerate_exchange_graph(b2).seeds:
            for i in range(2):
                assert separation_holds(seed, i)

    def test_f_polynomial_guards(self):
        # A frozen variable with negative exponent cannot be an F-polynomial.
        bad = LaurentPoly(4, {(0, 0, -1, 0): 1})
        with pytest.raises(NegativeExponentInF):
            variable_f_polynomial(bad, 2)
        # Missing constant term.
        with pytest.raises(NoConstantTerm):
            variable_f_polynomial(LaurentPoly(4, {(0, 0, 1, 0): 1}), 2)

    def test_g_vector_needs_unique_frozen_free_term(self):
        two_terms = LaurentPoly(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1})
        with pytest.raises(ValueError):
            variable_g_vector(two_terms, 2)


class TestExchangeGraph:
    @pytest.mark.parametrize("name,size", sorted(GRAPH_SIZES.items()))
    def test_known_graph_sizes(self, name, size):
        g = enumerate_exchange_graph(builtin_exchange_data(name))
        assert g.count == size and not g.truncated
        # Every seed has one neighbor per mutable vertex.
        n = builtin_exchange_data(name).n
        assert len(g.edges) == size * n // 2

    def test_truncation(self, b3):
        g = enumerate_exchange_graph(b3, max_depth=2)
        assert g.truncated and g.count < 20

    def test_quantum_graph_has_same_size(self, g2):
        from valq.qtorus import enumerate_quantum_seeds

        assert enumerate_quantum_seeds(g2).count == enumerate_exchange_graph(g2).count

    def test_cluster_variable_index(self, b2):
        g = enumerate_exchange_graph(b2)
        index = cluster_variable_index(g)
        # 4 mutable variables plus the 2 initial ones.
        assert len(index) == 6
        for poly, nodes in index.items():
            # A variable appears in exactly the seeds listing it.
            for idx in nodes:
                assert poly in g.seeds[idx].variables

    def test_two_variable_graphs_are_cycles(self, b2):
        # Every cluster variable of a rank-2 algebra lives in exactly
        # two adjacent seeds.
        g = enumerate_exchange_graph(b2)
        index = cluster_variable_index(g)
        adjacency = set()
        for a, c in g.edges:
            adjacency.add((a, c))
            adjacency.add((c, a))
        for poly, nodes in index.items():
            assert len(nodes) == 2
            a, c = sorted(nodes)
            assert (a, c) in adjacency

    def test_subgraph_connectivity(self, b2):
        # The B2 exchange graph is a hexagon: the full node set and any
        # single node are connected, two nodes at distance two are not.
        g = enumerate_exchange_graph(b2)
        all_nodes = set(range(g.count))
        assert subgraph_is_connected(g, all_nodes)
        assert subgraph_is_connected(g, {3})
        neighbors = {i: set() for i in range(g.count)}
        for a, c in g.edges:
            neighbors[a].add(c)
            neighbors[c].add(a)
        far = min(
            v
            for v in all_nodes
            if v != 0 and v not in neighbors[0]
        )
        assert not subgraph_is_connected(g, {0, far})
        assert subgraph_is_connected(g, {0, far} | neighbors[0])

    def test_dot_export(self, b2):
        g = enumerate_exchange_graph(b2)
        dot = graph_to_dot(g)
        assert dot.startswith("graph exchange {")
        assert dot.count("--") == len(g.edges)
        assert dot.rstrip().endswith("}")

    @pytest.mark.parametrize("name", ["A2", "B2", "C2", "G2", "A3", "B3"])
    def test_dot_is_the_committed_file(self, name):
        # Edges come from the walk's recorded moves.
        g = enumerate_exchange_graph(builtin_exchange_data(name))
        assert graph_to_dot(g) == (GRAPHS / ("%s.dot" % name.lower())).read_text()
