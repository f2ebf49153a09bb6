"""Commutative cluster engine with principal framing.

Seeds hold their 2n variables as exact Laurent polynomials in the
initial cluster (n mutable x's followed by n frozen y's).  Exchange is
literal: the new variable is an exact Laurent division, never a formal
fraction, so the Laurent property is re-proved on every distinct
exchange relation.
"""

from .exchange import ExchangeData, star_left_matrix
from .laurent import LaurentPoly, NegativeExponentInF, exact_div
from .qtorus import Seed, walk_seeds


class NoConstantTerm(ValueError):
    """A polynomial expected to have constant term 1 does not."""


def default_names(n):
    return ["x%d" % (i + 1) for i in range(n)] + [
        "y%d" % (i + 1) for i in range(n)
    ]


def variable_f_polynomial(poly, n):
    """Frozen part of a 2n-variable expansion: mutable variables set to 1,
    result re-indexed to the n frozen slots.  Exponents must come out
    nonnegative with constant term 1."""
    out = poly.specialize_ones(range(n)).drop_vars(range(n, 2 * n))
    mins = out.min_exponents()
    if any(m < 0 for m in mins):
        raise NegativeExponentInF("frozen exponents must be nonnegative")
    if out.coefficient((0,) * n) != 1:
        raise NoConstantTerm(
            "constant term is %d" % out.coefficient((0,) * n)
        )
    return out


def variable_g_vector(poly, n):
    """Mutable degree of the unique frozen-free term, which must have
    coefficient 1."""
    found = None
    for exp, coeff in poly.exponent_terms().items():
        if all(exp[j] == 0 for j in range(n, 2 * n)):
            if found is not None:
                raise ValueError("frozen-free term is not unique")
            if coeff != 1:
                raise ValueError(
                    "frozen-free term has coefficient %d" % coeff
                )
            found = exp[:n]
    if found is None:
        raise ValueError("no frozen-free term")
    return found


class ClassicalSeed(Seed):
    """A commutative seed: framed matrix, no form, expanded cluster."""

    __slots__ = ()

    @classmethod
    def initial_seed(cls, data):
        size = 2 * data.n
        variables = tuple(
            LaurentPoly.variable(size, i) for i in range(size)
        )
        current = ExchangeData(data.n, data.btilde, data.diag, None)
        return cls(initial=data, current=current, variables=variables)

    def cluster_monomial(self, c):
        """Product of current variables with nonnegative exponents c."""
        size = 2 * self.current.n
        out = LaurentPoly.one(size)
        for i, e in enumerate(c):
            if e < 0:
                raise ValueError("cluster monomial needs nonnegative exponents")
            if e:
                out = out * self.variables[i] ** e
        return out

    def _exchange(self, k):
        cur = self.current
        size = 2 * cur.n
        col = tuple(cur.btilde[i][k] for i in range(size))
        bp = tuple(max(x, 0) for x in col)
        bm = tuple(max(-x, 0) for x in col)
        return exact_div(
            self.cluster_monomial(bp) + self.cluster_monomial(bm),
            self.variables[k],
        )

    def d_vector(self, i):
        """Denominator vector of variable i in the initial cluster."""
        return self.variables[i].denominator_vector(upto=self.current.n)


def g_from_d(data, d):
    """The degree vector forced by a nonnegative denominator vector."""
    e = star_left_matrix(data.btilde[: data.n])
    return tuple(
        -sum(e[i][j] * d[j] for j in range(data.n)) for i in range(data.n)
    )


def enumerate_exchange_graph(data, max_depth=None, max_seeds=10000):
    """Breadth-first walk of the commutative exchange graph."""
    return walk_seeds(
        ClassicalSeed.initial_seed(data), data.n, max_depth, max_seeds
    )


def cluster_variable_index(result):
    """Map each distinct mutable variable to the seed indices holding it."""
    where = {}
    for idx, seed in enumerate(result.seeds):
        for i in range(seed.current.n):
            key = seed.variables[i]
            where.setdefault(key, set()).add(idx)
    return where


def subgraph_is_connected(result, node_set):
    """Connectivity of the induced subgraph on the given seed indices."""
    nodes = set(node_set)
    if not nodes:
        return True
    adjacency = {v: set() for v in nodes}
    for (a, _), b in result.moves.items():
        if a in nodes and b in nodes:
            adjacency[a].add(b)
            adjacency[b].add(a)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == nodes


def graph_to_dot(result):
    lines = ["graph exchange {"]
    for idx, seed in enumerate(result.seeds):
        lines.append(
            '  n%d [label="seed %d (depth %d)"];' % (idx, idx, seed.depth)
        )
    for edge in sorted(tuple(sorted(e)) for e in result.edges):
        lines.append("  n%d -- n%d;" % edge)
    lines.append("}")
    return "\n".join(lines)
