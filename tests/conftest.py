"""Shared fixtures and test oracles.

Verification contexts memoize exchange graphs and character tables, so
one context per matrix type is shared across every test module via the
``ctx_for`` fixture.  Building them is the dominant cost of the suite.
"""

import pytest

from valq.exchange import builtin_exchange_data
from valq.finfield import f_rank
from valq.laurent import LaurentPoly
from valq.qtorus import GraphResult
from valq.verify import VerifyContext

_CACHE = {}


def context_for(name, **kwargs):
    key = (name, tuple(sorted(kwargs.items())))
    if key not in _CACHE:
        _CACHE[key] = VerifyContext(
            builtin_exchange_data(name), name=name, **kwargs
        )
    return _CACHE[key]


def is_bar_invariant(x):
    """Whether the bar involution fixes the torus element x."""
    return x == x.bar()


def f_in_span(field, rows, v):
    """Whether v lies in the row span of rows."""
    return f_rank(field, list(rows) + [v]) == f_rank(field, rows)


def shift(poly, exp):
    """``poly`` times the monomial with exponent vector ``exp``."""
    return poly * LaurentPoly(poly.nvars, {tuple(exp): 1})


def substitute_monomials(poly, nvars, images):
    """``poly`` with variable i sent to the monomial of an
    ``nvars``-variable ring whose exponent vector is ``images[i]``."""
    out = LaurentPoly.zero(nvars)
    for exp, c in poly.exponent_terms().items():
        e = tuple(
            sum(v * im[j] for v, im in zip(exp, images)) for j in range(nvars)
        )
        out = out + LaurentPoly(nvars, {e: c})
    return out


def count_products(monkeypatch, cls):
    """Record every ``cls.__mul__`` call from now on; returns the list
    the calls are appended to."""
    calls = []
    real = cls.__mul__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    return calls


def reference_walk(start, n, max_depth, max_seeds):
    """The breadth-first walk that ``qtorus.walk_seeds`` must reproduce,
    mutating every seed in every direction: it crosses each edge both
    ways and reads nothing back."""
    index = {start.canonical_key(): 0}
    seeds = [start]
    moves = {}
    frontier = [(start, 0)]
    truncated = False
    while frontier:
        new_frontier = []
        for seed, idx in frontier:
            if max_depth is not None and seed.depth >= max_depth:
                truncated = True
                continue
            for k in range(n):
                nxt = seed.mutate(k)
                key = nxt.canonical_key()
                j = index.get(key)
                if j is None:
                    if len(seeds) >= max_seeds:
                        truncated = True
                        continue
                    j = index[key] = len(seeds)
                    seeds.append(nxt)
                    new_frontier.append((nxt, j))
                moves[(idx, k)] = j
        frontier = new_frontier
    return GraphResult(seeds=seeds, moves=moves, index=index, truncated=truncated)


@pytest.fixture(scope="session")
def ctx_for():
    return context_for


@pytest.fixture(scope="session")
def b2():
    return builtin_exchange_data("B2")


@pytest.fixture(scope="session")
def g2():
    return builtin_exchange_data("G2")


@pytest.fixture(scope="session")
def a3():
    return builtin_exchange_data("A3")


@pytest.fixture(scope="session")
def b3():
    return builtin_exchange_data("B3")
