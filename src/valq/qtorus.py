"""Quantum torus elements and quantum seed mutation.

The torus is based: elements are finite sums of bar-invariant basis
monomials X^a (a in Z^{2n}) with coefficients in the u-Laurent ring
Z[u, 1/u], u**2 = q, multiplying by X^a * X^b = u^(a^T L b) * X^(a+b)
for the fixed skew form L.  A coefficient is a plain dict from
u-exponents to nonzero ints, and an element maps exponent tuples to
nonempty coefficients.  No operation changes a coefficient dict that
an element already holds, so elements may share them.  Elements extend
the sparse-term core of ``valq.laurent``, so powers, exponent ranges,
denominator vectors and the division loop are shared with
``LaurentPoly``; right division adds only its twisted elimination step.  Quantum seeds
keep their cluster variables expanded in the initial torus, so
mutation needs one exact right division per step.
"""

from dataclasses import dataclass
from operator import attrgetter, mul

from .laurent import (
    LaurentPoly,
    SparseTerms,
    ZeroPolynomial,
    _vec_add,
    exact_div,
)


class LambdaMismatch(ValueError):
    """Operands live over different skew forms."""


_ONE = {0: 1}


def _coeff(value):
    """A coefficient dict from an int or a {u-exponent: int} mapping."""
    if isinstance(value, int):
        return {0: value} if value else {}
    return {int(k): int(c) for k, c in value.items() if c}


def _add_product(acc, a, b, shift):
    """Add a * b * u**shift into the coefficient dict ``acc``."""
    for ka, ca in a.items():
        ka += shift
        for kb, cb in b.items():
            k = ka + kb
            s = acc.get(k, 0) + ca * cb
            if s:
                acc[k] = s
            else:
                del acc[k]


def _u_poly(coeff, shift=0):
    """A coefficient times u**shift, as a one-variable ``LaurentPoly``."""
    return LaurentPoly._trusted(1, {(k + shift,): c for k, c in coeff.items()})


def render_coeff(coeff):
    """A coefficient as text, highest power of u first: ``u + u^-1``."""
    return _u_poly(coeff).render(["u"])


class QTorusElem(SparseTerms):
    """Element of the based quantum torus attached to a skew form.

    The constructor takes ``terms`` as they are; build elements from
    outside data with ``zero``, ``one`` and ``basis_elem``.
    """

    __slots__ = ("lam", "nvars", "terms", "_hash")

    def __init__(self, lam, terms):
        self.lam = lam
        self.nvars = len(lam)
        self.terms = terms
        self._hash = None

    @classmethod
    def one(cls, lam):
        return cls.basis_elem(lam, (0,) * len(lam))

    @classmethod
    def basis_elem(cls, lam, exp, coeff=1):
        """``coeff * X^exp``; ``coeff`` is an int or a {u-exponent: int}
        mapping."""
        exp = tuple(int(e) for e in exp)
        if len(exp) != len(lam):
            raise LambdaMismatch("exponent length mismatch")
        coeff = _coeff(coeff)
        return cls(lam, {exp: coeff} if coeff else {})

    ring = property(attrgetter("lam"))

    def _like(self, terms):
        return QTorusElem(self.lam, terms)

    @staticmethod
    def _coeff_inverse(coeff):
        # The units of Z[u, 1/u] are the signed powers of u.
        return {k: c for (k,), c in (_u_poly(coeff) ** -1).terms.items()}

    def _check(self, other):
        if self.lam is not other.lam and self.lam != other.lam:
            raise LambdaMismatch("different skew forms")

    def _lam_dot(self, b):
        """The vector L*b, so that a^T L b is its dot product with a."""
        return tuple(sum(map(mul, row, b)) for row in self.lam)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            if exp in out:
                s = dict(out[exp])
                _add_product(s, c, _ONE, 0)
                if s:
                    out[exp] = s
                else:
                    del out[exp]
            else:
                out[exp] = c
        return QTorusElem(self.lam, out)

    def __neg__(self):
        return QTorusElem(
            self.lam,
            {e: {k: -x for k, x in c.items()} for e, c in self.terms.items()},
        )

    def __mul__(self, other):
        self._check(other)
        out = {}
        for eb, cb in other.terms.items():
            lb = self._lam_dot(eb)
            for ea, ca in self.terms.items():
                e = _vec_add(ea, eb)
                acc = out.get(e)
                if acc is None:
                    acc = out[e] = {}
                _add_product(acc, ca, cb, sum(map(mul, ea, lb)))
        return QTorusElem(self.lam, {e: c for e, c in out.items() if c})

    def scale(self, coeff):
        """Multiply every coefficient by ``coeff`` (an int or a
        {u-exponent: int} mapping)."""
        coeff = _coeff(coeff)
        out = {}
        for e, c in self.terms.items():
            acc = {}
            _add_product(acc, c, coeff, 0)
            if acc:
                out[e] = acc
        return QTorusElem(self.lam, out)

    def shift_u(self, k):
        """Multiply by u**k."""
        return QTorusElem(
            self.lam,
            {e: {j + k: x for j, x in c.items()} for e, c in self.terms.items()},
        )

    def bar(self):
        """Bar involution: u -> 1/u in every coefficient, basis fixed."""
        return QTorusElem(
            self.lam,
            {e: {-k: x for k, x in c.items()} for e, c in self.terms.items()},
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (
                    self.lam,
                    frozenset(
                        (e, frozenset(c.items())) for e, c in self.terms.items()
                    ),
                )
            )
        return self._hash

    def div_right(self, den):
        """Exact right quotient: the element Q with self == Q * den.

        Runs the shared leading-term elimination.  Its step divides the
        twisted leading coefficient by ``exact_div`` in one variable u,
        whose own box bound decides exactness there.
        """
        self._check(den)
        if den.is_zero():
            raise ZeroPolynomial("division by zero")
        den_lead = max(den.terms)
        den_lead_poly = _u_poly(den.terms[den_lead])
        lead_dot = self._lam_dot(den_lead)
        den_terms = [(e, c, self._lam_dot(e)) for e, c in den.terms.items()]

        def step(rem, q_exp, lead_coeff):
            twist = sum(map(mul, q_exp, lead_dot))
            q_poly = exact_div(_u_poly(lead_coeff, -twist), den_lead_poly)
            neg_q = {k: -c for (k,), c in q_poly.terms.items()}
            for e, dc, e_dot in den_terms:
                t = _vec_add(q_exp, e)
                acc = dict(rem.get(t, ()))
                _add_product(acc, neg_q, dc, sum(map(mul, q_exp, e_dot)))
                if acc:
                    rem[t] = acc
                else:
                    del rem[t]
            return {k: c for (k,), c in q_poly.terms.items()}

        return self._divide(den, den_lead, step)

    def specialize_q1(self):
        """Set u to 1, landing in the commutative Laurent ring."""
        return LaurentPoly(
            self.nvars, {e: sum(c.values()) for e, c in self.terms.items()}
        )

    def sorted_terms(self):
        return [(e, self.terms[e]) for e in sorted(self.terms, reverse=True)]

    def sort_key(self):
        """A total order on the elements of one torus, from their terms."""
        return tuple(
            (e, tuple(sorted(self.terms[e].items())))
            for e in sorted(self.terms)
        )

    def render(self):
        if not self.terms:
            return "0"
        pieces = []
        for exp, coeff in self.sorted_terms():
            mono = "X^(%s)" % ",".join(str(e) for e in exp)
            cs = render_coeff(coeff)
            if cs == "1":
                pieces.append(mono)
            elif len(coeff) == 1 and not cs.startswith("-"):
                pieces.append("%s*%s" % (cs, mono))
            else:
                pieces.append("(%s)*%s" % (cs, mono))
        return " + ".join(pieces)

    def __repr__(self):
        return "QTorusElem(%s)" % self.render()


@dataclass(frozen=True)
class Seed:
    """A seed with its cluster expanded in the initial one.

    ``initial`` is the starting exchange data, ``current`` the data after
    the mutations in ``history``, and ``variables`` lists the n mutable
    cluster variables followed by the n frozen ones (the frozen block
    never changes).  Subclasses supply ``mutate``, which with ``depth``
    and ``canonical_key`` is what ``walk_seeds`` needs.  Variables must
    be hashable and have a ``sort_key()``, as the key uses both.
    """

    initial: object
    current: object
    variables: tuple
    history: tuple = ()

    @property
    def depth(self):
        return len(self.history)

    def _exchanged(self, k, new_var):
        """The seed mutated at k, given its new k-th variable."""
        variables = list(self.variables)
        variables[k] = new_var
        return type(self)(
            initial=self.initial,
            current=self.current.mutate(k),
            variables=tuple(variables),
            history=self.history + (k,),
        )

    def canonical_key(self):
        """Key identifying the seed up to renumbering its cluster: the
        mutable variables in ``sort_key`` order, with the framed matrix
        and the skew form permuted to match."""
        n = self.current.n
        mutable = self.variables[:n]
        order = sorted(range(n), key=lambda i: mutable[i].sort_key())
        perm = order + list(range(n, 2 * n))
        bt = self.current.btilde
        lam = self.current.lam
        return (
            tuple(mutable[i] for i in order),
            tuple(tuple(bt[i][j] for j in order) for i in perm),
            tuple(tuple(lam[i][j] for j in perm) for i in perm),
        )

    def mutate_sequence(self, seq):
        seed = self
        for k in seq:
            seed = seed.mutate(k)
        return seed


class QuantumSeed(Seed):
    """A quantum seed with variables expanded in the initial torus, whose
    skew form ``initial.lam`` fixes the ambient torus."""

    @classmethod
    def initial_seed(cls, data):
        size = 2 * data.n
        variables = tuple(
            QTorusElem.basis_elem(
                data.lam, tuple(1 if j == i else 0 for j in range(size))
            )
            for i in range(size)
        )
        return cls(initial=data, current=data, variables=variables)

    def frame_monomial(self, c):
        """The bar-invariant ordered monomial of the current cluster.

        Mutable entries of c must be nonnegative unless the variable is
        still a basis monomial; frozen entries may have either sign.
        """
        c = tuple(int(x) for x in c)
        size = 2 * self.current.n
        if len(c) != size:
            raise LambdaMismatch("frame exponent has wrong length")
        lam = self.current.lam
        twist = 0
        for i in range(size):
            if c[i]:
                for j in range(i + 1, size):
                    if c[j] and lam[i][j]:
                        twist += lam[i][j] * c[i] * c[j]
        out = QTorusElem.basis_elem(self.initial.lam, (0,) * size, {-twist: 1})
        for i in range(size):
            if c[i]:
                out = out * self.variables[i] ** c[i]
        return out

    def mutate(self, k):
        cur = self.current
        n = cur.n
        size = 2 * n
        col = tuple(cur.btilde[i][k] for i in range(size))
        bp = tuple(max(x, 0) for x in col)
        bm = tuple(max(-x, 0) for x in col)
        eps = tuple(1 if i == k else 0 for i in range(size))
        lam_col = tuple(cur.lam[i][k] for i in range(size))

        def twist(c):
            return sum((c[i] - eps[i]) * lam_col[i] for i in range(size))

        rhs = self.frame_monomial(bp).shift_u(twist(bp)) + self.frame_monomial(
            bm
        ).shift_u(twist(bm))
        return self._exchanged(k, rhs.div_right(self.variables[k]))


@dataclass
class GraphResult:
    """Outcome of an exchange graph walk."""

    seeds: list
    edges: set
    truncated: bool

    @property
    def count(self):
        return len(self.seeds)


def walk_seeds(start, n, max_depth, max_seeds):
    """Breadth-first walk of an exchange graph from ``start``.

    Seeds need ``mutate(k)`` for k in range(n), ``depth`` and
    ``canonical_key()``; seeds with equal keys are one vertex.  The walk
    is truncated (and flagged) when a depth or seed cap is hit.
    """
    seen = {start.canonical_key(): 0}
    seeds = [start]
    edges = set()
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
                if key in seen:
                    j = seen[key]
                    if j != idx:
                        edges.add(frozenset((idx, j)))
                    continue
                if len(seeds) >= max_seeds:
                    truncated = True
                    continue
                seen[key] = len(seeds)
                edges.add(frozenset((idx, len(seeds))))
                seeds.append(nxt)
                new_frontier.append((nxt, len(seeds) - 1))
        frontier = new_frontier
    return GraphResult(seeds=seeds, edges=edges, truncated=truncated)


def enumerate_quantum_seeds(data, max_depth=None, max_seeds=10000):
    """Breadth-first walk of the quantum exchange graph, with seeds
    identified up to cluster renumbering."""
    return walk_seeds(
        QuantumSeed.initial_seed(data), data.n, max_depth, max_seeds
    )
