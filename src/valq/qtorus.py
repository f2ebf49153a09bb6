"""Quantum torus elements and quantum seed mutation.

The torus is based: elements are finite sums of bar-invariant basis
monomials X^a (a in Z^{2n}) with coefficients in the u-Laurent ring
Z[u, 1/u], u**2 = q, multiplying by X^a * X^b = u^(a^T L b) * X^(a+b)
for the fixed skew form L.  A coefficient is a plain dict from
u-exponents to nonzero ints, and an element maps packed exponent keys
(see ``valq.laurent``) to nonempty coefficients.  No operation changes
a coefficient dict that an element already holds, so elements may share
them.  Elements extend the sparse-term core of ``valq.laurent``, so
powers, exponent ranges, denominator vectors and the division loop are
shared with ``LaurentPoly``; right division adds only its twisted
elimination step.  Every sum and product of coefficients, twisted or
not, runs the multiply-accumulate ``_add_product`` of ``valq.laurent``.
Quantum seeds keep their cluster variables expanded in the initial
torus, so mutation needs one exact right division per distinct exchange
relation: seeds mutated from one initial seed share the relations
already divided, each read in both directions.  A divisor whose leading
coefficient is a unit, a signed power of u, divides that coefficient by
a shift and a sign.  A frame monomial, the ordered product of powers of
one cluster's variables, folds the factors that are still basis
monomials with coefficient 1 into one basis element in front of the
others, using the quasi-commutation of one cluster's variables, and
multiplies only the rest.
"""

from dataclasses import dataclass, field
from operator import attrgetter, itemgetter, mul

from .laurent import (
    LaurentPoly,
    SparseTerms,
    ZeroPolynomial,
    _ONE,
    _add_product,
    _layout,
    exact_div,
    univariate,
    univariate_coeffs,
)


class LambdaMismatch(ValueError):
    """Operands live over different skew forms."""


def _coeff(value):
    """A coefficient dict from an int or a {u-exponent: int} mapping."""
    if isinstance(value, int):
        return {0: value} if value else {}
    return {int(k): int(c) for k, c in value.items() if c}


def render_coeff(coeff):
    """A coefficient as text, highest power of u first: ``u + u^-1``."""
    return univariate(coeff).render(["u"])


class QTorusElem(SparseTerms):
    """Element of the based quantum torus attached to a skew form.

    The constructor takes packed ``terms`` and their exponent ``bound``
    as they are; build elements from outside data with ``zero``, ``one``
    and ``basis_elem``.
    """

    __slots__ = ("lam", "nvars", "terms", "_bound", "_hash")

    def __init__(self, lam, terms, bound):
        self.lam = lam
        self.nvars = len(lam)
        self.terms = terms
        self._bound = bound
        self._hash = None

    @classmethod
    def zero(cls, lam):
        return cls(lam, {}, 0)

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
        if not coeff:
            return cls.zero(lam)
        key = _layout(len(lam)).pack(exp)
        return cls(lam, {key: coeff}, max(map(abs, exp), default=0))

    ring = property(attrgetter("lam"))

    def _like(self, terms, bound):
        return QTorusElem(self.lam, terms, bound)

    @staticmethod
    def _coeff_inverse(coeff):
        # The units of Z[u, 1/u] are the signed powers of u.
        return univariate_coeffs(univariate(coeff) ** -1)

    def _check(self, other):
        if self.lam is not other.lam and self.lam != other.lam:
            raise LambdaMismatch("different skew forms")

    def _lam_dot(self, b):
        """The vector L*b, so that a^T L b is its dot product with a."""
        return tuple([sum(map(mul, row, b)) for row in self.lam])

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
        return self._like(out, max(self._bound, other._bound))

    def __neg__(self):
        return self._like(
            {e: {k: -x for k, x in c.items()} for e, c in self.terms.items()},
            self._bound,
        )

    def __mul__(self, other):
        """The twisted product; each left exponent is unpacked once."""
        self._check(other)
        bound = self._product_bound(other)
        lay = _layout(self.nvars)
        unpack = lay.unpack
        left = [(ka - lay.bias, ca, unpack(ka)) for ka, ca in self.terms.items()]
        out = {}
        for kb, cb in other.terms.items():
            lb = self._lam_dot(unpack(kb))
            for ka, ca, ea in left:
                e = ka + kb
                acc = out.get(e)
                if acc is None:
                    acc = out[e] = {}
                _add_product(acc, ca, cb, sum(map(mul, ea, lb)))
        return self._like({e: c for e, c in out.items() if c}, bound)

    def translate(self, exp, k):
        """``u**k * X^exp * self`` for an exponent tuple ``exp``: each term
        X^b moves to X^(exp+b), its coefficient shifted by k + exp^T L b."""
        lay = _layout(self.nvars)
        unpack = lay.unpack
        mono = QTorusElem.basis_elem(self.lam, exp)
        (key,) = mono.terms
        key -= lay.bias
        # exp^T L, so that exp^T L b is its dot product with b
        row = [sum(map(mul, exp, col)) for col in zip(*self.lam)]
        out = {}
        for kb, cb in self.terms.items():
            shift = k + sum(map(mul, row, unpack(kb)))
            out[key + kb] = {j + shift: x for j, x in cb.items()}
        return self._like(out, mono._product_bound(self))

    def basis_exponent(self):
        """The exponent tuple a when the element is X^a with coefficient
        1, else None."""
        if len(self.terms) == 1:
            ((key, coeff),) = self.terms.items()
            if coeff == _ONE:
                return _layout(self.nvars).unpack(key)
        return None

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
        return self._like(out, self._bound)

    def shift_u(self, k):
        """Multiply by u**k."""
        return self._like(
            {e: {j + k: x for j, x in c.items()} for e, c in self.terms.items()},
            self._bound,
        )

    def bar(self):
        """Bar involution: u -> 1/u in every coefficient, basis fixed."""
        return self._like(
            {e: {-k: x for k, x in c.items()} for e, c in self.terms.items()},
            self._bound,
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

        Runs the shared leading-term elimination, unpacking each quotient
        exponent once for the twists.  Its step divides the twisted
        leading coefficient by den's.  When that is a unit +-u^k the
        quotient coefficient is the shift by -k and the sign; otherwise
        ``exact_div`` in one variable u divides, and its own box bound
        decides exactness there.
        """
        self._check(den)
        if den.is_zero():
            raise ZeroPolynomial("division by zero")
        lay = _layout(self.nvars)
        unpack = lay.unpack
        den_lead = max(den.terms)
        den_lead_coeff = den.terms[den_lead]
        if len(den_lead_coeff) == 1 and abs(*den_lead_coeff.values()) == 1:
            ((unit_pow, sign),) = den_lead_coeff.items()
            den_lead_poly = None
        else:
            den_lead_poly = univariate(den_lead_coeff)
        lead_dot = self._lam_dot(unpack(den_lead))
        den_terms = [
            (e - lay.bias, c, self._lam_dot(unpack(e)))
            for e, c in den.terms.items()
        ]

        def step(rem, q_key, lead_coeff):
            q_exp = unpack(q_key)
            twist = sum(map(mul, q_exp, lead_dot))
            if den_lead_poly is None:
                shift = twist + unit_pow
                q_coeff = {j - shift: sign * c for j, c in lead_coeff.items()}
            else:
                q_coeff = univariate_coeffs(
                    exact_div(univariate(lead_coeff, -twist), den_lead_poly)
                )
            neg_q = {k: -c for k, c in q_coeff.items()}
            for e, dc, e_dot in den_terms:
                t = q_key + e
                acc = dict(rem.get(t, ()))
                _add_product(acc, neg_q, dc, sum(map(mul, q_exp, e_dot)))
                if acc:
                    rem[t] = acc
                else:
                    del rem[t]
            return q_coeff

        return self._divide(den, den_lead, step)

    def specialize_q1(self):
        """Set u to 1, landing in the commutative Laurent ring; the keys
        carry over as they are."""
        out = {}
        for e, c in self.terms.items():
            s = sum(c.values())
            if s:
                out[e] = s
        return LaurentPoly._trusted(self.nvars, out, self._bound)

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs, highest exponent first."""
        unpack = _layout(self.nvars).unpack
        return [
            (unpack(e), self.terms[e]) for e in sorted(self.terms, reverse=True)
        ]

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
    never changes).  Variables must be hashable and have a
    ``sort_key()``, as the key uses both.

    ``exchanges`` maps the key of an exchange relation to its new
    variable, and each variable it computed to itself, so that two
    relations giving equal variables keep one object.  An initial seed
    starts it, and every seed mutated from that seed shares it, so each
    relation of an algebra is computed once.  Subclasses supply
    ``_exchange_key(k)``, which must fix the division that
    ``_exchange(k)`` makes for the new k-th variable.
    """

    initial: object
    current: object
    variables: tuple
    history: tuple = ()
    exchanges: dict = field(default_factory=dict, compare=False, repr=False)

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
            exchanges=self.exchanges,
        )

    def mutate(self, k):
        """The seed mutated at k.  Its new variable is read from
        ``exchanges`` when a seed of this algebra already made the same
        exchange, and computed by ``_exchange`` otherwise.  Mutation is
        an involution, so the new seed's exchange at k, which gives back
        this seed's k-th variable, is stored too."""
        key = self._exchange_key(k)
        new_var = self.exchanges.get(key)
        if new_var is None:
            computed = self._exchange(k)
            new_var = self.exchanges.setdefault(computed, computed)
            self.exchanges[key] = new_var
        seed = self._exchanged(k, new_var)
        self.exchanges[seed._exchange_key(k)] = self.variables[k]
        return seed

    def canonical_key(self):
        """Key identifying the seed up to renumbering its cluster: the
        mutable variables in ``sort_key`` order, with the framed matrix
        and the skew form permuted to match."""
        n = self.current.n
        mutable = self.variables[:n]
        order = sorted(range(n), key=lambda i: mutable[i].sort_key())
        rows = itemgetter(*order, *range(n, 2 * n))
        # One column needs no permuting (and itemgetter of one index
        # returns an item, not a tuple).
        cols = itemgetter(*order) if n > 1 else tuple
        return (
            rows(self.variables)[:n],
            tuple(map(cols, rows(self.current.btilde))),
            tuple(map(rows, rows(self.current.lam))),
        )

    def slot_of(self, other, k):
        """The mutable slot of this seed that holds ``other``'s k-th
        variable."""
        return self.variables[: self.current.n].index(other.variables[k])

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
        """The bar-invariant ordered monomial of the current cluster,
        u^-t X_1^c_1 ... X_2n^c_2n with t the sum over i < j of
        lambda_ij c_i c_j, for the current skew form lambda.

        Mutable entries of c must be nonnegative unless the variable is
        still a basis monomial; frozen entries may have either sign.

        The factors whose variable is still a basis monomial X^a with
        coefficient 1 fold into one basis element in front of the
        others.  Variables of one cluster quasi-commute, X_i X_j =
        u^(2 lambda_ij) X_j X_i, so moving X_i^c_i left past X_j^c_j
        pays u^(2 lambda_ji c_j c_i).  Only the other factors are
        multiplied, in order, and the folded element translates their
        product.
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
        shift = -twist
        folded = (0,) * size
        rest = []
        for i in range(size):
            if not c[i]:
                continue
            var = self.variables[i]
            a = var.basis_exponent()
            if a is None:
                rest.append(i)
                continue
            # X^folded * X^(c_i a) = u^(c_i folded^T L a) X^(folded + c_i a)
            shift += c[i] * sum(map(mul, folded, var._lam_dot(a)))
            shift += 2 * c[i] * sum(lam[j][i] * c[j] for j in rest)
            folded = tuple(x + c[i] * y for x, y in zip(folded, a))
        out = None
        for j in rest:
            power = self.variables[j] ** c[j]
            out = power if out is None else out * power
        if out is None:
            return QTorusElem.basis_elem(self.initial.lam, folded, {shift: 1})
        return out.translate(folded, shift)

    def _exchange_key(self, k):
        """X_k, the variable, b_ik and lambda_ik of each slot i where b_ik
        is nonzero, in slot order, and lambda_ij among those slots, in
        one flat tuple: all that ``frame_monomial`` and the twists read.
        Its length fixes the number of slots."""
        cur = self.current
        lam = cur.lam
        slots = [i for i, row in enumerate(cur.btilde) if row[k]]
        key = [self.variables[k]]
        for i in slots:
            key += (self.variables[i], cur.btilde[i][k], lam[i][k])
        key += (lam[i][j] for a, i in enumerate(slots) for j in slots[a + 1 :])
        return tuple(key)

    def _exchange(self, k):
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
        return rhs.div_right(self.variables[k])


@dataclass
class GraphResult:
    """Outcome of an exchange graph walk: the seeds in the order found,
    ``index`` from canonical key to seed index, and ``moves``, which maps
    (i, k) to the index of ``seeds[i]`` mutated at slot k for every move
    the walk took.  A move back along an edge the walk had already
    crossed is in ``moves`` too, though the walk read it rather than
    mutated again."""

    seeds: list
    moves: dict
    index: dict
    truncated: bool

    @property
    def count(self):
        return len(self.seeds)

    @property
    def edges(self):
        return {frozenset((i, j)) for (i, _), j in self.moves.items() if i != j}


def walk_seeds(start, n, max_depth, max_seeds):
    """Breadth-first walk of an exchange graph from ``start``.

    Seeds need ``mutate(k)`` and ``slot_of(other, k)`` for k in
    range(n), ``depth`` and ``canonical_key()``; seeds with equal keys
    are one vertex.  The walk is truncated (and flagged) when a depth or
    seed cap is hit.  Every move it takes is recorded in ``moves``,
    except one whose new seed the seed cap turns away.

    Mutation is an involution, so a move i -> j at slot k also proves
    the move back: from j at the slot of ``seeds[j]`` holding the new
    variable (``slot_of``, which may answer None to withhold the proof)
    to i.  The walk reads such a move instead of mutating, so a closed
    graph costs one mutation per edge.
    """
    index = {start.canonical_key(): 0}
    seeds = [start]
    moves = {}
    back = {}
    frontier = [(start, 0)]
    truncated = False
    while frontier:
        new_frontier = []
        for seed, idx in frontier:
            if max_depth is not None and seed.depth >= max_depth:
                truncated = True
                continue
            for k in range(n):
                j = back.pop((idx, k), None)
                if j is None:
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
                        back[(j, k)] = idx
                    elif j != idx:
                        s = seeds[j].slot_of(nxt, k)
                        if s is not None and (j, s) not in moves:
                            back[(j, s)] = idx
                moves[(idx, k)] = j
        frontier = new_frontier
    return GraphResult(seeds=seeds, moves=moves, index=index, truncated=truncated)


def enumerate_quantum_seeds(
    data, max_depth=None, max_seeds=10000, start=None
):
    """Breadth-first walk of the quantum exchange graph, with seeds
    identified up to cluster renumbering.  It starts from ``start``, an
    initial seed of ``data`` whose ``exchanges`` memo the walk then
    shares, or from a new initial seed."""
    if start is None:
        start = QuantumSeed.initial_seed(data)
    return walk_seeds(start, data.n, max_depth, max_seeds)
