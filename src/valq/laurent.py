"""Exact Laurent polynomial arithmetic, on the sparse-term core that
the quantum torus shares.

``SparseTerms`` holds what both rings share: equality, powers, exponent
ranges and the one leading-term division loop, to which each ring gives
its own elimination step.  ``_add_product`` is the multiply-accumulate
of ``LaurentPoly`` sums, products and division steps over packed keys.
``LaurentPoly`` is the ring of integer Laurent polynomials in commuting
variables.  It is the engine for commutative cluster variables, and in
one variable it renders a quantum torus coefficient; torus coefficients
are never divided here.  ``exact_div`` raises ``InexactDivision``
instead of ever returning an approximation.

Both rings key their terms by packed exponents: one int per exponent
vector (see ``_Layout``).  A product's key is one addition and a
quotient's one subtraction.  Exponent tuples appear only at the edges:
the validating constructors, ``exponent_terms``, exponent ranges,
rendering and substitution.  No other module reads a key; the quantum
torus takes its helpers from here.  An exponent that would leave the
packed range raises ``ExponentOverflow`` before any key is formed.

The constructor validates outside input: it drops zero coefficients,
merges equal exponents and checks exponent lengths and sizes.
Arithmetic results (sums, negatives, products, powers and exact
quotients) are already clean and are trusted: they skip that pass.
"""

from heapq import heapify, heappop, heappush
from operator import add, attrgetter, sub
from struct import Struct


class ArityMismatch(ValueError):
    """Operands live in Laurent rings with different variable counts."""


class ZeroPolynomial(ZeroDivisionError):
    """An operation needed a nonzero polynomial and got zero."""


class InexactDivision(ArithmeticError):
    """Division was requested but the quotient is not a Laurent polynomial."""


class NegativeExponentInF(ValueError):
    """A polynomial expected to be honest (no negative exponents) is not."""


class ExponentOverflow(OverflowError):
    """An exponent would leave the packed range, |e| <= MAX_EXPONENT."""


# Each exponent e is stored as e + _BIAS in a 16-bit field, the first
# variable in the most significant field, so int order is lexicographic
# order.  Stored exponents obey |e| <= MAX_EXPONENT, so a field of a sum
# or difference of two keys, bias restored, lies in [2, 2**15 - 2]: it
# neither borrows from its neighbour nor reaches its top (guard) bit, and
# two such fields differ by less than 2**15.  So adding the guard bits to
# one such key and subtracting another leaves each guard bit set exactly
# where the first key's field is at least the second's: one comparison
# of every field at once.
_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1
_BIAS = 1 << (_WIDTH - 2)
MAX_EXPONENT = (1 << (_WIDTH - 3)) - 1


class _Layout:
    """The packed keys of one ring size: ``bias`` and ``guard`` hold
    ``_BIAS`` and the guard bit in every field, ``low`` and ``high`` are
    the keys of the least and greatest exponent vectors."""

    __slots__ = ("nvars", "bias", "guard", "low", "high", "_struct", "_biases")

    def __init__(self, nvars):
        ones = sum(1 << (_WIDTH * i) for i in range(nvars))
        self.nvars = nvars
        self.bias = _BIAS * ones
        self.guard = (1 << (_WIDTH - 1)) * ones
        self.low = (_BIAS - MAX_EXPONENT) * ones
        self.high = (_BIAS + MAX_EXPONENT) * ones
        self._struct = Struct(">%dH" % nvars)
        self._biases = (_BIAS,) * nvars

    def pack(self, exp):
        """The key of an exponent tuple of length ``nvars``."""
        _check_range(max(map(abs, exp), default=0))
        return int.from_bytes(
            self._struct.pack(*map(add, exp, self._biases)), "big"
        )

    def unpack(self, key):
        """The exponent tuple of a key, or of a sum or difference of two
        keys with the bias restored."""
        return tuple(
            map(sub, self._struct.unpack(key.to_bytes(2 * self.nvars, "big")),
                self._biases)
        )

    def corners(self, keys):
        """The fieldwise least and greatest of the nonempty ``keys``, as
        keys, in one pass."""
        if self.nvars == 1:
            return min(keys), max(keys)
        guard = self.guard
        it = iter(keys)
        lo = hi = next(it)
        for k in it:
            # Full fields where k >= lo, then where hi >= k.
            m = ((((k | guard) - lo) & guard) >> (_WIDTH - 1)) * _FIELD
            lo = k ^ ((k ^ lo) & m)
            m = ((((hi | guard) - k) & guard) >> (_WIDTH - 1)) * _FIELD
            hi = k ^ ((k ^ hi) & m)
        return lo, hi

    def bound(self, lo, hi):
        """The largest |exponent| in the box [lo, hi], or ExponentOverflow
        when that passes the range."""
        bound = max(map(abs, self.unpack(lo) + self.unpack(hi)), default=0)
        _check_range(bound)
        return bound

    def outside_range(self, key):
        return _outside(key, self.low, self.high, self.guard)


_LAYOUTS = {}


def _layout(nvars):
    lay = _LAYOUTS.get(nvars)
    if lay is None:
        lay = _LAYOUTS[nvars] = _Layout(nvars)
    return lay


def _check_range(bound):
    if bound > MAX_EXPONENT:
        raise ExponentOverflow(
            "exponents up to %d leave the packed range of +-%d"
            % (bound, MAX_EXPONENT)
        )


_ONE = {0: 1}


def _add_product(acc, a, b, shift):
    """Add a * b into ``acc`` in place: each pair of terms adds ca * cb
    at key ka + kb + shift, and a key that cancels to zero leaves
    ``acc``.  Over packed keys the shift is minus the bias, which a sum
    of two keys holds twice."""
    for ka, ca in a.items():
        ka += shift
        for kb, cb in b.items():
            k = ka + kb
            s = acc.get(k, 0) + ca * cb
            if s:
                acc[k] = s
            else:
                del acc[k]


def _outside(key, lo, hi, guard):
    """Whether some field of ``key`` lies outside [lo, hi], for keys whose
    fields are sums or differences of two stored exponents."""
    return (key + guard - lo) & (hi + guard - key) & guard != guard


class SparseTerms:
    """An element whose ``terms`` map packed exponent keys of ``nvars``
    variables to nonzero coefficients, and whose ``_bound`` is at least
    every |exponent|.  Sums keep the larger bound and products add the
    bounds.  A product whose bound would pass ``MAX_EXPONENT`` takes its
    exact exponent box instead, the sum of its factors' boxes, and raises
    ``ExponentOverflow`` only if that box leaves the range.  A ring
    supplies its arithmetic, ``one``, ``render``, ``ring`` (what equal
    elements share), ``_like`` (an element over trusted terms and bound),
    ``_coeff_inverse`` (a unit's inverse, else ``InexactDivision``) and a
    ``_mins`` slot, None until ``min_exponents`` fills it.
    Both rings are domains, so the least and greatest exponent of a
    product in each variable are the sums of its factors'."""

    __slots__ = ()

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        return len(self.terms) == 1

    def __bool__(self):
        return bool(self.terms)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def exponent_terms(self):
        """The terms as a dict keyed by exponent tuples."""
        unpack = _layout(self.nvars).unpack
        return {unpack(k): c for k, c in self.terms.items()}

    def _product_bound(self, other):
        """A bound for ``self * other``, or ExponentOverflow."""
        bound = self._bound + other._bound
        if bound > MAX_EXPONENT and self.terms and other.terms:
            lay = _layout(self.nvars)
            a_lo, a_hi = lay.corners(self.terms)
            b_lo, b_hi = lay.corners(other.terms)
            bound = lay.bound(a_lo + b_lo - lay.bias, a_hi + b_hi - lay.bias)
        return bound

    def __pow__(self, k):
        """``self ** k`` by repeated squaring; the base is squared only
        while bits of k remain.  Only a unit monomial has negative
        powers."""
        k = int(k)
        x = self
        if k < 0:
            if not self.is_monomial():
                raise InexactDivision("negative power of a non-monomial")
            (key, coeff), = self.terms.items()
            # Negating every field maps e + bias to bias - e.
            x = self._like(
                {2 * _layout(self.nvars).bias - key: self._coeff_inverse(coeff)},
                self._bound,
            )
            k = -k
        if not k:
            return type(self).one(self.ring)
        if x._bound * k > MAX_EXPONENT:
            # Up front, before any square is formed: the power's box is
            # k times the base's.
            lay = _layout(self.nvars)
            x._bound = lay.bound(*lay.corners(x.terms))
            _check_range(x._bound * k)
        out = None
        while True:
            if k & 1:
                out = x if out is None else out * x
            k >>= 1
            if not k:
                return out
            x = x * x

    def min_exponents(self):
        """The least exponent of each variable, computed on first use and
        kept, as the terms never change."""
        if self._mins is None:
            if not self.terms:
                raise ZeroPolynomial("zero polynomial has no exponent range")
            lay = _layout(self.nvars)
            self._mins = lay.unpack(lay.corners(self.terms)[0])
        return self._mins

    def denominator_vector(self, upto=None):
        """Negated minimal exponent per variable, restricted to the first
        ``upto`` variables when given."""
        k = self.nvars if upto is None else int(upto)
        return tuple(-m for m in self.min_exponents()[:k])

    def _divide(self, terms, den, den_lead, step):
        """The quotient terms Q with ``terms == Q * den``, for numerator
        ``terms`` of this ring, by leading-term elimination in descending
        lexicographic order.  ``den_lead`` is the top key of the nonzero
        den; ``step(rem, q_key, c)`` divides the leading coefficient c by
        den's, takes that term times den off ``rem`` and returns the
        quotient coefficient.

        Each step can add to ``rem`` only the keys lead + e - den_lead for
        the keys e of den, so a max-heap of the keys pushed finds the next
        lead: keys popped that left ``rem`` are dropped, and never come
        back, as every later key lies below the lead.

        An exact quotient's exponents fill the box [min(terms) - min(den),
        max(terms) - max(den)] coordinatewise, so a candidate outside it
        proves the division inexact, and an exact quotient that needs a
        box beyond the range raises ExponentOverflow.  Every key taken
        off ``rem`` then stays in the box of the numerator: no key the
        loop forms, even for an inexact division, carries into the next
        field."""
        if not terms:
            return {}
        lay = _layout(self.nvars)
        bias, guard = lay.bias, lay.guard
        num_lo, num_hi = lay.corners(terms)
        den_lo, den_hi = lay.corners(den.terms)
        lo = num_lo - den_lo + bias
        hi = num_hi - den_hi + bias
        if (hi + guard - lo) & guard != guard:
            raise InexactDivision("quotient exponent out of range")
        if lay.outside_range(lo) or lay.outside_range(hi):
            raise ExponentOverflow(
                "an exact quotient would leave the packed range of +-%d"
                % MAX_EXPONENT
            )
        offset = bias - den_lead
        drops = [den_lead - e for e in den.terms if e != den_lead]
        rem = dict(terms)
        # Keys negated, so that heapq's least is the greatest.
        heap = [-k for k in rem]
        heapify(heap)
        quo = {}
        while rem:
            lead = -heappop(heap)
            if lead not in rem:
                continue
            q_key = lead + offset
            if _outside(q_key, lo, hi, guard):
                raise InexactDivision("quotient exponent out of range")
            # Leading keys strictly fall, so each q_key is new; all lie in
            # the finite box [lo, hi], so the loop ends.
            quo[q_key] = step(rem, q_key, rem[lead])
            for d in drops:
                heappush(heap, d - lead)
        return quo

    def __str__(self):
        return self.render()


class LaurentPoly(SparseTerms):
    """Integer Laurent polynomial in ``nvars`` commuting variables."""

    __slots__ = ("nvars", "terms", "_bound", "_hash", "_sort_key", "_mins")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = int(coeff)
                if coeff == 0:
                    continue
                exp = tuple(int(e) for e in exp)
                if len(exp) != self.nvars:
                    raise ArityMismatch(
                        "exponent length %d != nvars %d" % (len(exp), self.nvars)
                    )
                clean[exp] = clean.get(exp, 0) + coeff
                if clean[exp] == 0:
                    del clean[exp]
        pack = _layout(self.nvars).pack
        self.terms = {pack(exp): c for exp, c in clean.items()}
        self._bound = max((abs(e) for exp in clean for e in exp), default=0)
        self._hash = self._sort_key = self._mins = None

    @classmethod
    def _trusted(cls, nvars, terms, bound):
        """An element over ``terms`` as they are: nonzero int
        coefficients keyed by packed exponents of ``nvars`` variables,
        none of them larger than ``bound`` in absolute value."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        out._bound = bound
        out._hash = out._sort_key = out._mins = None
        return out

    @classmethod
    def zero(cls, nvars):
        return cls._trusted(nvars, {}, 0)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, nvars, index):
        exp = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(nvars, {exp: 1})

    ring = property(attrgetter("nvars"))

    def _like(self, terms, bound):
        return LaurentPoly._trusted(self.nvars, terms, bound)

    @staticmethod
    def _coeff_inverse(c):
        if c not in (1, -1):
            raise InexactDivision("negative power needs a unit coefficient")
        return c

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            raise TypeError("expected LaurentPoly, got %r" % type(other))
        if other.nvars != self.nvars:
            raise ArityMismatch(
                "nvars %d != %d" % (self.nvars, other.nvars)
            )

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        _add_product(out, other.terms, _ONE, 0)
        return self._like(out, max(self._bound, other._bound))

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()}, self._bound)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero(self.nvars)
            return self._like(
                {e: c * other for e, c in self.terms.items()}, self._bound
            )
        self._check(other)
        bound = self._product_bound(other)
        out = {}
        _add_product(out, self.terms, other.terms, -_layout(self.nvars).bias)
        return self._like(out, bound)

    __rmul__ = __mul__

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def sort_key(self):
        """A total order on the polynomials of one ring, from their terms;
        kept like the hash."""
        if self._sort_key is None:
            self._sort_key = tuple(sorted(self.terms.items()))
        return self._sort_key

    def coefficient(self, exp):
        exp = tuple(int(e) for e in exp)
        if len(exp) != self.nvars or max(map(abs, exp), default=0) > MAX_EXPONENT:
            return 0
        return self.terms.get(_layout(self.nvars).pack(exp), 0)

    def specialize_ones(self, indices):
        """Set the listed variables to 1: zero out those exponent slots."""
        idx = set(int(i) for i in indices)
        out = {}
        for exp, c in self.exponent_terms().items():
            e = tuple(0 if i in idx else v for i, v in enumerate(exp))
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.nvars, out)

    def drop_vars(self, keep):
        """Project onto the variables listed in ``keep`` (which must carry
        every nonzero exponent)."""
        keep = [int(i) for i in keep]
        keepset = set(keep)
        out = {}
        for exp, c in self.exponent_terms().items():
            for i, v in enumerate(exp):
                if v and i not in keepset:
                    raise ArityMismatch(
                        "variable %d still appears with exponent %d" % (i, v)
                    )
            e = tuple(exp[i] for i in keep)
            out[e] = out.get(e, 0) + c
        return LaurentPoly(len(keep), out)

    def render(self, names=None):
        """Human-readable string; terms in descending lexicographic order."""
        if not self.terms:
            return "0"
        if names is None:
            names = ["x%d" % (i + 1) for i in range(self.nvars)]
        if len(names) != self.nvars:
            raise ArityMismatch("need one name per variable")
        unpack = _layout(self.nvars).unpack
        pieces = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            factors = []
            for i, v in enumerate(unpack(key)):
                if v == 0:
                    continue
                if v == 1:
                    factors.append(names[i])
                else:
                    factors.append("%s^%d" % (names[i], v))
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "%d*%s" % (abs(c), "*".join(factors))
            pieces.append((c < 0, body))
        first_neg, first = pieces[0]
        text = ("-" if first_neg else "") + first
        for negp, body in pieces[1:]:
            text += (" - " if negp else " + ") + body
        return text

    def __repr__(self):
        return "LaurentPoly(%d, %s)" % (self.nvars, self.render())


def univariate(coeffs):
    """The one-variable polynomial summing c * t**k over the {k: c}
    mapping ``coeffs`` of nonzero ints."""
    if not coeffs:
        return LaurentPoly.zero(1)
    bound = max(-min(coeffs), max(coeffs))
    _check_range(bound)
    return LaurentPoly._trusted(
        1, {k + _BIAS: c for k, c in coeffs.items()}, bound
    )


def exact_div(num, den):
    """Exact quotient of integer Laurent polynomials: the shared
    leading-term elimination.  Its step divides the leading integer
    coefficient by den's and takes that quotient term times den off the
    remainder with ``_add_product``."""
    if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
        raise TypeError("exact_div expects LaurentPoly operands")
    if num.nvars != den.nvars:
        raise ArityMismatch("operands have different variable counts")
    if den.is_zero():
        raise ZeroPolynomial("division by zero polynomial")
    den_lead = max(den.terms)
    den_lead_coeff = den.terms[den_lead]
    shift = -_layout(num.nvars).bias

    def step(rem, q_key, lead_coeff):
        c, r = divmod(lead_coeff, den_lead_coeff)
        if r:
            raise InexactDivision("leading coefficient does not divide")
        _add_product(rem, {q_key: -c}, den.terms, shift)
        return c

    return num._like(
        num._divide(num.terms, den, den_lead, step),
        min(num._bound + den._bound, MAX_EXPONENT),
    )


def tropical_evaluate(poly, assignment):
    """Min-plus evaluation of a Laurent polynomial.

    Each variable i is assigned the integer vector ``assignment[i]``;
    a term with exponent t contributes sum_i t_i * assignment[i], and
    terms combine by coordinatewise minimum.  Coefficients are ignored
    (they must be positive).
    """
    if poly.is_zero():
        raise ZeroPolynomial("tropical evaluation of zero")
    if len(assignment) != poly.nvars:
        raise ArityMismatch("need one assignment vector per variable")
    assignment = [tuple(int(x) for x in v) for v in assignment]
    width = len(assignment[0]) if assignment else 0
    for v in assignment:
        if len(v) != width:
            raise ArityMismatch("assignment vectors have mixed lengths")
    best = None
    for exp, coeff in poly.exponent_terms().items():
        if coeff < 0:
            raise ValueError("tropical evaluation needs positive coefficients")
        combo = [0] * width
        for i, t in enumerate(exp):
            if t:
                vi = assignment[i]
                for j in range(width):
                    combo[j] += t * vi[j]
        if best is None:
            best = combo
        else:
            best = [min(a, b) for a, b in zip(best, combo)]
    return tuple(best)
