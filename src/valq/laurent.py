"""Exact Laurent polynomial arithmetic, on the sparse-term core that
the quantum torus shares.

``SparseTerms`` holds what both rings share: equality, powers, exponent
ranges and the one leading-term division loop, to which each ring gives
its own elimination step.  ``LaurentPoly`` is its ring of integer
Laurent polynomials in commuting variables.  It is the engine for
commutative cluster variables, and in one variable it divides the
u-coefficients of the quantum torus.  ``exact_div`` raises
``InexactDivision`` instead of ever returning an approximation.

The constructor validates outside input: it drops zero coefficients,
merges equal exponents and checks exponent lengths.  Arithmetic results
(sums, negatives, products, powers and exact quotients) are already
clean and are trusted: they skip that pass.
"""

from operator import add, attrgetter, lt, sub


class ArityMismatch(ValueError):
    """Operands live in Laurent rings with different variable counts."""


class ZeroPolynomial(ZeroDivisionError):
    """An operation needed a nonzero polynomial and got zero."""


class InexactDivision(ArithmeticError):
    """Division was requested but the quotient is not a Laurent polynomial."""


class NegativeExponentInF(ValueError):
    """A polynomial expected to be honest (no negative exponents) is not."""


def _vec_add(a, b):
    return tuple(map(add, a, b))


def _vec_sub(a, b):
    return tuple(map(sub, a, b))


class SparseTerms:
    """An element whose ``terms`` map exponent tuples of length ``nvars``
    to nonzero coefficients.  A ring supplies its arithmetic, ``one``,
    ``render``, ``ring`` (what equal elements share), ``_like`` (an
    element over trusted terms) and ``_coeff_inverse`` (a unit's
    inverse, else ``InexactDivision``)."""

    __slots__ = ()

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

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

    def __pow__(self, k):
        """``self ** k`` by repeated squaring; the base is squared only
        while bits of k remain.  Only a unit monomial has negative
        powers."""
        k = int(k)
        x = self
        if k < 0:
            if not self.is_monomial():
                raise InexactDivision("negative power of a non-monomial")
            (exp, coeff), = self.terms.items()
            x = self._like({tuple(-e for e in exp): self._coeff_inverse(coeff)})
            k = -k
        if not k:
            return type(self).one(self.ring)
        out = None
        while True:
            if k & 1:
                out = x if out is None else out * x
            k >>= 1
            if not k:
                return out
            x = x * x

    def min_exponents(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no exponent range")
        return tuple(map(min, zip(*self.terms)))

    def max_exponents(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no exponent range")
        return tuple(map(max, zip(*self.terms)))

    def denominator_vector(self, upto=None):
        """Negated minimal exponent per variable, restricted to the first
        ``upto`` variables when given."""
        k = self.nvars if upto is None else int(upto)
        return tuple(-m for m in self.min_exponents()[:k])

    def _divide(self, den, den_lead, step):
        """The quotient Q with ``self == Q * den`` by leading-term
        elimination in descending lexicographic order.  ``den_lead`` is
        the top exponent of the nonzero den; ``step(rem, q_exp, c)``
        divides the leading coefficient c by den's, takes that term
        times den off ``rem`` and returns the quotient coefficient.
        Every quotient exponent of an exact division lies inside the box
        [min(self) - max(den), max(self) - min(den)] coordinatewise, so
        any candidate below that box proves the division inexact."""
        if not self.terms:
            return self._like({})
        lo = _vec_sub(self.min_exponents(), den.max_exponents())
        rem = dict(self.terms)
        quo = {}
        steps = 0
        while rem:
            steps += 1
            if steps > 1_000_000:
                raise InexactDivision("division did not terminate")
            lead = max(rem)
            q_exp = _vec_sub(lead, den_lead)
            if any(map(lt, q_exp, lo)):
                raise InexactDivision("quotient exponent out of range")
            # Leading exponents strictly fall, so each q_exp is new.
            quo[q_exp] = step(rem, q_exp, rem[lead])
        return self._like(quo)

    def __str__(self):
        return self.render()


class LaurentPoly(SparseTerms):
    """Integer Laurent polynomial in ``nvars`` commuting variables."""

    __slots__ = ("nvars", "terms", "_hash")

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
        self.terms = clean
        self._hash = None

    @classmethod
    def _trusted(cls, nvars, terms):
        """An element over ``terms`` as they are: nonzero int
        coefficients keyed by exponent tuples of length ``nvars``."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        out._hash = None
        return out

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, nvars, index):
        exp = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(nvars, {exp: 1})

    ring = property(attrgetter("nvars"))

    def _like(self, terms):
        return LaurentPoly._trusted(self.nvars, terms)

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
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return LaurentPoly._trusted(self.nvars, out)

    def __neg__(self):
        return LaurentPoly._trusted(
            self.nvars, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero(self.nvars)
            return LaurentPoly._trusted(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = _vec_add(ea, eb)
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly._trusted(self.nvars, out)

    __rmul__ = __mul__

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def sort_key(self):
        """A total order on the polynomials of one ring, from their terms."""
        return tuple(sorted(self.terms.items()))

    def coefficient(self, exp):
        return self.terms.get(tuple(int(e) for e in exp), 0)

    def specialize_ones(self, indices):
        """Set the listed variables to 1: zero out those exponent slots."""
        idx = set(int(i) for i in indices)
        out = {}
        for exp, c in self.terms.items():
            e = tuple(0 if i in idx else v for i, v in enumerate(exp))
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly(self.nvars, out)

    def drop_vars(self, keep):
        """Project onto the variables listed in ``keep`` (which must carry
        every nonzero exponent)."""
        keep = [int(i) for i in keep]
        keepset = set(keep)
        out = {}
        for exp, c in self.terms.items():
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
        pieces = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            factors = []
            for i, v in enumerate(exp):
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


def exact_div(num, den):
    """Exact quotient of integer Laurent polynomials: the shared
    leading-term elimination, whose step divides integer coefficients."""
    if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
        raise TypeError("exact_div expects LaurentPoly operands")
    if num.nvars != den.nvars:
        raise ArityMismatch("operands have different variable counts")
    if den.is_zero():
        raise ZeroPolynomial("division by zero polynomial")
    den_lead = max(den.terms)
    den_lead_coeff = den.terms[den_lead]
    den_items = den.terms.items()

    def step(rem, q_exp, lead_coeff):
        c, r = divmod(lead_coeff, den_lead_coeff)
        if r:
            raise InexactDivision("leading coefficient does not divide")
        for e, dc in den_items:
            t = _vec_add(q_exp, e)
            s = rem.get(t, 0) - c * dc
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
        return c

    return num._divide(den, den_lead, step)


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
    for exp, coeff in poly.terms.items():
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
