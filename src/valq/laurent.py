"""Exact Laurent polynomial arithmetic.

``LaurentPoly`` holds integer-coefficient Laurent polynomials in
several commuting variables, stored as a dict from exponent tuples to
nonzero ints.  It is the engine for commutative cluster variables, and
in one variable it divides the u-coefficients of the quantum torus.
``exact_div`` raises ``InexactDivision`` instead of ever returning an
approximation.

The constructor validates outside input: it drops zero coefficients,
merges equal exponents and checks exponent lengths.  Arithmetic results
(sums, negatives, products, powers and exact quotients) are already
clean and are trusted: they skip that pass.
"""

from operator import add, sub


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


def _power(x, k):
    """``x ** k`` for k >= 1 by repeated squaring; the base is squared
    only while bits of k remain."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


class LaurentPoly:
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
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, nvars, index):
        exp = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(nvars, {exp: 1})

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        return len(self.terms) == 1

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

    def __sub__(self, other):
        return self + (-other)

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

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            if not self.is_monomial():
                raise InexactDivision("negative power of a non-monomial")
            (exp, coeff), = self.terms.items()
            if coeff not in (1, -1):
                raise InexactDivision("negative power needs unit coefficient")
            base = LaurentPoly._trusted(
                self.nvars, {tuple(-e for e in exp): coeff}
            )
            return base ** (-k)
        if not k:
            return LaurentPoly.one(self.nvars)
        return _power(self, k)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def sort_key(self):
        """A total order on the polynomials of one ring, from their terms."""
        return tuple(sorted(self.terms.items()))

    def min_exponents(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no exponent range")
        return tuple(
            min(e[i] for e in self.terms) for i in range(self.nvars)
        )

    def max_exponents(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no exponent range")
        return tuple(
            max(e[i] for e in self.terms) for i in range(self.nvars)
        )

    def denominator_vector(self, upto=None):
        """Negated minimal exponent per variable, restricted to the first
        ``upto`` variables when given."""
        k = self.nvars if upto is None else int(upto)
        mins = self.min_exponents()
        return tuple(-mins[i] for i in range(k))

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

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "LaurentPoly(%d, %s)" % (self.nvars, self.render())


def exact_div(num, den):
    """Exact quotient of integer Laurent polynomials.

    Runs leading-term elimination in descending lexicographic order.
    Every quotient exponent of an exact division lies inside the box
    [min(num) - max(den), max(num) - min(den)] coordinatewise, so any
    candidate outside that box proves the division inexact.
    """
    if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
        raise TypeError("exact_div expects LaurentPoly operands")
    if num.nvars != den.nvars:
        raise ArityMismatch("operands have different variable counts")
    if den.is_zero():
        raise ZeroPolynomial("division by zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.nvars)
    lo = _vec_sub(num.min_exponents(), den.max_exponents())
    den_lead = max(den.terms)
    den_lead_coeff = den.terms[den_lead]
    rem = dict(num.terms)
    quo = {}
    steps = 0
    cap = 1_000_000
    while rem:
        steps += 1
        if steps > cap:
            raise InexactDivision("division did not terminate")
        lead = max(rem)
        q_exp = _vec_sub(lead, den_lead)
        if any(q < l for q, l in zip(q_exp, lo)):
            raise InexactDivision("quotient exponent out of range")
        c, r = divmod(rem[lead], den_lead_coeff)
        if r:
            raise InexactDivision("leading coefficient does not divide")
        # Leading exponents strictly fall, so each q_exp is new.
        quo[q_exp] = c
        for e, dc in den.terms.items():
            t = _vec_add(q_exp, e)
            s = rem.get(t, 0) - c * dc
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    return LaurentPoly._trusted(num.nvars, quo)


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
