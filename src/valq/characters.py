"""Cluster characters from exhaustive subrepresentation counts.

The character of a dimension vector v in a seed with framed matrix M
and framed star matrix S is the sum over subrepresentation dimension
vectors e of

    P_e(u**2) * u**(-euler(e, v-e)) * frame(M*e - S*v),

where P_e is the polynomial counting e-dimensional subrepresentations
of the rigid representation of dimension v over the field with q
elements.  P_e is recovered exactly by Lagrange interpolation from
counts over small prime fields (degree is bounded by the fiberwise
Grassmannian dimension) and validated on held-out primes.  The
interpolation is in integers: cached Lagrange numerators over one
common denominator, with each coefficient's exactness checked by
``divmod``.  The representations themselves come from
``VerifyContext.rigid_rep``.
"""

from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .exchange import framed_star_matrix
from .qtorus import QTorusElem
from .reps import count_all_subreps, euler_form

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13, 17)


class InterpolationInconsistent(ArithmeticError):
    """Counting data does not come from one integer polynomial."""


def dimension_bound(diag, v, e):
    """Degree bound for the counting polynomial at e: the dimension of
    the product of the fiberwise Grassmannians."""
    return sum(d * x * (y - x) for d, x, y in zip(diag, e, v))


@lru_cache(maxsize=64)
def lagrange_basis(xs):
    """The Lagrange basis of the distinct points xs (a tuple) over one
    common denominator: (den, numerators), where den > 0 is the least
    common multiple of the products prod_{j != i} (x_i - x_j), and the
    i-th numerator, in ascending integer coefficients, is den times the
    polynomial that is 1 at xs[i] and 0 at the other points."""
    products = []
    weights = []
    for i, xi in enumerate(xs):
        num = [1]
        weight = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new = [0] * (len(num) + 1)
            for deg, c in enumerate(num):
                new[deg] -= c * xj
                new[deg + 1] += c
            num = new
            weight *= xi - xj
        products.append(num)
        weights.append(weight)
    den = lcm(*weights)
    return den, tuple(
        tuple(den // w * c for c in num) for num, w in zip(products, weights)
    )


def lagrange_poly(xs, ys):
    """The polynomial through (xs, ys) over the common denominator of
    ``lagrange_basis``: (numerators, den), the ascending coefficients
    times den, without trailing zeros."""
    den, basis = lagrange_basis(tuple(xs))
    coeffs = [0] * len(xs)
    for y, poly in zip(ys, basis):
        if y:
            for deg, c in enumerate(poly):
                coeffs[deg] += y * c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs, den


def eval_poly(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def interpolate_counts(diag, v, tables, primes):
    """Counting polynomials from per-prime tables, with validation.

    For each e the first bound+1 primes pin the polynomial down and all
    remaining primes must then agree; coefficients must be integers.
    """
    if len(set(primes)) != len(primes):
        raise InterpolationInconsistent(
            "primes must be distinct, got %s" % (list(primes),)
        )
    polys = {}
    for e in product(*(range(x + 1) for x in v)):
        bound = dimension_bound(diag, v, e)
        if bound + 2 > len(primes):
            raise InterpolationInconsistent(
                "need %d primes for %s, have %d" % (bound + 2, e, len(primes))
            )
        pts = primes[: bound + 1]
        ys = [tables[p][e] for p in pts]
        numerators, den = lagrange_poly(pts, ys)
        coeffs = []
        for c in numerators:
            quotient, rest = divmod(c, den)
            if rest:
                # c/den in lowest terms, as a fraction prints
                g = gcd(c, den)
                raise InterpolationInconsistent(
                    "non-integer coefficient %d/%d at %s"
                    % (c // g, den // g, e)
                )
            coeffs.append(quotient)
        coeffs = tuple(coeffs)
        for p in primes[bound + 1 :]:
            if eval_poly(coeffs, p) != tables[p][e]:
                raise InterpolationInconsistent(
                    "held-out prime %d disagrees at %s" % (p, e)
                )
        if coeffs:
            polys[e] = coeffs
    return polys


def counting_polynomials(reps):
    """Counting polynomials of representations of one dimension vector,
    one per prime in interpolation order.  Each prime is read from its
    representation's quiver, so a repeated prime is still rejected."""
    rep = reps[0]
    tables = {r.quiver.p: count_all_subreps(r) for r in reps}
    primes = [r.quiver.p for r in reps]
    return interpolate_counts(rep.quiver.diag, rep.dims, tables, primes)


def _poly_to_qcoeff(coeffs, shift):
    # q-polynomial evaluated at u**2, times u**shift
    return {2 * deg + shift: c for deg, c in enumerate(coeffs) if c}


def character_in_seed(qseed, v, polys):
    """Assemble the character of v using a quantum seed's own frame.

    Negative mutable exponents are handled by multiplying through with
    a frame monomial and dividing back out exactly at the end.  Every
    frame monomial is read from the seed's memo (``QuantumSeed.frame``),
    so the characters assembled in one seed build each frame once.
    """
    cur = qseed.current
    n = cur.n
    size = 2 * n
    v = tuple(int(x) for x in v)
    btilde = cur.btilde
    star = framed_star_matrix(btilde)
    b_prin = cur.principal()
    sv = tuple(
        sum(star[i][j] * v[j] for j in range(n)) for i in range(size)
    )
    terms = []
    for e, coeffs in polys.items():
        a = tuple(
            sum(btilde[i][j] * e[j] for j in range(n)) - sv[i]
            for i in range(size)
        )
        vm = tuple(x - y for x, y in zip(v, e))
        terms.append((a, coeffs, -euler_form(b_prin, cur.diag, e, vm)))
    clear = tuple(
        max([0] + [-a[i] for a, _, _ in terms]) if i < n else 0
        for i in range(size)
    )
    acc = QTorusElem.zero(qseed.initial.lam)
    for a, coeffs, shift in terms:
        shifted = tuple(x + m for x, m in zip(a, clear))
        piece = qseed.frame(shifted)
        coeff = _poly_to_qcoeff(coeffs, shift + cur.lam_pairing(a, clear))
        acc = acc + piece.scale(coeff)
    if all(m == 0 for m in clear):
        return acc
    return acc.div_right(qseed.frame(clear))


def generic_character(qseed, reps):
    """Character of the rigid representations ``reps`` (one per prime,
    as for ``counting_polynomials``), assembled in the initial quantum
    seed ``qseed``, whose frame monomials it shares with every other
    character assembled there."""
    return character_in_seed(qseed, reps[0].dims, counting_polynomials(reps))

