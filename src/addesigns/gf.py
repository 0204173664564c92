"""Exact finite-field arithmetic GF(p^n) as two precomputed tables.

An element is its integer code sum(c_j * p^j), c_j the coefficient of
x^j of its polynomial in the root r of a primitive polynomial; `digits`
turns codes into coefficient rows, highest degree first.

Primitivity is decided by the order test on x (Lidl & Niederreiter,
Finite Fields, Thm 3.16 ff.).  A field keeps two read-only int64 arrays,
the exp and log tables; `sum_codes` adds codes by adding their base-p
digits mod p, which is XOR for p = 2.
"""

import itertools
import logging
import math
import time

import numpy as np

from . import chunks
from .errors import FieldTooLarge, NotCoprime, NotPrime, NotPrimitivePolynomial

# Table-backed construction is refused beyond this order.
MAX_FIELD_ORDER = 2 ** 20

_logger = logging.getLogger("addesigns")


def is_prime(m):
    return m >= 2 and next(_prime_factors(m)) == m


class FieldSpec:
    """GF(p^n) defined by a primitive polynomial, held as its read-only
    int64 exp/log tables."""

    def __init__(self, p, n, prim_poly):
        self.p = p
        self.n = n
        self.q = p ** n
        self.prim_poly = tuple(prim_poly)  # high-to-low, length n+1
        self._build_tables()

    def _build_tables(self):
        """Fill _exp (code of r^i) and _log (its inverse; _log[0] is unused).

        The powers [f, 2f) are the digit rows of the powers [0, f) times
        the matrix of multiplication by r^f, which is squared each round.
        A row of a product holds n int64 digits at most three times over.
        """
        p, n, q = self.p, self.n, self.q
        weights = p ** np.arange(n, dtype=np.int64)
        xmat = np.eye(n, k=1, dtype=np.int64)  # row j: x^(j+1) mod prim_poly
        xmat[n - 1] = [-c % p for c in reversed(self.prim_poly[1:])]
        exp = np.empty(q - 1, dtype=np.int64)
        exp[0] = 1
        rows = chunks.rows_per_chunk(24 * n)
        step, f = xmat, 1
        while f < q - 1:
            for lo in range(0, min(f, q - 1 - f), rows):
                hi = min(f, q - 1 - f, lo + rows)
                digits = exp[lo:hi, None] // weights % p
                exp[f + lo:f + hi] = digits @ step % p @ weights
            step, f = step @ step % p, 2 * f
        # after q-1 multiplications by the root we must be back at 1
        if q > 2 and (exp[-1] // weights % p) @ xmat % p @ weights != 1:
            raise NotPrimitivePolynomial(
                "root of %s does not have order %d" % (self.describe(), q - 1)
            )
        exponents = np.arange(q - 1)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = exponents
        # a repeated code keeps only its last exponent, so log fails to invert exp
        if not np.array_equal(log[exp], exponents):
            raise NotPrimitivePolynomial(
                "root powers of %s repeat before order %d" % (self.describe(), q - 1)
            )
        exp.flags.writeable = log.flags.writeable = False
        self._exp, self._log = exp, log

    # -- code-level arithmetic ------------------------------------------

    def sum_codes(self, codes):
        """The codes of the sums along the last axis of an array of codes:
        their base-p digits added mod p."""
        codes = np.asarray(codes, dtype=np.int64)
        if self.p == 2:
            return np.bitwise_xor.reduce(codes, axis=-1)
        total = np.zeros(codes.shape[:-1], dtype=np.int64)
        for w in self.p ** np.arange(self.n, dtype=np.int64):
            total += (codes // w % self.p).sum(axis=-1) % self.p * w
        return total

    # The only scalar methods, kept because perfbench/trace_stage.py wraps
    # these two by name to count scalar field calls; they go when those two
    # counters do.

    def add_code(self, a, b):
        return int(self.sum_codes((a, b)))

    def mul_code(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp.item((self._log.item(a) + self._log.item(b)) % (self.q - 1))

    def describe(self):
        return "GF(%d^%d; %s)" % (
            self.p,
            self.n,
            ",".join(str(c) for c in self.prim_poly),
        )

    def __repr__(self):
        return self.describe()


def _poly_candidates(p, n):
    """Monic degree-n polynomials over Z_p, lexicographic low-degree-first."""
    return ((1,) + low for low in itertools.product(range(p), repeat=n))


def _prime_factors(m):
    """Yield the distinct prime factors of m >= 1, ascending, by trial
    division; the first is found without factoring the rest of m."""
    f = 2
    while f * f <= m:
        if m % f == 0:
            yield f
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        yield m


def refuse_beyond_cap(q, m):
    """Raise FieldTooLarge if the field of order q^m, q >= 2, is beyond
    MAX_FIELD_ORDER; q^m is not computed when m alone decides it."""
    if q >= 2 and (m >= MAX_FIELD_ORDER.bit_length() or q ** m > MAX_FIELD_ORDER):
        raise FieldTooLarge("refusing table construction for q = %d^%d" % (q, m))


def _mulmod(a, b, low, p):
    """a * b modulo x^n + sum(low[j] x^j) over Z_p; a, b and the result
    are coefficient lists of length n, low degree first."""
    n = len(low)
    prod = [0] * (2 * n - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                prod[i + j] += c * d
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i] % p
        if c:
            # c x^i = -c x^(i-n) * sum(low[j] x^j)
            for j, f in enumerate(low):
                prod[i - n + j] -= c * f
    return [c % p for c in prod[:n]]


def _x_power(e, low, p):
    """x^e modulo x^n + sum(low[j] x^j) over Z_p, e >= 1, by square and
    multiply."""
    n = len(low)
    x = [0] * n
    if n == 1:
        x[0] = -low[0] % p
    else:
        x[1] = 1
    out = x
    for bit in bin(e)[3:]:
        out = _mulmod(out, out, low, p)
        if bit == "1":
            out = _mulmod(x, out, low, p)  # x first: one nonzero coefficient
    return out


def _is_primitive(p, n, poly, factors):
    """Whether x has order q - 1 modulo poly, i.e. x^(q-1) = 1 and
    x^((q-1)/r) != 1 for every prime r in `factors`, the prime factors of
    q - 1.

    If poly is reducible the unit group of Z_p[x]/(poly) is strictly
    smaller than q - 1, so this test also certifies irreducibility.
    """
    q = p ** n
    if q == 2:
        # GF(2) is degenerate: the table is just {1} and the root is unused.
        return True
    low = [c % p for c in reversed(poly[1:])]
    if low[0] == 0:  # x divides poly, so x is not a unit
        return False
    one = [1] + [0] * (n - 1)
    if _x_power(q - 1, low, p) != one:
        return False
    return all(_x_power((q - 1) // r, low, p) != one for r in factors)


def make_field(p, n, poly=None):
    """Build GF(p^n).

    If poly is omitted, the lexicographically smallest primitive polynomial
    (coefficients compared low-degree-first) is found by search.  A supplied
    poly must be monic of degree n and is checked for primitivity.  Logs
    the candidates tried and the search and table times at DEBUG level on
    the "addesigns" logger.
    """
    if n < 1:
        raise NotPrimitivePolynomial("extension degree must be >= 1")
    refuse_beyond_cap(p, n)
    if not is_prime(p):
        raise NotPrime("%d is not prime" % p)
    start = time.perf_counter()
    factors = list(_prime_factors(p ** n - 1))
    if poly is not None:
        poly = tuple(c % p for c in poly)
        if len(poly) != n + 1 or poly[0] != 1:
            raise NotPrimitivePolynomial("polynomial must be monic of degree %d" % n)
        if not _is_primitive(p, n, poly, factors):
            raise NotPrimitivePolynomial(
                "x is not a generator modulo the given polynomial"
            )
        tried = 1
    else:
        for tried, poly in enumerate(_poly_candidates(p, n), 1):
            if _is_primitive(p, n, poly, factors):
                break
    searched = time.perf_counter()
    field = FieldSpec(p, n, poly)
    _logger.debug(
        "make_field p=%d n=%d candidates=%d poly=%s search_s=%.6f table_s=%.6f",
        p, n, tried, ",".join(map(str, poly)),
        searched - start, time.perf_counter() - searched,
    )
    return field


def prime_power(q):
    """Decompose a prime power q as (p, alpha) with q = p^alpha."""
    if q < 2:
        raise NotPrime("%d is not a prime power" % q)
    p = next(_prime_factors(q))
    alpha = 0
    m = q
    while m % p == 0:
        m //= p
        alpha += 1
    if m != 1:
        raise NotPrime("%d is not a prime power" % q)
    return p, alpha


def digits(codes, length, base):
    """The rows of base-`base` digits of the codes, most significant first.

    For codes of GF(p^n) with base p and length n these are the
    coefficient vectors, highest degree first."""
    rest = np.array(codes)  # reduced in place, one digit at a time
    out = np.empty((len(rest), length), dtype=np.min_scalar_type(base - 1))
    for j in range(length - 1, -1, -1):
        out[:, j] = rest % base
        rest //= base
    return out


def mult_order(u, v):
    """Smallest t >= 1 with u^t = 1 (mod v)."""
    if v < 2:
        raise NotCoprime("modulus must be >= 2")
    if math.gcd(u, v) != 1:
        raise NotCoprime("gcd(%d, %d) != 1" % (u, v))
    t = 1
    cur = u % v
    while cur != 1:
        cur = (cur * u) % v
        t += 1
    return t

