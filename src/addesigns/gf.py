"""Exact finite-field arithmetic GF(p^n) from the powers of a root.

An element is its integer code sum(c_j * p^j), c_j the coefficient of
x^j of its polynomial in the root r of a primitive polynomial f; `digits`
turns codes into coefficient rows, highest degree first.

`x_power_matrix` is the one way the package reduces x^e modulo f: by
square and multiply it gives the digit matrix of multiplication by x^e,
whose row 0 is x^e.  The order test on x (Lidl & Niederreiter, Finite
Fields, Thm 3.16 ff.) reads row 0; `FieldSpec.powers` gives the codes of
r^(step i) for i < count as digit rows times the matrix of r^(step f),
squared each round, so a caller that needs v powers of an element of
order v reads v codes, not q - 1.  `FieldSpec` reduces, shape-checks and
order-tests a polynomial it is given, or takes the first candidate that
passes the order test, so each polynomial is tested once.  `make_field`
is the one way in to GF(q^m), q a prime power: it refuses an order
beyond MAX_FIELD_ORDER before it factors q.  The exp and log tables, two
read-only int64 arrays, are built on first read; `sum_codes` adds codes
by adding their base-p digits mod p, which is XOR for p = 2.
"""

import functools
import itertools
import math
import sys
import time

import numpy as np

from . import chunks
from .errors import FieldTooLarge, NotCoprime, NotPrime, NotPrimitivePolynomial

# Table-backed construction is refused beyond this order.
MAX_FIELD_ORDER = 2 ** 20


def log_debug(msg, *args):
    """Log msg % args at DEBUG level on the "addesigns" logger, for the
    caller, if this process has imported logging.  Without it no handler
    can exist, so the record would reach no one; the CLI never imports it."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("addesigns").debug(msg, *args, stacklevel=2)


def is_prime(m):
    return m >= 2 and next(_prime_factors(m)) == m


class FieldSpec:
    """GF(p^n), p prime (else NotPrime), defined by a primitive
    polynomial, high degree first.  A given polynomial's coefficients are
    taken mod p, and it must be monic of degree n with a root of order
    q - 1; without one, the first of `_poly_candidates` whose root has
    that order is taken.
    Either way q - 1 is factored once and one polynomial passes one order
    test.  `powers` reads powers of its root r; the int64 exp/log tables
    are built, read-only, on first read."""

    def __init__(self, p, n, prim_poly=None):
        if not is_prime(p):
            raise NotPrime("%d is not a prime" % p)
        self.p = p
        self.n = n
        self.q = p ** n
        factors = list(_prime_factors(self.q - 1))
        if prim_poly is None:
            self.prim_poly = next(poly for poly in _poly_candidates(p, n)
                                  if _order_fault(p, n, poly, factors) is None)
            return
        self.prim_poly = tuple(c % p for c in prim_poly)  # high-to-low, length n+1
        if len(self.prim_poly) != n + 1 or self.prim_poly[0] != 1:
            raise NotPrimitivePolynomial("polynomial must be monic of degree %d" % n)
        fault = _order_fault(p, n, self.prim_poly, factors)
        if fault:
            raise NotPrimitivePolynomial(fault % (self.describe(), self.q - 1))

    def powers(self, count, step=1):
        """The codes of r^(step i) for 0 <= i < count, as an int64 array.

        The powers [f, 2f) are the digit rows of the powers [0, f) times
        the matrix of multiplication by r^(step f), which is squared each
        round.  A row of a product holds n int64 digits at most three
        times over.
        """
        p, n = self.p, self.n
        weights = p ** np.arange(n, dtype=np.int64)
        mat = x_power_matrix(p, self.prim_poly, step)  # multiplication by r^step
        out = np.empty(count, dtype=np.int64)
        out[:1] = 1
        rows = chunks.rows_per_chunk(24 * n)
        f = 1
        while f < count:
            for lo in range(0, min(f, count - f), rows):
                hi = min(f, count - f, lo + rows)
                digits = out[lo:hi, None] // weights % p
                out[f + lo:f + hi] = digits @ mat % p @ weights
            mat, f = mat @ mat % p, 2 * f
        return out

    @functools.cached_property
    def _exp(self):
        """The code of r^i at i, 0 <= i < q - 1."""
        exp = self.powers(self.q - 1)
        exp.flags.writeable = False
        return exp

    @functools.cached_property
    def _log(self):
        """The inverse of _exp; _log[0] is unused."""
        log = np.zeros(self.q, dtype=np.int64)
        log[self._exp] = np.arange(self.q - 1)
        log.flags.writeable = False
        return log

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


def x_power_matrix(p, poly, e):
    """The matrix of multiplication by x^e modulo poly over Z_p, e >= 0,
    by square and multiply.  poly is monic of degree n >= 1, high degree
    first, with coefficients in range(p).  Row j holds the coefficients
    of x^(j+e) mod poly, low degree first, so row 0 is x^e and a row of
    digits times the matrix, mod p, is that polynomial times x^e.  The
    entries are int64 below p; a product of two holds n (p-1)^2 at most.
    """
    n = len(poly) - 1
    xmat = np.eye(n, k=1, dtype=np.int64)  # row j: x^(j+1) mod poly
    xmat[n - 1] = [-c % p for c in reversed(poly[1:])]
    mat = np.eye(n, dtype=np.int64)
    for bit in bin(e)[2:]:
        mat = mat @ mat % p
        if bit == "1":
            mat = mat @ xmat % p
    return mat


def _order_fault(p, n, poly, factors):
    """None if x has order q - 1 modulo poly, q = p^n: x^(q-1) = 1 and
    x^((q-1)/r) != 1 for every prime r in `factors`, the prime factors of
    q - 1.  Otherwise the message of the check that fails, to be filled
    with the field and q - 1.  poly is monic of degree n, high degree
    first, with coefficients in range(p).  In GF(2) the one power is 1
    and the root is unused, so any poly will do.

    If poly is reducible the unit group of Z_p[x]/(poly) is strictly
    smaller than q - 1, so this test also certifies irreducibility.
    """
    q = p ** n
    if q == 2:
        return None

    def is_one(e):  # x^e = 1 iff row 0 of its matrix is (1, 0, ..., 0)
        row = x_power_matrix(p, poly, e)[0]
        return row[0] == 1 and not row[1:].any()

    # if x divides poly, x is not a unit
    if poly[-1] == 0 or not is_one(q - 1):
        return "root of %s does not have order %d"
    if any(is_one((q - 1) // r) for r in factors):
        return "root powers of %s repeat before order %d"
    return None


def make_field(q, m, poly=None):
    """Build GF(q^m), q = p^alpha a prime power, as GF(p^n), n = alpha m.

    q^m is compared with MAX_FIELD_ORDER before q is factored, so a large
    prime q is refused without trial division; a q that is not a prime
    power raises NotPrime.  `FieldSpec` then tests the supplied poly, or
    without one takes the lexicographically smallest primitive polynomial
    (see `_poly_candidates`).  Logs the candidates tried (the chosen
    polynomial's rank plus one, or 1 for a supplied one), the polynomial
    and the seconds of finding or testing it, at DEBUG level on the
    "addesigns" logger.  The exp and log tables are built on first read,
    not then.
    """
    if m < 1:
        raise NotPrimitivePolynomial("extension degree must be >= 1")
    if q >= 2 and (m >= MAX_FIELD_ORDER.bit_length() or q ** m > MAX_FIELD_ORDER):
        raise FieldTooLarge("refusing table construction for q = %d^%d" % (q, m))
    p, alpha = prime_power(q)
    start = time.perf_counter()
    field = FieldSpec(p, alpha * m, poly)
    low_first = reversed(field.prim_poly[1:])
    tried = 1 if poly is not None else 1 + sum(c * p ** j for j, c in enumerate(low_first))
    log_debug(
        "make_field p=%d n=%d candidates=%d poly=%s search_s=%.6f",
        p, field.n, tried, ",".join(map(str, field.prim_poly)), time.perf_counter() - start,
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

