"""Points and subspaces of PG(n,q) and AG(n,q), q-analog counting, and
the classical designs PG_d(n,q) and AG_d(n,q).

Subspaces are canonicalized as reduced-row-echelon bases and enumerated
in lexicographic order, so block indices are stable across runs.
Coordinates are labels 0..q-1 of the elements of a field of order q: the
codes of gf.FieldSpec for GF(q) itself.  One enumerator, _span_points,
turns RREF bases into point sets through the field's addition and
multiplication tables; the PG, cyclic PG and AG designs differ only in
the field they compute in and in how they label points.
"""

import itertools
from functools import lru_cache

import numpy as np

from . import chunks, gf
from .designs import Design, validate_2design
from .errors import DimensionOutOfRange, InvariantViolated


def _refuse_non_prime_power(q):
    """Raise NotPrime if q is not a prime power.  A q beyond
    gf.MAX_FIELD_ORDER is left to the size refusals, since no field of
    that order is built and factoring a large prime q takes minutes."""
    if q <= gf.MAX_FIELD_ORDER:
        gf.prime_power(q)


def bracket(n, q):
    """(q^n - 1)/(q - 1): the number of points of PG(n-1,q), q a prime
    power (NotPrime otherwise)."""
    _refuse_non_prime_power(q)
    if n < 0:
        raise DimensionOutOfRange("negative dimension")
    return (q ** n - 1) // (q - 1)


def gaussian(n, k, q):
    """Gaussian binomial: the number of k-dim linear subspaces of F_q^n, q
    a prime power (NotPrime otherwise)."""
    _refuse_non_prime_power(q)
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    if num % den != 0:
        raise InvariantViolated("Gaussian binomial [%d %d]_%d is not an integer" % (n, k, q))
    return num // den


@lru_cache(maxsize=None)
def _field(q):
    return gf.make_field(q, 1)


def _tables(field, elem):
    """Addition and multiplication tables, on labels, of the subfield of
    `field` whose element with label i has the code elem[i]."""
    elem = np.asarray(elem)
    a, b = np.broadcast_arrays(elem[:, None], elem)
    add = field.sum_codes(np.stack((a, b), axis=-1))
    mul = np.where(a * b == 0, 0, field._exp[(field._log[a] + field._log[b]) % (field.q - 1)])
    label = np.argsort(elem).astype(np.min_scalar_type(len(elem) - 1))  # by ascending code
    return label[elem[label].searchsorted(add)], label[elem[label].searchsorted(mul)]


def _point_codes(length, q):
    """Codes of the vectors whose first nonzero label is 1, ascending: the
    points of PG(length-1,q).  Those with the 1 at position length-1-i
    are the codes q^i .. 2q^i - 1."""
    return np.concatenate([np.arange(q ** i, 2 * q ** i) for i in range(length)])


def pg_points(n, q):
    """All normalized points of PG(n,q) in lexicographic order, as the
    rows of a ([n+1]_q, n+1) array."""
    if n < 1:
        raise DimensionOutOfRange("need n >= 1")
    return gf.digits(_point_codes(n + 1, q), n + 1, q)


def _labels(points):
    """Point names: the coordinates of each row joined by colons."""
    return [":".join(map(str, row)) for row in points]


def _rref_bases(rows, cols, q):
    """Yield each pivot tuple, in lexicographic order, with the array of
    every full-rank RREF matrix over the labels 0..q-1 with those pivots;
    its free entries, row by row, take all values in lexicographic order."""
    for pivots in itertools.combinations(range(cols), rows):
        free = [
            (i, j)
            for i in range(rows)
            for j in range(pivots[i] + 1, cols)
            if j not in pivots
        ]
        mats = np.zeros((q ** len(free), rows, cols), dtype=np.min_scalar_type(q - 1))
        mats[:, range(rows), pivots] = 1
        if free:
            fi, fj = zip(*free)
            mats[:, fi, fj] = gf.digits(np.arange(len(mats)), len(free), q)
        yield pivots, mats


def _span_points(add, mul, bases, coeffs, point_of):
    """Row i holds point_of[code of c . bases[i]] for every row c of
    coeffs, sorted.  Arithmetic goes through the q x q label tables add
    and mul; the code of a vector x is sum x_j q^(cols-1-j).  Bases are
    taken in chunks; for each row of coeffs a basis takes three vectors of
    cols labels, two codes and a point."""
    b, rows, cols = bases.shape
    q = len(add)
    code_type = np.min_scalar_type(q ** cols - 1)
    out = np.empty((b, len(coeffs)), dtype=point_of.dtype)
    step = chunks.rows_per_chunk(
        len(coeffs) * (3 * cols * add.itemsize + 2 * code_type.itemsize + point_of.itemsize))
    for lo in range(0, b, step):
        chunk = bases[lo:lo + step, None]  # (s, 1, rows, cols)
        vec = mul[coeffs[:, :1], chunk[:, :, 0]]  # (s, len(coeffs), cols)
        for i in range(1, rows):
            vec = add[vec, mul[coeffs[:, i:i + 1], chunk[:, :, i]]]
        code = np.zeros(vec.shape[:2], dtype=code_type)
        for j in range(cols):
            code = code * q + vec[:, :, j]
        out[lo:lo + step] = point_of[code]
    out.sort(axis=1)
    return out


def enumerate_subspaces(n, q, d):
    """The RREF bases of all d-subspaces of PG(n,q), as a (b, d+1, n+1)
    array of labels in lexicographic order."""
    if not 0 <= d <= n:
        raise DimensionOutOfRange("need 0 <= d <= n")
    b = gaussian(n + 1, d + 1, q)
    # a subspace takes its basis of labels and, as a block, int64 points
    chunks.refuse_beyond_memory("PG_%d(%d,%d)" % (d, n, q), b, "blocks",
                                (d + 1) * (n + 1) + 8 * bracket(d + 1, q))
    bases = np.concatenate([mats for _, mats in _rref_bases(d + 1, n + 1, q)])
    bases = bases[np.lexsort(bases.reshape(len(bases), -1).T[::-1])]
    if len(bases) != b:
        raise InvariantViolated(
            "PG(%d,%d) gave %d subspaces of dimension %d, expected %d"
            % (n, q, len(bases), d, b)
        )
    return bases


def subspace_blocks(n, q, d, tables=None, labels=None):
    """The points of every d-subspace of PG(n,q), in enumerate_subspaces
    order, as a (b, [d+1]_q) array of sorted rows.

    `tables` are the addition and multiplication tables, on the labels
    0..q-1, of the field of order q to compute in (GF(q)'s by default);
    the i-th point in pg_points order is written as labels[i] (i by
    default).
    """
    bases = enumerate_subspaces(n, q, d)
    if tables is None:
        tables = _tables(_field(q), range(q))
    v = bracket(n + 1, q)
    point_of = np.zeros(q ** (n + 1), dtype=np.min_scalar_type(v - 1))
    point_of[_point_codes(n + 1, q)] = np.arange(v) if labels is None else labels
    # An RREF basis times a normalized coefficient vector is normalized:
    # its first nonzero coordinate sits at the first used pivot.
    coeffs = gf.digits(_point_codes(d + 1, q), d + 1, q)
    return _span_points(*tables, bases, coeffs, point_of)


def pg_design(n, q, d):
    """The 2-design of points and d-subspaces of PG(n,q)."""
    if not 1 <= d <= n - 1:
        raise DimensionOutOfRange("need 1 <= d <= n-1")
    blocks = subspace_blocks(n, q, d)
    labels = _labels(pg_points(n, q))
    design = validate_2design(Design(len(labels), blocks, labels))
    if design.lam != gaussian(n - 1, d - 1, q):
        raise InvariantViolated(
            "PG_%d(%d,%d) has lambda %d, expected %d"
            % (d, n, q, design.lam, gaussian(n - 1, d - 1, q))
        )
    return design


def ag_points(n, q):
    """All q^n vectors of F_q^n in lexicographic code order, as the rows of
    a (q^n, n) array."""
    return gf.digits(np.arange(q ** n), n, q)


def ag_design(n, q, d):
    """The 2-design on F_q^n whose blocks are all cosets of all d-dim
    linear subspaces.

    The cosets t + W are the (d+1)-subspaces of F_q^(n+1) off the
    hyperplane x_0 = 0.  Their RREF bases are a row (1, t), with t zero on
    the pivot columns of W, over a basis (0, W), so t runs over one
    representative per coset, and their vectors (1, x) are its points x.
    Blocks come subspace by subspace in RREF enumeration order, each
    subspace's cosets sorted.
    """
    if not 1 <= d <= n - 1:
        raise DimensionOutOfRange("need 1 <= d <= n-1")
    # a coset takes its basis of labels and, as a block, int64 points
    chunks.refuse_beyond_memory("AG_%d(%d,%d)" % (d, n, q), q ** (n - d) * gaussian(n, d, q),
                                "blocks", (d + 1) * (n + 1) + 8 * q ** d)
    labels = _labels(ag_points(n, q))
    tables = _tables(_field(q), range(q))
    affine = gf.digits(np.arange(q ** d, 2 * q ** d), d + 1, q)  # coefficients (1, c)
    point_of = np.arange(-q ** n, q ** n)  # (1, x) has code q^n + code of x
    blocks = []
    for pivots, bases in _rref_bases(d + 1, n + 1, q):
        if pivots[0] != 0:
            break  # the remaining subspaces lie in x_0 = 0
        # t's free entries come first, so the rows run over t within each
        # W.  t is the least point of t + W (its pivot coordinates are 0)
        # and runs in lexicographic order, so regrouped by W the cosets
        # come sorted.
        cosets = _span_points(*tables, bases, affine, point_of).reshape(q ** (n - d), -1, q ** d)
        blocks.append(cosets.swapaxes(0, 1).reshape(-1, q ** d))
    return validate_2design(Design(len(labels), np.concatenate(blocks), labels))


def pg_design_cyclic(n, q, d, poly=None):
    """PG_d(n,q) with points indexed by the exponent classes of a
    primitive element omega of GF(q^(n+1)) modulo F_q*.

    Point i is the class of omega^i, 0 <= i < v = [n+1]_q.  The blocks are
    the d-subspaces of PG(n,q) over the subfield F_q = {0} u <omega^v>,
    whose label j >= 1 is omega^((j-1)v), so label 1 is the element 1,
    with each point x written as the class of sum_j x_j omega^j.  That
    map is F_q-linear and one to one, as 1, omega, ..., omega^n is a basis
    of GF(q^(n+1)) over F_q.
    """
    if not 1 <= d <= n - 1:
        raise DimensionOutOfRange("need 1 <= d <= n-1")
    field = gf.make_field(q, n + 1, poly)
    big = field.q - 1
    v = bracket(n + 1, q)
    if big != v * (q - 1):
        raise InvariantViolated("|GF(%d)*| = %d is not %d * %d" % (field.q, big, v, q - 1))
    terms = np.zeros((n + 1, q), dtype=np.int64)  # terms[j, x]: code of x omega^j
    terms[:, 1:] = field._exp[(np.arange(q - 1) * v + np.arange(n + 1)[:, None]) % big]
    pts = pg_points(n, q)
    classes = field._log[field.sum_codes(terms[np.arange(n + 1), pts])] % v
    # terms[0] holds the subfield's codes: 0, 1, omega^v, ..., omega^((q-2)v)
    blocks = subspace_blocks(n, q, d, _tables(field, terms[0]), classes)
    return validate_2design(Design(v, blocks[np.lexsort(blocks.T[::-1])]))
