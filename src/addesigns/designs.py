"""Incidence structures with validated 2-design parameters, difference
sets certified by their constructor, their developments, which take the
parameters of that certificate, and the Paley and Singer constructions.

A design's blocks are a (b x k) integer array of point indices with
sorted rows, so the structures here are agnostic of whatever geometry
produced them.
"""

import itertools

import numpy as np

from . import chunks, gf
from .errors import (
    BadModulus,
    EmptyDesign,
    InvariantViolated,
    MalformedDocument,
    NotDifferenceSet,
    NotTwoDesign,
    TooLarge,
    UnequalBlockSizes,
)


def document_field(doc, key, kind):
    """doc[key], which must exist and be of type `kind` (a bool is not an int)."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedDocument("document needs %r of type %s" % (key, kind.__name__))
    return value


def integer_rows(key, rows, ragged=None, shape="a list of lists of integers"):
    """rows as a 2-D integer array.

    An integer array of two dimensions is returned as it is, and a list of
    equal-length lists or tuples of ints or numpy integers (a bool is
    neither) as one int64 array.  For rows of unequal lengths, ragged(sizes),
    if given, raises the caller's error on their sorted distinct lengths.  An
    entry beyond int64 raises TooLarge, and anything else MalformedDocument,
    which says that a list must be shape.
    """
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind not in "iu":
            raise MalformedDocument("%r must hold integers, not %s" % (key, rows.dtype))
        if rows.ndim != 2:
            raise MalformedDocument("%r must be a 2-D integer array" % key)
        return rows
    malformed = MalformedDocument("%r must be %s" % (key, shape))
    if not (isinstance(rows, list) and {list, tuple} >= set(map(type, rows)) and all(
            t is int or issubclass(t, np.integer)
            for t in set(map(type, itertools.chain.from_iterable(rows))))):
        raise malformed
    sizes = sorted(set(map(len, rows)))
    if len(sizes) > 1:
        if ragged:
            ragged(sizes)
        raise malformed
    try:
        return np.array(rows, np.int64).reshape(len(rows), sizes[0] if sizes else 0)
    except OverflowError:
        raise TooLarge("%r has entries beyond 64-bit integers" % key) from None


def _point_dtype(v):
    """The narrowest integer dtype of the point indices below v, as
    cli._load decodes them: unsigned below 2^32, else int64."""
    dtype = np.min_scalar_type(max(v - 1, 0))
    return dtype if dtype.itemsize < 8 else np.dtype(np.int64)


def _unequal_block_sizes(sizes):
    raise UnequalBlockSizes("block sizes %s" % sizes)


class Design:
    """A finite incidence structure on v points.

    blocks is a (b x k) array of the point indices, each row sorted, in
    _point_dtype(v).  params (k, lam, r, b, symmetric) are attached by
    validate_2design, or by develop from a difference-set certificate;
    until then they are None.
    """

    def __init__(self, v, blocks, points=None):
        blocks = integer_rows("blocks", blocks, _unequal_block_sizes)
        if blocks.size and (blocks.min() < 0 or blocks.max() >= v):
            raise NotTwoDesign("block index out of range")
        self._take(v, blocks.astype(_point_dtype(v)), points)  # a copy the sort may reorder

    def _take(self, v, blocks, points=None):
        """Keep blocks, an array in _point_dtype(v) of points below v that
        no caller holds: sort its rows in place, and refuse a repeated point
        a chunk of rows at a time, at one bool an entry."""
        blocks.sort(axis=1)
        step = chunks.rows_per_chunk(max(1, blocks.shape[1]))
        for lo in range(0, len(blocks), step):
            chunk = blocks[lo:lo + step]
            if (chunk[:, 1:] == chunk[:, :-1]).any():
                raise NotTwoDesign("repeated point inside a block")
        self.v = v
        self.blocks = blocks
        self.points = list(points) if points is not None else [str(i) for i in range(v)]
        self.k = None
        self.lam = None
        self.r = None
        self.b = None
        self.symmetric = None

    @property
    def validated(self):
        return self.k is not None

    def to_dict(self):
        d = {
            "v": self.v,
            "points": self.points,
            "blocks": self.blocks,
        }
        if self.validated:
            d["k"] = self.k
            d["lambda"] = self.lam
        return d

    @classmethod
    def from_dict(cls, d):
        """Read a design.  A document that claims k or lambda, each an int,
        is validated, and every claim must be what its blocks give; one
        that claims neither is read unvalidated, as `to_dict` wrote it."""
        v, points = document_field(d, "v", int), d.get("points")
        if points is not None and not (isinstance(points, list) and len(points) == v):
            raise MalformedDocument("'points' must be a list of v = %d labels" % v)
        claims = {key: document_field(d, key, int) for key in ("k", "lambda") if key in d}
        design = cls(v, d.get("blocks"), points)
        if not claims:
            return design
        design = validate_2design(design)
        given = (design.k, design.lam)
        claimed = (claims.get("k", design.k), claims.get("lambda", design.lam))
        if claimed != given:
            raise NotTwoDesign("document claims (k, lambda) = (%d, %d), blocks give (%d, %d)"
                               % (claimed + given))
        return design

    def __repr__(self):
        if self.validated:
            tag = "2-(%d,%d,%d), %d blocks%s" % (
                self.v, self.k, self.lam, self.b,
                ", symmetric" if self.symmetric else "",
            )
        else:
            tag = "%d points, %d blocks, unvalidated" % (self.v, len(self.blocks))
        return "Design(%s)" % tag


def _pair_counts(blocks, replication):
    """Yield, over consecutive ranges of points x, the number of blocks
    through both x and y for every point y, as one (points, v) array per
    range.  The count of x with itself, r_x, is no less than any other of
    its row, so the least count of the range is that of a pair, and it
    replaces the diagonal: every entry is the count of a pair.

    The blocks through each point are found by a stable sort of the
    incidences, which numpy radix-sorts on 8- and 16-bit point indices.  A
    point of a range takes 8 bytes for each of its v int64 pair counts and
    for each of its r blocks (the offset of its counts), and 8 bytes and
    the point's own width for each of its r k incidences (the point
    gathered and its int64 code), and the ranges are sized by that.
    """
    k = blocks.shape[1]
    v = len(replication)
    by_point = np.argsort(blocks.ravel().astype(_point_dtype(v), copy=False), kind="stable")
    by_point //= k
    ends = np.cumsum(replication)
    r = int(replication.max())
    step = chunks.rows_per_chunk(8 * (v + r) + (8 + blocks.itemsize) * r * k)
    for x0 in range(0, v, step):
        x1 = min(v, x0 + step)
        lo, hi = ends[x0] - replication[x0], ends[x1 - 1]
        codes = np.repeat(np.arange(0, (x1 - x0) * v, v), replication[x0:x1])[:, None] \
            + blocks.take(by_point[lo:hi], axis=0)
        counts = np.bincount(codes.ravel(), minlength=(x1 - x0) * v).reshape(x1 - x0, v)
        counts.reshape(-1)[x0::v + 1] = counts.min()  # (x, x) for x0 <= x < x1
        yield counts


def validate_2design(design):
    """Exhaustively count pairs, attach (k, lam, r, b) to the design and
    return it."""
    blocks = design.blocks
    if design.v < 2 or not len(blocks):
        raise EmptyDesign("need v >= 2 and at least one block")
    replication = np.bincount(blocks.ravel(), minlength=design.v)
    lam_values = set()
    for counts in _pair_counts(blocks, replication):
        low, high = int(counts.min()), int(counts.max())
        if low == 0:
            raise NotTwoDesign("some point pair lies on no block")
        # the distinct counts; only a range with more than one needs a tally
        values = [low] if low == high else np.flatnonzero(np.bincount(counts.ravel())).tolist()
        lam_values.update(values)
    if len(lam_values) != 1:
        raise NotTwoDesign("pair counts range over %s" % sorted(lam_values))
    lam = lam_values.pop()
    r_values = set(replication.tolist())
    if len(r_values) != 1:
        raise NotTwoDesign("replication numbers range over %s" % sorted(r_values))
    design.k = blocks.shape[1]
    design.lam = lam
    design.r = r_values.pop()
    design.b = len(blocks)
    design.symmetric = design.b == design.v
    return design


class DifferenceSet:
    """A (v, k, lam) difference set of Z_v, certified by its constructor.

    The elements are reduced mod v and must be distinct, with 2 <= k < v
    and v - 1 dividing k(k - 1); then one difference_counts product must
    cover every nonzero residue lam = k(k - 1)/(v - 1) times.
    """

    def __init__(self, v, elems):
        if v < 2:
            raise NotDifferenceSet("need v >= 2")
        D = sorted(x % v for x in elems)
        if len(set(D)) != len(D):
            raise NotDifferenceSet("repeated elements")
        k = len(D)
        if not 2 <= k < v:
            raise NotDifferenceSet("need 2 <= |D| < v")
        if k * (k - 1) % (v - 1) != 0:
            raise NotDifferenceSet("k(k-1) = %d not divisible by v-1 = %d" % (k * (k - 1), v - 1))
        lam = k * (k - 1) // (v - 1)
        counts = difference_counts(v, D)
        counts[0] = lam  # drop the k self-differences
        deviant = np.nonzero(counts != lam)[0]
        if deviant.size:
            i = int(deviant[0])
            raise NotDifferenceSet(
                "residue %d covered %d times, expected %d" % (i, int(counts[i]), lam)
            )
        self.v = v
        self.elems = tuple(D)
        self.lam = lam

    @property
    def k(self):
        return len(self.elems)

    def to_dict(self):
        return {"v": self.v, "set": list(self.elems)}

    @classmethod
    def from_dict(cls, d):
        """Read and certify a difference set."""
        v = document_field(d, "v", int)
        if v < 2:
            raise MalformedDocument("a difference-set document needs v >= 2")
        elems = document_field(d, "set", list)
        integer_rows("set", [elems], shape="a list of integers")
        return cls(v, elems)

    def __repr__(self):
        return "DifferenceSet(%d, %d, %d)" % (self.v, self.k, self.lam)


_FFT_FROM = 1 << 16  # the least v whose difference counts are correlated by FFT


def difference_counts(v, elems):
    """counts[r]: the ordered pairs (a, b) of elems with a - b = r mod v.

    The multiplicities of elems mod v, correlated with themselves, count
    the pairs with a - b = d for -v < d < v, and counts[r] adds the lags r
    and r - v.  From v = _FFT_FROM on, CPython's superlinear product of
    the integers below takes seconds (3.2 s at v = 300007), so while the
    rounding error bound eps * log2(2N) * n^2 of n elements stays below
    1/4, the lags are irfft(|rfft|^2) over N, the least power of two of at
    least 2v - 1, rounded, and checked: the counts sum to n^2, and
    counts[0] is the sum of the squared multiplicities.  Otherwise, and
    as the exact oracle, one Kronecker-substitution product: the
    multiplicities and their reverse, packed as integers with one slot
    per residue, multiply to the polynomial whose coefficient v - 1 + d
    is lag d.  No coefficient exceeds the central one, the sum of the
    squared multiplicities, which sizes the slots.
    """
    mult = np.bincount(np.asarray(elems, dtype=np.int64) % v, minlength=v)
    n = int(mult.sum())
    size = 1 << (2 * v - 2).bit_length()  # a power of two >= 2v - 1: no lag wraps
    if v >= _FFT_FROM and np.finfo(float).eps * size.bit_length() * n * n < 0.25:
        spectrum = np.fft.rfft(mult, size)
        spectrum = spectrum.real ** 2 + spectrum.imag ** 2
        counts = np.rint(np.fft.irfft(spectrum, size)[:v]).astype(np.int64)  # lags 0..v-1
        counts[1:] += counts[:0:-1]  # lag d - v is lag v - d
        if counts.sum() != n * n or counts[0] != mult @ mult:
            raise InvariantViolated("FFT difference counts of Z_%d do not add up" % v)
        return counts
    slot = np.min_scalar_type(int(mult @ mult)).newbyteorder("<")
    packed = mult.astype(slot)
    prod = int.from_bytes(packed.tobytes(), "little")
    prod *= int.from_bytes(packed[::-1].tobytes(), "little")
    coeffs = np.frombuffer(prod.to_bytes(2 * v * slot.itemsize, "little"), slot).astype(np.int64)
    counts = coeffs[v - 1:-1]
    counts[1:] += coeffs[:v - 1]  # the negative differences d - v
    return counts


def develop(ds):
    """The symmetric design (Z_v, {D+i : 0 <= i < v}) of a difference set.

    The development of a (v, k, lam) difference set is a symmetric
    2-(v, k, lam) design, so its parameters are those that the constructor
    of ds certified, and no pair of its blocks is counted.
    """
    # the blocks are the one array of a block's size: filled, and checked
    # by the design, a chunk of rows at a time (tracemalloc peak of the
    # Paley(2003) development: 2.1 bytes an entry)
    points = _point_dtype(ds.v)
    chunks.refuse_beyond_memory("the development of %r" % ds, ds.v, "blocks",
                                ds.k * points.itemsize)
    blocks = np.empty((ds.v, ds.k), points)
    sums = np.min_scalar_type(2 * ds.v - 2)  # d + i, 0 <= d, i < v
    elems = np.array(ds.elems, sums)
    step = chunks.rows_per_chunk(2 * ds.k * sums.itemsize)  # the sums and the sums - v
    for lo in range(0, ds.v, step):
        total = np.add.outer(np.arange(lo, min(ds.v, lo + step), dtype=sums), elems)
        # s mod v for unsigned s < 2v: where s < v, s - v wraps above s
        np.minimum(total, total - ds.v, out=blocks[lo:lo + step])
    design = Design.__new__(Design)
    design._take(ds.v, blocks)
    design.k = design.r = ds.k
    design.lam = ds.lam
    design.b = ds.v
    design.symmetric = True
    return design


def paley_diffset(v):
    """Nonzero quadratic residues mod a prime v = 3 (mod 4)."""
    # the squares and their certification take about 100 bytes per residue
    # (tracemalloc peak of paley_diffset(1000003): 90.2 MB, in the constructor)
    chunks.refuse_beyond_memory("Paley(%d)" % v, v, "residues", 100)
    if not gf.is_prime(v) or v % 4 != 3:
        raise BadModulus("%d is not a prime congruent to 3 mod 4" % v)
    # i^2 = j^2 forces i = +-j, so the i^2 for 0 < i <= (v - 1)/2 are the
    # nonzero squares, each once; int64 holds them for v < 6e9, which the
    # refusal above admits only beyond 600 GB of memory
    ds = DifferenceSet(v, (np.arange(1, (v + 1) // 2, dtype=np.int64) ** 2 % v).tolist())
    if ds.lam != (v - 3) // 4:
        raise NotDifferenceSet(
            "Paley set mod %d has lambda %d, expected %d" % (v, ds.lam, (v - 3) // 4)
        )
    return ds


def singer_diffset(n, q, poly=None):
    """Zero-trace exponent classes of a primitive element of GF(q^(n+1)).

    Trace(x) = sum of x^(q^j) for 0 <= j <= n maps GF(q^(n+1)) onto GF(q);
    zero-trace exponents are taken modulo v since shifting by v multiplies
    by an F_q*-scalar, preserving zero-ness.
    """
    if n < 2:
        raise BadModulus("Singer construction needs n >= 2")
    field = gf.make_field(q, n + 1, poly)
    v = (q ** (n + 1) - 1) // (q - 1)
    ds = DifferenceSet(v, _zero_trace_exponents(field, q, n + 1))
    expected = ((q ** n - 1) // (q - 1), (q ** (n - 1) - 1) // (q - 1))
    if (ds.k, ds.lam) != expected:
        raise NotDifferenceSet(
            "Singer set of PG(%d,%d) has (k, lambda) = (%d, %d), expected (%d, %d)"
            % ((n, q, ds.k, ds.lam) + expected)
        )
    return ds


def _zero_trace_exponents(field, q, degree):
    """The i < v = (q^degree - 1)/(q - 1), ascending, at which the root r
    of the field GF(q^degree) has Trace(r^i) = 0 over GF(q).

    The trace is F_p-linear: gf.digits(c) @ T % p holds the coefficients
    of Trace(c) when row j of T, from the last, is Trace(x^j), the sum of
    x^(j q^l) mod f over l < degree."""
    p, t = field.p, field.n
    trace = np.zeros((t, t), dtype=np.int64)
    for l in range(degree):
        frobenius = gf.x_power_matrix(p, field.prim_poly, q ** l)  # times x^(q^l)
        term = np.eye(1, t, dtype=np.int64)[0]  # x^0
        for j in range(t):
            trace[t - 1 - j] += term  # x^(j q^l), low degree first
            term = term @ frobenius % p
    # digits(c) @ T is the sum of the terms of the h low and the t - h high
    # digits of c, so Trace(c) = 0 iff the trace of the low part is minus
    # that of the high part: two tables of codes, of p^h and p^(t-h) parts
    h, weights = t // 2, p ** np.arange(t, dtype=np.int64)
    low_trace = gf.digits(np.arange(p ** h), h, p) @ trace[t - h:] % p @ weights
    high_trace = -(gf.digits(np.arange(p ** (t - h)), t - h, p) @ trace[:t - h]) % p @ weights
    codes = field.powers((field.q - 1) // (q - 1))
    elems = []
    # a row takes the quotient and remainder of its code, their two table
    # codes and a bool
    step = chunks.rows_per_chunk(33)
    for lo in range(0, len(codes), step):
        high, low = np.divmod(codes[lo:lo + step], p ** h)
        elems += (lo + np.flatnonzero(low_trace[low] == high_trace[high])).tolist()
    return elems
