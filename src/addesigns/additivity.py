"""Embeddings of designs into abelian groups Z_m^t and exact verifiers
for additivity (all blocks zero-sum) and strong additivity (the zero-sum
k-subsets of the embedded point set are exactly the blocks).
"""

import math
import time

import numpy as np

from . import chunks, gf
from .designs import difference_counts, document_field, integer_rows, validate_2design
from .errors import (
    BadPrime,
    DegenerateOrder,
    DimensionOutOfRange,
    GroupMismatch,
    InvariantViolated,
    MalformedDocument,
    NotSubspaceBlocks,
    NotSymmetric,
    SizeMismatch,
    TooLarge,
)
from .geometry import bracket, subspace_blocks

DEFAULT_STRONG_CAP = 10 ** 8  # estimated work (_strong_split): about a minute
_STRONG_KEEP = 1 << 21  # subsets the kept half of the strong check may hold


class Embedding:
    """A point -> group-element assignment for a design, into Z_m^t with
    componentwise addition mod m, t the width of the image.

    image is a (v x t) array of residues mod m in _residue_dtype(m); the
    modulus must be below 2^63, so that a residue fits an int64 and the
    sum of two fits a uint64.
    """

    def __init__(self, m, image, kind, meta=None):
        if m > np.iinfo(np.int64).max:
            raise TooLarge("modulus %d is not below 2^63" % m)
        def ragged(sizes):
            raise GroupMismatch("image rows have lengths %s" % sizes)

        rows = integer_rows("image", image, ragged)
        if m < 2 or not rows.shape[1]:
            raise GroupMismatch("need modulus >= 2 and rank >= 1")
        # residues are copied straight to the residue dtype, other entries
        # reduced in place: in the int64 array made from a list, or in a
        # 64-bit copy of an array, uint64 if unsigned so that no entry wraps
        if rows.size and (rows.min() < 0 or rows.max() >= m):
            if rows is image:
                rows = rows.astype(np.uint64 if rows.dtype.kind == "u" else np.int64)
            np.remainder(rows, m, out=rows)
        self.m = m
        self.image = rows.astype(_residue_dtype(m))
        self.kind = kind
        self.meta = dict(meta or {})

    @property
    def t(self):
        return self.image.shape[1]

    @property
    def injective(self):
        keys = np.sort(_row_keys(self.image))
        return not (keys[1:] == keys[:-1]).any()

    def to_dict(self):
        return {
            "group": {"m": self.m, "t": self.t},
            "kind": self.kind,
            "image": self.image,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d):
        group = document_field(d, "group", dict)
        m, t = document_field(group, "m", int), document_field(group, "t", int)
        if m < 2 or t < 1:
            raise MalformedDocument("need modulus >= 2 and rank >= 1")
        meta = d.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise MalformedDocument("'meta' must be an object")
        kind = document_field(d, "kind", str)
        try:
            emb = cls(m, d.get("image"), kind, meta)
            if emb.t == t:
                return emb
        except GroupMismatch:  # ragged or empty rows
            pass
        raise MalformedDocument("every image row must have length t = %d" % t)

    def __repr__(self):
        return "Embedding(Z_%d^%d, %r, v=%d)" % (self.m, self.t, self.kind, len(self.image))


class Report:
    """Outcome of an additivity / strong-additivity verification.

    The strong criterion compares the blocks against the zero-sum
    k-subsets of the embedded point set (not of the whole group).
    """

    def __init__(self, injective, additive, strong, zero_sum_subsets, blocks,
                 failures, label=None):
        self.injective = injective
        self.additive = additive
        self.strong = strong  # "pass" | "fail" | "skipped"
        self.zero_sum_subsets = zero_sum_subsets
        self.blocks = blocks
        self.failures = failures
        self.label = label  # "strict" | "almost-strict" | None

    def to_dict(self):
        return {
            "injective": self.injective,
            "additive": self.additive,
            "strong": self.strong,
            "zero_sum_subsets": self.zero_sum_subsets,
            "blocks": self.blocks,
            "failures": self.failures,
            "label": self.label,
        }

    def __repr__(self):
        return "Report(injective=%s, additive=%s, strong=%s)" % (
            self.injective, self.additive, self.strong)


def _injective(emb):
    """Return emb, or raise GroupMismatch if two points share an image."""
    if not emb.injective:
        raise GroupMismatch("%s embedding maps two points to one element" % emb.kind)
    return emb


def _additivity_label(order, v):
    return {v: "strict", v + 1: "almost-strict"}.get(order)


def _complement_matrix_embedding(v, blocks, modulus, kind, meta):
    """Point i goes to the row that is 0 at the blocks through i, else 1."""
    image = np.ones((v, len(blocks)), dtype=np.uint8)
    image[blocks, np.arange(len(blocks))[:, None]] = 0
    return _injective(Embedding(modulus, image, kind, meta))


def symmetric_strong_embedding(design):
    """Rows of the complement incidence matrix over Z_{k-lambda}.

    Strong for every symmetric design; the group is Z_{k-lambda}^v.
    """
    if not design.validated:
        design = validate_2design(design)
    if not design.symmetric:
        raise NotSymmetric("design has %d points but %d blocks" % (design.v, len(design.blocks)))
    order = design.k - design.lam
    if order < 2:
        raise DegenerateOrder("k - lambda = %d" % order)
    return _complement_matrix_embedding(
        design.v, design.blocks, order, "symmetric-strong",
        {"k": design.k, "lambda": design.lam},
    )


def pg_strong_embedding(n, q, d):
    """Point-hyperplane complement matrix of PG(n,q) over Z_{q^d}.

    Strong for PG_d(n,q); the group is Z_{q^d}^{[n+1]_q}.
    """
    if not 1 <= d <= n - 1:
        raise DimensionOutOfRange("need 1 <= d <= n-1")
    return _complement_matrix_embedding(
        bracket(n + 1, q), subspace_blocks(n, q, n - 1), q ** d, "pg-strong",
        {"n": n, "q": q, "d": d},
    )


def cyclic_embedding(ds, p, poly=None):
    """Embed the development of a difference set in EA(p^t), t = ord_v(p).

    Maps x to the coefficient vector of g^(ix) where g generates the
    order-v subgroup of GF(p^t)* and the sign i in {1,-1} is chosen so
    that sigma_i = sum over D of g^(id) vanishes.  If both sums vanish,
    i = 1 is chosen.
    """
    k, lam, v = ds.k, ds.lam, ds.v
    if p < 2 or (k - lam) % p != 0 or not gf.is_prime(p):
        raise BadPrime("%d is not a prime divisor of k - lambda = %d" % (p, k - lam))
    if v % p == 0:
        raise BadPrime("%d divides v = %d" % (p, v))
    t = gf.mult_order(p, v)
    field = gf.make_field(p, t, poly)
    e = (field.q - 1) // v
    powers = gf.digits(field.powers(v, e), t, p)  # row x: g^x for g = r^e
    elems = np.array(ds.elems)
    sigma = {sign: powers[sign * elems % v].sum(axis=0) % p for sign in (1, -1)}
    if not sigma[1].any():
        sign = 1
    elif not sigma[-1].any():
        sign = -1
    else:
        raise InvariantViolated("neither sigma_1 nor sigma_-1 vanished")
    meta = {
        "p": p,
        "t": t,
        "poly": list(field.prim_poly),
        "g_exponent": e,
        "g": powers[1].tolist(),
        "sign": sign,
        "sigma_1": sigma[1].tolist(),
        "sigma_-1": sigma[-1].tolist(),
    }
    image = powers[sign * np.arange(v) % v]
    return _injective(Embedding(p, image, "cyclic-smooth", meta))


def sigma_product_is_zero(ds, p):
    """Check sigma_1 * sigma_-1 = 0 in GF(p^t) without building the field.

    The product is computed symbolically in F_p[x]/(x^v - 1), where x
    stands for g.  Since g is a primitive v-th root of unity, every
    polynomial multiple of 1 + x + ... + x^(v-1) evaluates to zero at g,
    so the product vanishes in GF(p^t) iff its reduction mod x^v - 1 has
    all coefficients congruent mod p.
    """
    counts = difference_counts(ds.v, ds.elems) % p
    return bool((counts == counts[0]).all())


def subspace_embedding(q, design, poly=None):
    """The power map of a subspace design: class of omega^i goes to the
    coefficient vector of omega^(i(q-1)) in GF(q^m), flattened over Z_p,
    where m is the degree with [m]_q = design.v.

    The design's points must be the exponent classes of GF(q^m)*/F_q*
    in order, i.e. point i represents the class of omega^i.
    """
    m = 2
    while bracket(m, q) < design.v:
        m += 1
    if bracket(m, q) != design.v:
        raise SizeMismatch("%d is not the point count of any PG(m-1,%d)" % (design.v, q))
    field = gf.make_field(q, m, poly)
    image = gf.digits(field.powers(design.v, q - 1), field.n, field.p)  # row i: omega^(i(q-1))
    emb = _injective(Embedding(field.p, image, "subspace-smooth",
                               {"q": q, "m": m, "poly": list(field.prim_poly)}))
    bad = next(_nonzero_block_sums(emb.image, design.blocks, field.p), None)
    if bad is not None:
        raise NotSubspaceBlocks("block %d is not a subspace in this coordinatization" % bad[0])
    return emb


def ag_identity_embedding(n, q):
    """The identity map of AG(n,q): a point vector over F_q flattened to
    its Z_p coefficient string, in ag_points order.

    The coefficients of a code of GF(q) are its base-p digits, so the
    string of a point is the base-p digits of its lexicographic code."""
    p, alpha = gf.prime_power(q)
    # a point takes its code and two int64 temporaries in gf.digits with its
    # alpha n one-byte digits, then the digits and their residue copy, then
    # the residues and their sorted row keys (tracemalloc peak of
    # ag_identity_embedding(8, 5): 32 bytes per point)
    chunks.refuse_beyond_memory("AG(%d,%d)" % (n, q), q ** n, "points", 24 + 2 * alpha * n)
    return _injective(Embedding(p, gf.digits(np.arange(q ** n), alpha * n, p), "identity",
                                {"n": n, "q": q}))


def verify_embedding(design, emb):
    """Check injectivity and that every block image is zero-sum."""
    if len(emb.image) != design.v:
        raise SizeMismatch("embedding covers %d points, design has %d" % (len(emb.image), design.v))
    failures = [[i, total.tolist()]
                for i, total in _nonzero_block_sums(emb.image, design.blocks, emb.m)]
    return Report(
        injective=emb.injective,
        additive=not failures,
        strong="skipped",
        zero_sum_subsets=None,
        blocks=len(design.blocks),
        failures=failures,
        label=_additivity_label(emb.m ** emb.t, design.v),
    )


def _residue_dtype(m):
    """The narrowest unsigned dtype that holds the sum of two residues mod m."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if 2 * (m - 1) <= np.iinfo(dtype).max:
            return dtype
    return np.uint64


def _reduce(s, m):
    """s mod m for unsigned s < 2m: where s < m, s - m wraps above s."""
    return np.minimum(s, s - m)


def _row_keys(rows):
    """Each row of a 2-D array as one byte string, for sorting and lookup;
    rows of no columns, which numpy cannot view so, as one zero byte."""
    if not rows.shape[1]:
        return np.zeros(len(rows), "V1")
    key = np.dtype((np.void, rows.shape[1] * rows.itemsize))
    return np.ascontiguousarray(rows).view(key).ravel()


def _nonzero_block_sums(image, blocks, m):
    """Yield (index, sum) for each block whose image rows do not sum to zero
    mod m, in block order.

    image is a (v, t) array of residues in _residue_dtype(m) and blocks a
    (b, k) array of point indices; the sums are accumulated one block
    column at a time over chunks of blocks sized by their t residues.
    """
    t = image.shape[1]
    step = chunks.rows_per_chunk(t * image.itemsize)
    for lo in range(0, len(blocks), step):
        chunk = blocks[lo:lo + step]
        total = np.zeros((len(chunk), t), image.dtype)
        for column in chunk.T:
            total = _reduce(total + image[column], m)
        for i in np.flatnonzero(total.any(axis=1)).tolist():
            yield lo + i, total[i]


def _key_coordinates(m, t):
    """How many coordinates of Z_m^t one uint64 key packs: t, or the
    largest s with m^s <= 2^64 if that is fewer."""
    s = 1
    while s < t and m ** (s + 1) <= 2 ** 64:
        s += 1
    return s


def _splitmix64(n):
    """The first n outputs of the splitmix64 generator from seed 0."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _project(image, m, s):
    """The rows of image mapped into Z_m^s: unchanged if s = t, else by a
    fixed pseudo-random linear map, computed exactly."""
    t = image.shape[1]
    if s == t:
        return image
    matrix = (_splitmix64(t * s) % np.uint64(m)).reshape(t, s)
    if (m - 1) ** 2 * t <= np.iinfo(np.int64).max:
        proj = np.einsum("ij,jk->ik", image, matrix.astype(np.int64), dtype=np.int64) % m
    else:  # the dot products need more than 64 bits
        proj = image.astype(object) @ matrix.astype(object) % m
    return proj.astype(image.dtype)


def _subset_sums(rows, m, r, step):
    """Yield (subsets, sums) over the r-subsets of the rows of a (v, s)
    residue array, in lexicographic order, step subsets at a time:
    subsets is an (n, r) array of row indices, sums the (n, s) array of
    their sums mod m.

    A chunk is a range of ranks, unranked in numpy one point at a time
    from the co-rank d (subsets from this one to the last): with j points
    left to place, the next point p is the last with C(v - p, j) >= d,
    and d drops by C(v - p - 1, j).  Every count used is at most C(v, r).
    """
    v, s = rows.shape
    total = math.comb(v, r)
    # below[j][p] = -C(v - p, j), ascending in p, capped where it exceeds C(v, r)
    below = [-np.array([min(math.comb(v - p, j), total) for p in range(v + 1)], np.int64)
             for j in range(r + 1)]
    for lo in range(0, total, step):
        corank = total - np.arange(lo, min(total, lo + step))
        subsets = np.empty((len(corank), r), np.intp)
        sums = np.zeros((len(corank), s), rows.dtype)
        for j in range(r, 0, -1):
            point = below[j].searchsorted(-corank, "right") - 1
            subsets[:, r - j] = point
            sums = _reduce(sums + rows[point], m)
            corank += below[j][point + 1]
        yield subsets, sums


def _zero_sum_sets(image, m, k, a, stats):
    """Yield arrays whose rows are the zero-sum k-subsets of the rows of
    image, each sorted and each once, and count the work in stats.

    image is a (v, t) array of residues mod m in _residue_dtype(m).  A
    k-set is split into A, its first a points, and B, the other k - a; it
    is zero-sum iff sum(A) = -sum(B), so the a-subsets A are kept sorted
    by the key of their sum and the (k - a)-subsets B are streamed in
    chunks and matched against them with searchsorted; a matched pair is
    a k-set iff max(A) < min(B).  Index sets are counted, not images, so
    repeated rows are handled.  A key packs the residues themselves when
    m^t <= 2^64 (see _key_coordinates), else their image under a fixed
    linear map (_project), and then every pair is confirmed by its exact
    sum; a pair that fails is a projection false positive.
    """
    v, t = image.shape
    s = _key_coordinates(m, t)
    proj = _project(image, m, s)
    # a subset or a pair takes s residues and about k + 8 int64 indices
    # and counters
    step = chunks.rows_per_chunk(s * image.itemsize + 8 * (k + 8))
    weights = np.array([m ** i for i in range(s)], dtype=np.uint64)

    def pack(sums):  # the residues (y_0, ..., y_(s-1)) as the sum of y_i m^i
        return np.einsum("ij,j->i", sums, weights, dtype=np.uint64)  # no (n, s) uint64 copy

    kept, keys = [], []
    for subsets, sums in _subset_sums(proj[:v - k + a], m, a, step):
        kept.append(subsets.astype(np.int32))
        keys.append(pack(sums))
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")  # the first default-kind argsort adds 0.3 MB RSS
    keys = keys[order]
    kept = np.concatenate(kept)
    kept = kept[order]
    del order
    last = kept[:, -1] if a else np.full(len(kept), -1)
    stats.update(kept=len(keys), streamed=0, pairs=0, false_positives=0)
    # B is streamed over the negated rows, so its sums are the keys it wants
    for subsets, sums in _subset_sums(_reduce(m - proj[a:], m), m, k - a, step):
        stats["streamed"] += len(subsets)
        want = pack(sums)
        # sorted queries let searchsorted walk the keys once
        by_key = np.argsort(want, kind="stable")
        want = want[by_key]
        lo = keys.searchsorted(want)
        hit = np.flatnonzero(keys[np.minimum(lo, len(keys) - 1)] == want)
        if not hit.size:
            continue
        lo, subsets = lo[hit], subsets[by_key[hit]] + a
        count = keys.searchsorted(want[hit], "right") - lo
        ends = np.cumsum(count)
        stats["pairs"] += int(ends[-1])
        least = subsets[:, 0] if k > a else np.full(len(subsets), v)
        for p in range(0, int(ends[-1]), step):
            pair = np.arange(p, min(int(ends[-1]), p + step))
            b = ends.searchsorted(pair, "right")
            i = lo[b] + pair - (ends[b] - count[b])
            keep = last[i] < least[b]
            sets = np.hstack((kept[i[keep]], subsets[b[keep]]))
            if s < t:
                bad = [j for j, _ in _nonzero_block_sums(image, sets, m)]
                stats["false_positives"] += len(bad)
                sets = np.delete(sets, bad, axis=0)
            yield sets


def _strong_split(v, k, m, s):
    """(work, a): the split of _zero_sum_sets with the least estimated
    work among those whose kept half holds at most _STRONG_KEEP subsets.

    The work is the a-subsets kept plus the (k - a)-subsets streamed plus
    the equal-key pairs expected if the m^s keys were hit at random.
    """
    splits = []
    for a in range(k // 2 + 1):
        kept, streamed = math.comb(v - k + a, a), math.comb(v - a, k - a)
        if kept <= _STRONG_KEEP:  # always so for a = 0
            splits.append((kept + streamed + kept * streamed // m ** s, a))
    return min(splits)


def verify_strong(design, emb, cap=DEFAULT_STRONG_CAP):
    """Compare the blocks against the zero-sum k-subsets of the embedded
    point set.

    The zero-sum sets are found by meet in the middle (_zero_sum_sets),
    with the split of least estimated work (_strong_split); if that
    estimate exceeds cap the strong check is reported as skipped, not
    failed.  The sets are only counted: if every block is zero-sum, every
    distinct block is among them, so the check passes iff every block is
    zero-sum and they are as many as the distinct blocks.  Logs the
    split, the work counters and the seconds at DEBUG level on the
    "addesigns" logger.
    """
    base = verify_embedding(design, emb)
    k = design.blocks.shape[1]
    m = emb.m
    work, a = _strong_split(design.v, k, m, _key_coordinates(m, emb.t))
    if work > cap:
        return base
    if work > np.iinfo(np.int64).max:
        raise TooLarge("estimated work %d of the strong check exceeds 2^63" % work)
    start = time.perf_counter()
    blocks = np.sort(_row_keys(design.blocks))  # np.unique and np.isin import numpy.ma
    distinct = len(blocks) - np.count_nonzero(blocks[1:] == blocks[:-1])
    stats = {}
    found = sum(len(sets) for sets in _zero_sum_sets(emb.image, m, k, a, stats))
    base.strong = "pass" if base.additive and found == distinct else "fail"
    base.zero_sum_subsets = found
    gf.log_debug(
        "verify_strong v=%d k=%d split=%d estimate=%d kept=%d streamed=%d "
        "equal_key_pairs=%d false_positives=%d zero_sum=%d seconds=%.6f",
        design.v, k, a, work, stats["kept"], stats["streamed"], stats["pairs"],
        stats["false_positives"], found, time.perf_counter() - start,
    )
    return base
