"""Embeddings of designs into abelian groups Z_m^t and exact verifiers
for additivity (all blocks zero-sum) and strong additivity (the zero-sum
k-subsets of the embedded point set are exactly the blocks).
"""

import math

import numpy as np

from . import gf
from .designs import difference_counts, document_field, document_rows, validate_2design
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

DEFAULT_STRONG_CAP = 10 ** 7
_STRONG_CHUNK = 10 ** 5  # elements (rows x t) one numpy call of the verifiers touches


class AbelianGroup:
    """Z_m^t with componentwise addition mod m."""

    def __init__(self, m, t):
        if m < 2 or t < 1:
            raise GroupMismatch("need modulus >= 2 and rank >= 1")
        self.m = m
        self.t = t

    @property
    def order(self):
        return self.m ** self.t

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and (self.m, self.t) == (other.m, other.t)

    def __repr__(self):
        return "Z_%d^%d" % (self.m, self.t)


class Embedding:
    """A point -> group-element assignment for a design.

    image is a (v x t) array of residues mod m in _residue_dtype(m); the
    modulus must be below 2^63, so that a residue fits an int64 and the
    sum of two fits a uint64.
    """

    def __init__(self, group, image, kind, meta=None):
        if group.m > np.iinfo(np.int64).max:
            raise TooLarge("modulus %d is not below 2^63" % group.m)
        image = np.asarray(image, dtype=np.int64)
        if image.ndim != 2 or image.shape[1] != group.t:
            raise GroupMismatch("expected rank-%d vectors" % group.t)
        self.group = group
        self.image = (image % group.m).astype(_residue_dtype(group.m))
        self.kind = kind
        self.meta = dict(meta or {})

    @property
    def injective(self):
        keys = np.sort(_row_keys(self.image))
        return not (keys[1:] == keys[:-1]).any()

    def to_dict(self):
        return {
            "group": {"m": self.group.m, "t": self.group.t},
            "kind": self.kind,
            "image": self.image.tolist(),
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d):
        group = document_field(d, "group", dict)
        m, t = document_field(group, "m", int), document_field(group, "t", int)
        if m < 2 or t < 1:
            raise MalformedDocument("need modulus >= 2 and rank >= 1")
        image = document_rows(d, "image")
        if any(len(row) != t for row in image):
            raise MalformedDocument("every image row must have length t = %d" % t)
        return cls(AbelianGroup(m, t), image, document_field(d, "kind", str), d.get("meta"))

    def __repr__(self):
        return "Embedding(%s, %r, v=%d)" % (self.group, self.kind, len(self.image))


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


def _additivity_label(group, v):
    if group.order == v:
        return "strict"
    if group.order == v + 1:
        return "almost-strict"
    return None


def _complement_matrix_embedding(v, blocks, modulus, kind, meta):
    """Point i goes to the row that is 0 at the blocks through i, else 1."""
    image = np.ones((v, len(blocks)), dtype=np.uint8)
    image[blocks, np.arange(len(blocks))[:, None]] = 0
    return _injective(Embedding(AbelianGroup(modulus, v), image, kind, meta))


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
    if not gf.is_prime(p) or (k - lam) % p != 0:
        raise BadPrime("%d is not a prime divisor of k - lambda = %d" % (p, k - lam))
    if v % p == 0:
        raise BadPrime("%d divides v = %d" % (p, v))
    t = gf.mult_order(p, v)
    field = gf.make_field(p, t, poly)
    e = (field.q - 1) // v
    powers = gf.digits(field._exp[::e], t, p)  # row x: g^x for g = r^e
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
    return _injective(Embedding(AbelianGroup(p, t), image, "cyclic-smooth", meta))


def sigma_product_is_zero(ds, p):
    """Check sigma_1 * sigma_-1 = 0 in GF(p^t) without building the field.

    The product is computed symbolically in F_p[x]/(x^v - 1), where x
    stands for g.  Since g is a primitive v-th root of unity, every
    polynomial multiple of 1 + x + ... + x^(v-1) evaluates to zero at g,
    so the product vanishes in GF(p^t) iff its reduction mod x^v - 1 has
    all coefficients congruent mod p.
    """
    return len(np.unique(difference_counts(ds.v, ds.elems) % p)) == 1


def subspace_embedding(m, q, design, poly=None):
    """The power map of a subspace design: class of omega^i goes to the
    coefficient vector of omega^(i(q-1)) in GF(q^m), flattened over Z_p.

    The design's points must be the exponent classes of GF(q^m)*/F_q*
    in order, i.e. point i represents the class of omega^i.
    """
    p, alpha = gf.prime_power(q)
    field = gf.make_field(p, alpha * m, poly)
    v = bracket(m, q)
    if design.v != v:
        raise SizeMismatch("design has %d points, GF(%d^%d) classes: %d" % (design.v, q, m, v))
    image = gf.digits(field._exp[::q - 1], alpha * m, p)  # row i: omega^(i(q-1))
    emb = _injective(Embedding(AbelianGroup(p, alpha * m), image, "subspace-smooth",
                               {"q": q, "m": m, "poly": list(field.prim_poly)}))
    bad = next(_nonzero_block_sums(emb.image, design.blocks, p), None)
    if bad is not None:
        raise NotSubspaceBlocks("block %d is not a subspace in this coordinatization" % bad[0])
    return emb


def ag_identity_embedding(n, q):
    """The identity map of AG(n,q): a point vector over F_q flattened to
    its Z_p coefficient string, in ag_points order.

    The coefficients of a code of GF(q) are its base-p digits, so the
    string of a point is the base-p digits of its lexicographic code."""
    p, alpha = gf.prime_power(q)
    image = gf.digits(np.arange(q ** n), alpha * n, p)
    return _injective(Embedding(AbelianGroup(p, alpha * n), image, "identity", {"n": n, "q": q}))


def verify_embedding(design, emb):
    """Check injectivity and that every block image is zero-sum."""
    if len(emb.image) != design.v:
        raise SizeMismatch("embedding covers %d points, design has %d" % (len(emb.image), design.v))
    failures = [[i, total.tolist()]
                for i, total in _nonzero_block_sums(emb.image, design.blocks, emb.group.m)]
    return Report(
        injective=emb.injective,
        additive=not failures,
        strong="skipped",
        zero_sum_subsets=None,
        blocks=len(design.blocks),
        failures=failures,
        label=_additivity_label(emb.group, design.v),
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
    """Each row of a 2-D array as one byte string, for sorting and lookup."""
    key = np.dtype((np.void, rows.shape[1] * rows.itemsize))
    return np.ascontiguousarray(rows).view(key).ravel()


def _nonzero_block_sums(image, blocks, m):
    """Yield (index, sum) for each block whose image rows do not sum to zero
    mod m, in block order.

    image is a (v, t) array of residues in _residue_dtype(m) and blocks a
    (b, k) array of point indices; the sums are accumulated one block
    column at a time over chunks of about _STRONG_CHUNK elements.
    """
    t = image.shape[1]
    step = max(1, _STRONG_CHUNK // t)
    for lo in range(0, len(blocks), step):
        chunk = blocks[lo:lo + step]
        total = np.zeros((len(chunk), t), image.dtype)
        for column in chunk.T:
            total = _reduce(total + image[column], m)
        for i in np.flatnonzero(total.any(axis=1)).tolist():
            yield lo + i, total[i]


def _zero_sum_subsets(image, m, k):
    """Yield each zero-sum k-subset of the rows of image as a sorted tuple.

    image is a (v, t) array of residues mod m in _residue_dtype(m).  A
    k-subset S + {x} with max(S) < x is zero-sum iff image[x] = -sum(S),
    so only the (k-1)-subsets S are enumerated, with their negated sums
    carried down, and the completing points x are looked up in the image
    rows sorted as byte strings, which keeps every point of a repeated
    row.  The leading points of S are chosen in Python; its last (up to)
    two come from a lexicographic table handled _STRONG_CHUNK elements at
    a time in numpy.
    """
    v, t = image.shape
    if k == 0:
        yield ()
        return
    neg = _reduce(m - image, m)
    keys = _row_keys(image)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    width = min(k - 1, 2)
    if width == 2:
        tail = np.column_stack(np.triu_indices(v, 1))
    elif width == 1:
        tail = np.arange(v).reshape(v, 1)
    else:
        tail = np.zeros((1, 0), dtype=np.intp)
    last = tail[:, -1] if width else np.full(1, -1)
    starts = np.searchsorted(tail[:, 0], np.arange(v), "right") if width else None
    lead = k - 1 - width
    step = max(1, _STRONG_CHUNK // t)

    def complete(prefix, partial, first):
        for c in range(first, len(tail), step):
            rows = tail[c:c + step]
            target = np.broadcast_to(partial, (len(rows), t))
            for j in range(width):
                target = _reduce(target + neg[rows[:, j]], m)
            wanted = _row_keys(target)
            lo = keys.searchsorted(wanted, "left")
            count = keys.searchsorted(wanted, "right") - lo
            hit = np.flatnonzero(count)
            if not hit.size:
                continue
            n = count[hit]
            rep = np.repeat(hit, n)
            xs = order[np.arange(rep.size) + np.repeat(lo[hit] - np.cumsum(n) + n, n)]
            keep = xs > last[c + rep]
            for body, x in zip(rows[rep[keep]].tolist(), xs[keep].tolist()):
                yield prefix + tuple(body) + (x,)

    def descend(start, prefix, partial):
        depth = len(prefix)
        if depth == lead:
            yield from complete(prefix, partial, starts[prefix[-1]] if prefix else 0)
            return
        # leave room for the remaining k - depth - 1 picks
        for i in range(start, v - (k - depth) + 1):
            yield from descend(i + 1, prefix + (i,), _reduce(partial + neg[i], m))

    yield from descend(0, (), np.zeros(t, image.dtype))


def verify_strong(design, emb, cap=DEFAULT_STRONG_CAP):
    """Compare the blocks against the zero-sum k-subsets of the embedded
    point set.

    The work is about C(v,k-1) lookups (see _zero_sum_subsets), and each
    zero-sum set is checked against the blocks as it is found.  If C(v,k)
    exceeds cap the strong check is reported as skipped, not failed.
    """
    base = verify_embedding(design, emb)
    k = design.blocks.shape[1]
    if math.comb(design.v, k) > cap:
        return base
    m = emb.group.m
    if k * m > np.iinfo(np.int64).max:
        raise TooLarge("modulus %d is too large for the strong check" % m)
    blocks = set(map(tuple, design.blocks.tolist()))
    found = 0
    stray = False
    for subset in _zero_sum_subsets(emb.image, m, k):
        found += 1
        stray = stray or subset not in blocks
    base.strong = "pass" if not stray and found == len(blocks) else "fail"
    base.zero_sum_subsets = found
    return base
