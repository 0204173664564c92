"""Embeddings of designs into abelian groups Z_m^t and exact verifiers
for additivity (all blocks zero-sum) and strong additivity (the zero-sum
k-subsets of the embedded point set are exactly the blocks).
"""

import math

import numpy as np

from . import gf
from .designs import validate_2design
from .errors import (
    BadPrime,
    DegenerateOrder,
    DimensionOutOfRange,
    GroupMismatch,
    NoZeroSigma,
    NotSubspaceBlocks,
    NotSymmetric,
    SizeMismatch,
    TooLarge,
)
from .geometry import ag_points, bracket, enumerate_subspaces, pg_points

DEFAULT_STRONG_CAP = 10 ** 7
_STRONG_CHUNK = 10 ** 5  # elements (rows x t) one numpy call of verify_strong touches


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

    @property
    def zero(self):
        return (0,) * self.t

    def reduce(self, vec):
        if len(vec) != self.t:
            raise GroupMismatch("expected rank-%d vector" % self.t)
        return tuple(c % self.m for c in vec)

    def add(self, a, b):
        return tuple((x + y) % self.m for x, y in zip(a, b))

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and (self.m, self.t) == (other.m, other.t)

    def __repr__(self):
        return "Z_%d^%d" % (self.m, self.t)


def zero_sum(group, elems):
    """True iff the componentwise sum of elems is the identity."""
    total = [0] * group.t
    for e in elems:
        if len(e) != group.t:
            raise GroupMismatch("element of wrong rank")
        for j, c in enumerate(e):
            total[j] += c
    return all(c % group.m == 0 for c in total)


class Embedding:
    """An injective point -> group-element assignment for a design."""

    def __init__(self, group, image, kind, meta=None):
        self.group = group
        self.image = [group.reduce(vec) for vec in image]
        self.kind = kind
        self.meta = dict(meta or {})

    @property
    def injective(self):
        return len(set(self.image)) == len(self.image)

    def to_dict(self):
        return {
            "group": {"m": self.group.m, "t": self.group.t},
            "kind": self.kind,
            "image": [list(vec) for vec in self.image],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d):
        group = AbelianGroup(d["group"]["m"], d["group"]["t"])
        return cls(group, [tuple(v) for v in d["image"]], d["kind"], d.get("meta"))

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

    @property
    def passed(self):
        ok = self.injective and self.additive
        if self.strong == "fail":
            ok = False
        return ok

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
    group = AbelianGroup(modulus, v)
    membership = [set(b) for b in blocks]
    image = [
        tuple(0 if i in blk else 1 for blk in membership) for i in range(v)
    ]
    return _injective(Embedding(group, image, kind, meta))


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
    v = bracket(n + 1, q)
    pts = pg_points(n, q)
    if len(pts) != v:
        raise SizeMismatch("PG(%d,%d) has %d points, expected %d" % (n, q, len(pts), v))
    hyperplanes = [s.point_indices() for s in enumerate_subspaces(n, q, n - 1)]
    return _complement_matrix_embedding(
        v, hyperplanes, q ** d, "pg-strong", {"n": n, "q": q, "d": d},
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
    g = field.exp(e)
    sigma = {}
    for sign in (1, -1):
        acc = 0
        for d in ds.elems:
            acc = field.add_code(acc, field._exp[(sign * e * d) % (field.q - 1)])
        sigma[sign] = field.from_code(acc)
    if sigma[1].code == 0:
        sign = 1
    elif sigma[-1].code == 0:
        sign = -1
    else:
        raise NoZeroSigma("neither sigma_1 nor sigma_-1 vanished")  # impossible
    group = AbelianGroup(p, t)
    image = [field.exp((sign * e * x) % (field.q - 1)).coeffs for x in range(v)]
    meta = {
        "p": p,
        "t": t,
        "poly": list(field.prim_poly),
        "g_exponent": e,
        "g": list(g.coeffs),
        "sign": sign,
        "sigma_1": list(sigma[1].coeffs),
        "sigma_-1": list(sigma[-1].coeffs),
    }
    return _injective(Embedding(group, image, "cyclic-smooth", meta))


def sigma_product_is_zero(ds, p):
    """Check sigma_1 * sigma_-1 = 0 in GF(p^t) without building the field.

    The product is computed symbolically in F_p[x]/(x^v - 1), where x
    stands for g.  Since g is a primitive v-th root of unity, every
    polynomial multiple of 1 + x + ... + x^(v-1) evaluates to zero at g,
    so the product vanishes in GF(p^t) iff its reduction mod x^v - 1 has
    all coefficients congruent mod p.
    """
    v = ds.v
    coeffs = [0] * v
    for d in ds.elems:
        for d2 in ds.elems:
            coeffs[(d - d2) % v] += 1
    residues = {c % p for c in coeffs}
    return len(residues) == 1


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
    big = field.q - 1
    group = AbelianGroup(p, alpha * m)
    image = [field.coeffs_of_code(field._exp[(i * (q - 1)) % big]) for i in range(v)]
    emb = _injective(Embedding(group, image, "subspace-smooth",
                               {"q": q, "m": m, "poly": list(field.prim_poly)}))
    for idx, blk in enumerate(design.blocks):
        if not zero_sum(group, [image[i] for i in blk]):
            raise NotSubspaceBlocks(
                "block %d is not a subspace in this coordinatization" % idx
            )
    return emb


def ag_identity_embedding(n, q):
    """The identity map of AG(n,q): a point vector over F_q flattened to
    its Z_p coefficient string, in ag_points order."""
    p, alpha = gf.prime_power(q)
    field = gf.make_field(p, alpha)
    group = AbelianGroup(p, alpha * n)
    image = []
    for vec in ag_points(n, q):
        flat = []
        for code in vec:
            flat.extend(field.coeffs_of_code(code))
        image.append(tuple(flat))
    return _injective(Embedding(group, image, "identity", {"n": n, "q": q}))


def verify_embedding(design, emb):
    """Check injectivity and that every block image is zero-sum."""
    if len(emb.image) != design.v:
        raise SizeMismatch("embedding covers %d points, design has %d" % (len(emb.image), design.v))
    group = emb.group
    failures = []
    for idx, blk in enumerate(design.blocks):
        total = [0] * group.t
        for i in blk:
            for j, c in enumerate(emb.image[i]):
                total[j] += c
        sums = tuple(c % group.m for c in total)
        if any(sums):
            failures.append([idx, list(sums)])
    injective = emb.injective
    return Report(
        injective=injective,
        additive=not failures,
        strong="skipped",
        zero_sum_subsets=None,
        blocks=len(design.blocks),
        failures=failures,
        label=_additivity_label(group, design.v),
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
    row = np.dtype((np.void, t * image.itemsize))
    keys = np.ascontiguousarray(image).view(row).ravel()
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
            wanted = np.ascontiguousarray(target).view(row).ravel()
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
    k = design.k if design.validated else len(design.blocks[0])
    v = design.v
    if math.comb(v, k) > cap:
        return base
    m, t = emb.group.m, emb.group.t
    if k * m > np.iinfo(np.int64).max:
        raise TooLarge("modulus %d is too large for the strong check" % m)
    image = np.array(emb.image, dtype=_residue_dtype(m)).reshape(v, t)
    blocks = set(design.blocks)
    found = 0
    stray = False
    for subset in _zero_sum_subsets(image, m, k):
        found += 1
        stray = stray or subset not in blocks
    strong = "pass" if not stray and found == len(blocks) else "fail"
    return Report(
        injective=base.injective,
        additive=base.additive,
        strong=strong,
        zero_sum_subsets=found,
        blocks=base.blocks,
        failures=base.failures,
        label=base.label,
    )
