"""Incidence structures with validated 2-design parameters, difference
sets and their developments, and the Paley and Singer constructions.

Blocks are stored as sorted point-index tuples, so the structures here
are agnostic of whatever geometry produced them.
"""

import numpy as np

from . import gf
from .errors import (
    BadModulus,
    EmptyDesign,
    NotDifferenceSet,
    NotTwoDesign,
    UnequalBlockSizes,
)


class Design:
    """A finite incidence structure on v points.

    params (k, lam, r, b, symmetric) are attached by validate_2design;
    until then they are None.
    """

    def __init__(self, v, blocks, points=None):
        self.v = v
        self.blocks = [tuple(sorted(b)) for b in blocks]
        self.points = list(points) if points is not None else [str(i) for i in range(v)]
        self.k = None
        self.lam = None
        self.r = None
        self.b = None
        self.symmetric = None
        for blk in self.blocks:
            if any(not (0 <= i < v) for i in blk):
                raise NotTwoDesign("block index out of range")
            if len(set(blk)) != len(blk):
                raise NotTwoDesign("repeated point inside a block")

    @property
    def validated(self):
        return self.k is not None

    def block_sets(self):
        return {frozenset(b) for b in self.blocks}

    def to_dict(self):
        d = {
            "v": self.v,
            "points": self.points,
            "blocks": [list(b) for b in self.blocks],
        }
        if self.validated:
            d["k"] = self.k
            d["lambda"] = self.lam
        return d

    @classmethod
    def from_dict(cls, d):
        """Read a design; a document that claims k (and lambda) is
        validated, and the claims must match what its blocks give."""
        design = cls(d["v"], d["blocks"], d.get("points"))
        if "k" in d:
            design = validate_2design(design)
            claimed = (d["k"], d.get("lambda", design.lam))
            if claimed != (design.k, design.lam):
                raise NotTwoDesign(
                    "document claims (k, lambda) = (%s, %s), blocks give (%d, %d)"
                    % (claimed + (design.k, design.lam))
                )
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


# Pair counts that validate_2design holds at once.
_PAIR_BUDGET = 1 << 18


def _pair_counts(blocks, replication):
    """Yield, over consecutive ranges of points x, the number of blocks
    through both x and y for every point y > x, as one flat array per range.

    The blocks through each point are found by a stable sort of the
    incidences; each range of points is sized so that its counts and the
    blocks gathered for it hold at most about _PAIR_BUDGET entries.
    """
    k = blocks.shape[1]
    v = len(replication)
    by_point = np.argsort(blocks.ravel(), kind="stable") // k
    ends = np.cumsum(replication)
    step = max(1, _PAIR_BUDGET // max(v, int(replication.max()) * k))
    for x0 in range(0, v, step):
        x1 = min(v, x0 + step)
        lo, hi = ends[x0] - replication[x0], ends[x1 - 1]
        owner = np.repeat(np.arange(x1 - x0), replication[x0:x1])
        codes = owner[:, None] * v + blocks[by_point[lo:hi]]
        counts = np.bincount(codes.ravel(), minlength=(x1 - x0) * v).reshape(x1 - x0, v)
        yield counts[np.arange(v) > np.arange(x0, x1)[:, None]]


def validate_2design(design):
    """Exhaustively count pairs and attach (k, lam, r, b) to a design."""
    if design.v < 2 or not design.blocks:
        raise EmptyDesign("need v >= 2 and at least one block")
    sizes = {len(b) for b in design.blocks}
    if len(sizes) != 1:
        raise UnequalBlockSizes("block sizes %s" % sorted(sizes))
    k = sizes.pop()
    blocks = np.array(design.blocks, dtype=np.int64)
    replication = np.bincount(blocks.ravel(), minlength=design.v)
    lam_values = set()
    for counts in _pair_counts(blocks, replication):
        values = np.flatnonzero(np.bincount(counts))  # the distinct counts
        if values.size and values[0] == 0:
            raise NotTwoDesign("some point pair lies on no block")
        lam_values.update(values.tolist())
    if len(lam_values) != 1:
        raise NotTwoDesign("pair counts range over %s" % sorted(lam_values))
    lam = lam_values.pop()
    r_values = set(replication.tolist())
    if len(r_values) != 1:
        raise NotTwoDesign("replication numbers range over %s" % sorted(r_values))
    out = Design(design.v, design.blocks, design.points)
    out.k = k
    out.lam = lam
    out.r = r_values.pop()
    out.b = len(design.blocks)
    out.symmetric = out.b == design.v
    return out


class DifferenceSet:
    """A k-subset of Z_v with certified lambda-fold difference coverage."""

    def __init__(self, v, elems, lam):
        self.v = v
        self.elems = tuple(sorted(elems))
        self.lam = lam

    @property
    def k(self):
        return len(self.elems)

    def to_dict(self):
        return {"v": self.v, "set": list(self.elems)}

    def __repr__(self):
        return "DifferenceSet(%d, %d, %d)" % (self.v, self.k, self.lam)


def validate_difference_set(v, elems):
    """Certify that elems is a (v, k, lam) difference set in Z_v."""
    D = sorted(x % v for x in elems)
    if len(set(D)) != len(D):
        raise NotDifferenceSet("repeated elements")
    k = len(D)
    if not 2 <= k < v:
        raise NotDifferenceSet("need 2 <= |D| < v")
    if k * (k - 1) % (v - 1) != 0:
        raise NotDifferenceSet("k(k-1) = %d not divisible by v-1 = %d" % (k * (k - 1), v - 1))
    lam = k * (k - 1) // (v - 1)
    arr = np.array(D, dtype=np.int64)
    counts = np.zeros(v, dtype=np.int64)
    for d in D:
        counts += np.bincount((d - arr) % v, minlength=v)
    counts[0] = lam  # drop the k self-differences
    deviant = np.nonzero(counts != lam)[0]
    if deviant.size:
        i = int(deviant[0])
        raise NotDifferenceSet(
            "residue %d covered %d times, expected %d" % (i, int(counts[i]), lam)
        )
    return DifferenceSet(v, D, lam)


def develop(ds):
    """The symmetric design (Z_v, {D+i : 0 <= i < v}) of a certified set."""
    blocks = [
        tuple(sorted((d + i) % ds.v for d in ds.elems)) for i in range(ds.v)
    ]
    return validate_2design(Design(ds.v, blocks))


def paley_diffset(v):
    """Nonzero quadratic residues mod a prime v = 3 (mod 4)."""
    if not gf.is_prime(v) or v % 4 != 3:
        raise BadModulus("%d is not a prime congruent to 3 mod 4" % v)
    squares = sorted({(i * i) % v for i in range(1, v)})
    ds = validate_difference_set(v, squares)
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
    p, alpha = gf.prime_power(q)
    field = gf.make_field(p, alpha * (n + 1), poly)
    big = field.q - 1
    v = (q ** (n + 1) - 1) // (q - 1)
    elems = []
    for i in range(v):
        tr = 0
        for j in range(n + 1):
            tr = field.add_code(tr, field._exp[(i * q ** j) % big])
        if tr == 0:
            elems.append(i)
    ds = validate_difference_set(v, elems)
    expected = ((q ** n - 1) // (q - 1), (q ** (n - 1) - 1) // (q - 1))
    if (ds.k, ds.lam) != expected:
        raise NotDifferenceSet(
            "Singer set of PG(%d,%d) has (k, lambda) = (%d, %d), expected (%d, %d)"
            % ((n, q, ds.k, ds.lam) + expected)
        )
    return ds
