"""Points and subspaces of PG(n,q) and AG(n,q), q-analog counting, and
the classical designs PG_d(n,q) and AG_d(n,q).

Subspaces are canonicalized as reduced-row-echelon bases and enumerated
in lexicographic order, so block indices are stable across runs.
Coordinates are field-element codes of the underlying gf.FieldSpec.
"""

import itertools
from functools import lru_cache

from . import gf
from .designs import Design, validate_2design
from .errors import DimensionOutOfRange, InvariantViolated


def bracket(n, q):
    """(q^n - 1)/(q - 1): the number of points of PG(n-1,q)."""
    if n < 0:
        raise DimensionOutOfRange("negative dimension")
    return (q ** n - 1) // (q - 1)


def gaussian(n, k, q):
    """Gaussian binomial: the number of k-dim linear subspaces of F_q^n."""
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
    p, alpha = gf.prime_power(q)
    return gf.make_field(p, alpha)


@lru_cache(maxsize=None)
def _pg_space(n, q):
    """Canonical point list of PG(n,q) and its index lookup."""
    field = _field(q)
    pts = []
    for vec in itertools.product(range(q), repeat=n + 1):
        nz = next((c for c in vec if c), None)
        if nz == 1:
            pts.append(vec)
    index = {v: i for i, v in enumerate(pts)}
    return field, tuple(pts), index


def normalize(field, vec):
    """Scale so the first nonzero coordinate is 1; vec must be nonzero."""
    lead = next(c for c in vec if c)
    if lead == 1:
        return tuple(vec)
    inv = field.inv_code(lead)
    return tuple(field.mul_code(inv, c) for c in vec)


def pg_points(n, q):
    """All normalized points of PG(n,q) in lexicographic order."""
    if n < 1:
        raise DimensionOutOfRange("need n >= 1")
    return list(_pg_space(n, q)[1])


class Subspace:
    """A projective subspace held as an RREF basis matrix."""

    def __init__(self, field, basis):
        self.field = field
        self.basis = tuple(tuple(row) for row in basis)
        self.dim = len(self.basis) - 1

    def vectors(self):
        """All nonzero vectors of the underlying linear span."""
        field = self.field
        q = field.q
        cols = len(self.basis[0])
        out = []
        for coeffs in itertools.product(range(q), repeat=len(self.basis)):
            if not any(coeffs):
                continue
            vec = [0] * cols
            for c, row in zip(coeffs, self.basis):
                if c:
                    for j, r in enumerate(row):
                        if r:
                            vec[j] = field.add_code(vec[j], field.mul_code(c, r))
            out.append(tuple(vec))
        return out

    def point_indices(self):
        """Sorted indices of the subspace's points in pg_points order."""
        n = len(self.basis[0]) - 1
        field, _, index = _pg_space(n, self.field.q)
        pts = {index[normalize(field, vec)] for vec in self.vectors()}
        return tuple(sorted(pts))

    def __eq__(self, other):
        return isinstance(other, Subspace) and other.basis == self.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return "Subspace(dim=%d, basis=%s)" % (self.dim, self.basis)


def _rref_matrices(rows, cols, q):
    """All RREF matrices of full rank `rows` over F_q, lexicographic."""
    field = _field(q)
    for pivots in itertools.combinations(range(cols), rows):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(rows)
            for j in range(pivots[i] + 1, cols)
            if j not in pivot_set
        ]
        for values in itertools.product(range(q), repeat=len(free)):
            mat = [[0] * cols for _ in range(rows)]
            for i, p in enumerate(pivots):
                mat[i][p] = 1
            for (i, j), val in zip(free, values):
                mat[i][j] = val
            yield field, tuple(tuple(row) for row in mat)


def enumerate_subspaces(n, q, d):
    """All canonical d-subspaces of PG(n,q), in a deterministic order."""
    if not 0 <= d <= n:
        raise DimensionOutOfRange("need 0 <= d <= n")
    out = [Subspace(field, mat) for field, mat in _rref_matrices(d + 1, n + 1, q)]
    out.sort(key=lambda s: s.basis)
    if len(out) != gaussian(n + 1, d + 1, q):
        raise InvariantViolated(
            "PG(%d,%d) gave %d subspaces of dimension %d, expected %d"
            % (n, q, len(out), d, gaussian(n + 1, d + 1, q))
        )
    return out


def pg_design(n, q, d):
    """The 2-design of points and d-subspaces of PG(n,q)."""
    if not 1 <= d <= n - 1:
        raise DimensionOutOfRange("need 1 <= d <= n-1")
    _, pts, _ = _pg_space(n, q)
    labels = [":".join(str(c) for c in v) for v in pts]
    blocks = [s.point_indices() for s in enumerate_subspaces(n, q, d)]
    design = validate_2design(Design(len(pts), blocks, labels))
    if design.lam != gaussian(n - 1, d - 1, q):
        raise InvariantViolated(
            "PG_%d(%d,%d) has lambda %d, expected %d"
            % (d, n, q, design.lam, gaussian(n - 1, d - 1, q))
        )
    return design


def ag_points(n, q):
    """All q^n vectors of F_q^n in lexicographic code order."""
    return list(itertools.product(range(q), repeat=n))


def ag_design(n, q, d):
    """The 2-design on F_q^n whose blocks are all cosets of all d-dim
    linear subspaces."""
    if not 1 <= d <= n - 1:
        raise DimensionOutOfRange("need 1 <= d <= n-1")
    field = _field(q)
    pts = ag_points(n, q)
    index = {v: i for i, v in enumerate(pts)}
    labels = [":".join(str(c) for c in v) for v in pts]
    blocks = []
    for field, mat in _rref_matrices(d, n, q):
        sub = Subspace(field, mat)
        span = [tuple([0] * n)] + sub.vectors()
        seen = set()
        for t in pts:
            coset = frozenset(
                tuple(field.add_code(a, b) for a, b in zip(vec, t)) for vec in span
            )
            seen.add(coset)
        for coset in sorted(sorted(index[v] for v in c) for c in seen):
            blocks.append(tuple(coset))
    return validate_2design(Design(len(pts), blocks, labels))


def pg_design_cyclic(n, q, d, poly=None):
    """PG_d(n,q) with points indexed by the exponent classes of a
    primitive element of GF(q^(n+1)) modulo F_q*.

    Point i is the class of omega^i, 0 <= i < [n+1]_q.  Blocks are the
    d-subspaces written as class sets, found by closing point sets under
    F_q-linear combinations inside the big field.
    """
    if not 1 <= d <= n - 1:
        raise DimensionOutOfRange("need 1 <= d <= n-1")
    p, alpha = gf.prime_power(q)
    field = gf.make_field(p, alpha * (n + 1), poly)
    big = field.q - 1
    v = bracket(n + 1, q)
    if big != v * (q - 1):
        raise InvariantViolated("|GF(%d)*| = %d is not %d * %d" % (field.q, big, v, q - 1))
    scalars = [0] + [field._exp[(j * v) % big] for j in range(q - 1)]  # F_q inside

    def close(class_basis):
        reps = [field._exp[i] for i in class_basis]
        classes = set()
        for coeffs in itertools.product(scalars, repeat=len(reps)):
            acc = 0
            for c, r in zip(coeffs, reps):
                if c:
                    acc = field.add_code(acc, field.mul_code(c, r))
            if acc:
                classes.add(field._log[acc] % v)
        return frozenset(classes)

    layer = {frozenset([i]): (i,) for i in range(v)}
    for _ in range(d):
        nxt = {}
        for pts, basis in layer.items():
            for j in range(v):
                if j in pts:
                    continue
                grown = close(basis + (j,))
                if grown not in nxt:
                    nxt[grown] = basis + (j,)
        layer = nxt
    blocks = sorted(tuple(sorted(pts)) for pts in layer)
    design = validate_2design(Design(v, blocks))
    if design.b != gaussian(n + 1, d + 1, q):
        raise InvariantViolated(
            "cyclic PG_%d(%d,%d) has %d blocks, expected %d"
            % (d, n, q, design.b, gaussian(n + 1, d + 1, q))
        )
    return design
