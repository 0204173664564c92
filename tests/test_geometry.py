import itertools

import pytest

from addesigns import chunks, geometry, gf
from addesigns.errors import DimensionOutOfRange, InvariantViolated, TooLarge


def rows(design):
    """The blocks of a design as a list of tuples, row by row."""
    return [tuple(b) for b in design.blocks.tolist()]


def test_bracket_values():
    assert geometry.bracket(3, 3) == 13
    assert geometry.bracket(4, 3) == 40
    assert geometry.bracket(1, 5) == 1
    assert geometry.bracket(0, 7) == 0


def brute_subspace_count(n, k, q):
    """Count k-dim subspaces of F_q^n by enumerating spans (prime q only)."""
    vectors = list(itertools.product(range(q), repeat=n))

    def span(basis):
        out = set()
        for coeffs in itertools.product(range(q), repeat=len(basis)):
            vec = tuple(
                sum(c * b[j] for c, b in zip(coeffs, basis)) % q for j in range(n)
            )
            out.add(vec)
        return frozenset(out)

    spaces = set()
    for basis in itertools.combinations([v for v in vectors if any(v)], k):
        s = span(basis)
        if len(s) == q ** k:
            spaces.add(s)
    return len(spaces)


def test_gaussian_against_brute_force():
    assert geometry.gaussian(2, 1, 3) == brute_subspace_count(2, 1, 3) == 4
    assert geometry.gaussian(4, 2, 2) == brute_subspace_count(4, 2, 2) == 35
    assert geometry.gaussian(3, 2, 3) == brute_subspace_count(3, 2, 3)


def test_gaussian_edges():
    assert geometry.gaussian(5, 0, 3) == 1
    assert geometry.gaussian(4, 4, 2) == 1
    assert geometry.gaussian(4, 2, 3) == 130


@pytest.mark.parametrize("n,q,count", [(2, 2, 7), (2, 3, 13), (3, 3, 40), (2, 4, 21)])
def test_pg_point_counts(n, q, count):
    pts = geometry.pg_points(n, q)
    assert len(pts) == count == geometry.bracket(n + 1, q)
    # normalized and unique
    assert len(set(map(tuple, pts.tolist()))) == count
    for v in pts:
        assert next(c for c in v if c) == 1


def test_enumerate_subspaces_counts_and_points():
    lines = geometry.enumerate_subspaces(2, 2, 1)
    assert len(lines) == 7
    for line in geometry.subspace_blocks(2, 2, 1):
        assert len(line) == geometry.bracket(2, 2)
    assert len(geometry.enumerate_subspaces(3, 3, 1)) == 130
    hyper = geometry.enumerate_subspaces(3, 2, 2)
    assert len(hyper) == geometry.bracket(4, 2)


def test_subspace_point_count_matches_bracket():
    for s in geometry.subspace_blocks(3, 3, 2):
        assert len(s) == geometry.bracket(3, 3)


def test_pg_design_fano():
    d = geometry.pg_design(2, 2, 1)
    assert (d.v, d.k, d.lam, d.b) == (7, 3, 1, 7)
    assert d.symmetric


def test_pg_design_pg133():
    d = geometry.pg_design(3, 3, 1)
    assert (d.v, d.k, d.lam, d.b) == (40, 4, 1, 130)


def test_pg_design_pg23_symmetric():
    d = geometry.pg_design(2, 3, 1)
    assert (d.v, d.k, d.lam, d.b) == (13, 4, 1, 13)
    assert d.symmetric


def test_pg_design_rejects_bad_dim():
    with pytest.raises(DimensionOutOfRange):
        geometry.pg_design(3, 2, 3)


@pytest.mark.parametrize(
    "n,q,d",
    [(2, 2, 1), (3, 2, 1), (3, 2, 2), (2, 3, 1), (3, 3, 1), (3, 3, 2), (2, 4, 1)],
)
def test_pg_design_pair_coverage_exhaustive(n, q, d):
    design = geometry.pg_design(n, q, d)
    lam = geometry.gaussian(n - 1, d - 1, q)
    counts = {}
    for blk in design.blocks:
        for a, b in itertools.combinations(blk, 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    assert set(counts.values()) == {lam}
    assert len(counts) == design.v * (design.v - 1) // 2


@pytest.mark.parametrize("n,q,d", [(3, 2, 1), (3, 3, 1), (4, 2, 2)])
def test_pencil_size_duality(n, q, d):
    # hyperplanes containing a fixed d-subspace: [n-d]_q of them
    hyperplanes = [set(s) for s in geometry.subspace_blocks(n, q, n - 1).tolist()]
    for s in geometry.subspace_blocks(n, q, d)[:10].tolist():
        pts = set(s)
        pencil = sum(1 for h in hyperplanes if pts <= h)
        assert pencil == geometry.bracket(n - d, q)


def test_ag_design_ag23():
    d = geometry.ag_design(2, 3, 1)
    assert (d.v, d.k, d.lam, d.b) == (9, 3, 1, 12)


def test_ag_design_ag22():
    d = geometry.ag_design(2, 2, 1)
    assert (d.v, d.k, d.lam, d.b) == (4, 2, 1, 6)
    assert sorted(rows(d)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_ag_design_ag32():
    # 7 planes through the origin, 2 cosets each; every pair of points
    # lies on [2]_2 = 3 planes
    d = geometry.ag_design(3, 2, 2)
    assert (d.v, d.k, d.lam, d.b) == (8, 4, 3, 14)


def test_ag_blocks_resolve_into_parallel_classes():
    n, q, d = 3, 3, 1
    design = geometry.ag_design(n, q, d)
    per_class = q ** (n - d)
    assert len(design.blocks) % per_class == 0
    # consecutive runs of q^{n-d} blocks are the cosets of one subspace
    for i in range(0, len(design.blocks), per_class):
        chunk = design.blocks[i:i + per_class]
        covered = sorted(x for blk in chunk for x in blk)
        assert covered == list(range(design.v))


def test_ag_design_nonprime_q():
    d = geometry.ag_design(2, 4, 1)
    assert (d.v, d.k, d.lam) == (16, 4, 1)
    assert d.b == geometry.gaussian(2, 1, 4) * 4


def test_pg_design_cyclic_matches_vector_parameters():
    c = geometry.pg_design_cyclic(2, 3, 1)
    v = geometry.pg_design(2, 3, 1)
    assert (c.v, c.k, c.lam, c.b) == (v.v, v.k, v.lam, v.b)


def test_pg_design_cyclic_pg133_contains_paper_base_blocks():
    d = geometry.pg_design_cyclic(3, 3, 1, poly=[1, 0, 0, 1, 2])
    blocks = {frozenset(b) for b in rows(d)}
    for base in [{0, 1, 4, 13}, {0, 2, 17, 24}, {0, 5, 26, 34}, {0, 10, 20, 30}]:
        assert frozenset(base) in blocks
    assert d.b == 130


# -- construction identities raise InvariantViolated, not assert ----------


def _gaussian_off_by_one_at(target):
    real = geometry.gaussian

    def patched(n, k, q):
        return real(n, k, q) + ((n, k, q) == target)

    return patched


def test_subspace_count_mismatch_is_typed(monkeypatch):
    monkeypatch.setattr(geometry, "gaussian", _gaussian_off_by_one_at((3, 2, 2)))
    with pytest.raises(InvariantViolated, match="expected 8"):
        geometry.enumerate_subspaces(2, 2, 1)


def test_pg_lambda_mismatch_is_typed(monkeypatch):
    monkeypatch.setattr(geometry, "gaussian", _gaussian_off_by_one_at((1, 0, 2)))
    with pytest.raises(InvariantViolated, match="lambda 1, expected 2"):
        geometry.pg_design(2, 2, 1)


def test_cyclic_block_count_mismatch_is_typed(monkeypatch):
    monkeypatch.setattr(geometry, "gaussian", _gaussian_off_by_one_at((3, 2, 2)))
    # the cyclic blocks are counted by the shared enumerator
    with pytest.raises(InvariantViolated, match="gave 7 subspaces of dimension 1, expected 8"):
        geometry.pg_design_cyclic(2, 2, 1)


def test_cyclic_group_order_mismatch_is_typed(monkeypatch):
    monkeypatch.setattr(geometry, "bracket", lambda n, q: 8)
    with pytest.raises(InvariantViolated, match="is not 8"):
        geometry.pg_design_cyclic(2, 2, 1)


# -- references: the three constructions the shared enumerator replaced ---
#
# Subspace.vectors/point_indices over the sorted RREF bases (PG), the
# layer-growing closure inside GF(q^(n+1)) (cyclic PG), and translating
# every subspace by every point and deduplicating the cosets (AG).


class _ListField:
    """The scalar arithmetic of a field over list copies of its exp and
    log tables, taken once, for the oracles' hot loops.  Addition is XOR
    for p = 2 and otherwise goes through a Zech logarithm table, as the
    field computed it before it added digits: independent of the field's
    own addition."""

    def __init__(self, field):
        self.p, self.q = field.p, field.q
        self._exp, self._log = field._exp.tolist(), field._log.tolist()
        # 1 + r^j = r^zech[j], or zech[j] = -1 where 1 + r^j = 0; adding 1
        # only changes the constant digit of r^j
        one_plus = [c + 1 if c % self.p != self.p - 1 else c - (self.p - 1) for c in self._exp]
        self._zech = [self._log[c] if c else -1 for c in one_plus]

    def add_code(self, a, b):
        if self.p == 2:
            return a ^ b
        if a == 0 or b == 0:
            return a or b
        # a + b = a * (1 + b/a) = r^(log a + Z(log b - log a))
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % (self.q - 1)]
        return 0 if z < 0 else self._exp[(la + z) % (self.q - 1)]

    def mul_code(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv_code(self, a):
        return self._exp[-self._log[a] % (self.q - 1)]


def _ref_field(q):
    return _ListField(gf.make_field(*gf.prime_power(q)))


def _ref_rref_matrices(rows, cols, q):
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
            yield tuple(tuple(row) for row in mat)


def _ref_vectors(field, basis):
    """All nonzero vectors of the span of basis."""
    out = []
    for coeffs in itertools.product(range(field.q), repeat=len(basis)):
        if not any(coeffs):
            continue
        vec = [0] * len(basis[0])
        for c, row in zip(coeffs, basis):
            if c:
                for j, r in enumerate(row):
                    if r:
                        vec[j] = field.add_code(vec[j], field.mul_code(c, r))
        out.append(tuple(vec))
    return out


def _ref_normalize(field, vec):
    lead = next(c for c in vec if c)
    if lead == 1:
        return tuple(vec)
    inv = field.inv_code(lead)
    return tuple(field.mul_code(inv, c) for c in vec)


def reference_pg_blocks(n, q, d):
    field = _ref_field(q)
    pts = [v for v in itertools.product(range(q), repeat=n + 1)
           if next((c for c in v if c), None) == 1]
    index = {v: i for i, v in enumerate(pts)}
    blocks = []
    for basis in sorted(_ref_rref_matrices(d + 1, n + 1, q)):
        vecs = _ref_vectors(field, basis)
        blocks.append(tuple(sorted({index[_ref_normalize(field, v)] for v in vecs})))
    return blocks


def reference_cyclic_blocks(n, q, d, poly=None):
    p, alpha = gf.prime_power(q)
    field = _ListField(gf.make_field(p, alpha * (n + 1), poly))
    big = field.q - 1
    v = geometry.bracket(n + 1, q)
    scalars = [0] + [field._exp[(j * v) % big] for j in range(q - 1)]

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
    return sorted(tuple(sorted(pts)) for pts in layer)


def reference_ag_blocks(n, q, d):
    field = _ref_field(q)
    pts = list(itertools.product(range(q), repeat=n))
    index = {v: i for i, v in enumerate(pts)}
    blocks = []
    for mat in _ref_rref_matrices(d, n, q):
        span = [tuple([0] * n)] + _ref_vectors(field, mat)
        seen = set()
        for t in pts:
            seen.add(frozenset(
                tuple(field.add_code(a, b) for a, b in zip(vec, t)) for vec in span
            ))
        for coset in sorted(sorted(index[v] for v in c) for c in seen):
            blocks.append(tuple(coset))
    return blocks


QS = (2, 3, 4, 5, 7, 8, 9)
# the references take seconds where b * q^(d+1) nears 10^6
PG_GRID = [(n, q, d) for q in QS for n in (2, 3, 4) for d in range(1, n)
           if geometry.gaussian(n + 1, d + 1, q) <= 3000
           and geometry.gaussian(n + 1, d + 1, q) * q ** (d + 1) <= 1.5 * 10 ** 5]
# the closure reference costs about v^(d+1) q^(d+1) field operations
CYCLIC_GRID = [(n, q, d) for n, q, d in PG_GRID
               if (geometry.bracket(n + 1, q) * q) ** (d + 1) <= 3 * 10 ** 6]
AG_GRID = [(n, q, d) for q in QS for n in (2, 3, 4) for d in range(1, n)
           if geometry.gaussian(n, d, q) * q ** n <= 10 ** 4]


def test_oracle_grids_cover_every_field():
    for grid in (PG_GRID, CYCLIC_GRID, AG_GRID):
        assert {q for _, q, _ in grid} == set(QS)
    assert {(n, d) for n, _, d in PG_GRID} == {(n, d) for n in (2, 3, 4) for d in range(1, n)}


@pytest.mark.parametrize("n,q,d", PG_GRID)
def test_pg_design_matches_reference(n, q, d):
    assert rows(geometry.pg_design(n, q, d)) == reference_pg_blocks(n, q, d)


@pytest.mark.parametrize("n,q,d", CYCLIC_GRID)
def test_pg_design_cyclic_matches_reference(n, q, d):
    assert rows(geometry.pg_design_cyclic(n, q, d)) == reference_cyclic_blocks(n, q, d)


def test_pg_design_cyclic_with_given_poly_matches_reference():
    poly = [1, 0, 0, 1, 2]
    got = rows(geometry.pg_design_cyclic(3, 3, 1, poly=poly))
    assert got == reference_cyclic_blocks(3, 3, 1, poly=poly)


@pytest.mark.parametrize("n,q,d", AG_GRID)
def test_ag_design_matches_reference(n, q, d):
    assert rows(geometry.ag_design(n, q, d)) == reference_ag_blocks(n, q, d)


# a basis of a line of PG(3,3) takes 60 bytes, so 300 covers five
@pytest.mark.parametrize("budget", [1, 7, 300])
def test_small_span_budget_gives_the_same_blocks(monkeypatch, budget):
    monkeypatch.setattr(chunks, "BUDGET", budget)
    assert rows(geometry.pg_design(3, 3, 1)) == reference_pg_blocks(3, 3, 1)
    assert rows(geometry.pg_design_cyclic(2, 4, 1)) == reference_cyclic_blocks(2, 4, 1)
    assert rows(geometry.ag_design(3, 3, 1)) == reference_ag_blocks(3, 3, 1)


def test_subspace_designs_beyond_memory_are_refused(monkeypatch):
    # 4096 bytes of memory: the 7 Fano lines take 30 bytes each, the 130
    # lines of PG(3,3) 40, the 12 lines of AG(2,3) 30 and the 1080 of
    # AG(4,3) 34
    monkeypatch.setattr(chunks.os, "sysconf", lambda name: 64)
    assert rows(geometry.pg_design(2, 2, 1)) == reference_pg_blocks(2, 2, 1)
    assert len(geometry.ag_design(2, 3, 1).blocks) == 12
    with pytest.raises(TooLarge, match="PG_1\\(3,3\\) has 130 blocks, 40 bytes each"):
        geometry.pg_design(3, 3, 1)
    with pytest.raises(TooLarge, match="AG_1\\(4,3\\) has 1080 blocks, 34 bytes each"):
        geometry.ag_design(4, 3, 1)
