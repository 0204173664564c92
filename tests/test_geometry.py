import itertools

import pytest

from addesigns import geometry
from addesigns.errors import DimensionOutOfRange, InvariantViolated


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
    assert len(set(pts)) == count
    for v in pts:
        assert next(c for c in v if c) == 1


def test_enumerate_subspaces_counts_and_points():
    lines = geometry.enumerate_subspaces(2, 2, 1)
    assert len(lines) == 7
    for line in lines:
        assert len(line.point_indices()) == geometry.bracket(2, 2)
    assert len(geometry.enumerate_subspaces(3, 3, 1)) == 130
    hyper = geometry.enumerate_subspaces(3, 2, 2)
    assert len(hyper) == geometry.bracket(4, 2)


def test_subspace_point_count_matches_bracket():
    for s in geometry.enumerate_subspaces(3, 3, 2):
        assert len(s.point_indices()) == geometry.bracket(3, 3)


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
    hyperplanes = [set(s.point_indices()) for s in geometry.enumerate_subspaces(n, q, n - 1)]
    for s in geometry.enumerate_subspaces(n, q, d)[:10]:
        pts = set(s.point_indices())
        pencil = sum(1 for h in hyperplanes if pts <= h)
        assert pencil == geometry.bracket(n - d, q)


def test_ag_design_ag23():
    d = geometry.ag_design(2, 3, 1)
    assert (d.v, d.k, d.lam, d.b) == (9, 3, 1, 12)


def test_ag_design_ag22():
    d = geometry.ag_design(2, 2, 1)
    assert (d.v, d.k, d.lam, d.b) == (4, 2, 1, 6)
    assert sorted(d.blocks) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


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
    blocks = d.block_sets()
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
    with pytest.raises(InvariantViolated, match="7 blocks, expected 8"):
        geometry.pg_design_cyclic(2, 2, 1)


def test_cyclic_group_order_mismatch_is_typed(monkeypatch):
    monkeypatch.setattr(geometry, "bracket", lambda n, q: 8)
    with pytest.raises(InvariantViolated, match="is not 8"):
        geometry.pg_design_cyclic(2, 2, 1)
