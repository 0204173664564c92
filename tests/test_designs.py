import itertools

import numpy as np
import pytest

from addesigns import designs, geometry, gf
from addesigns.designs import (
    Design,
    develop,
    paley_diffset,
    singer_diffset,
    validate_2design,
    validate_difference_set,
)
from addesigns.errors import (
    BadModulus,
    EmptyDesign,
    NotDifferenceSet,
    NotTwoDesign,
    UnequalBlockSizes,
)

FANO_BLOCKS = [
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
]


def test_validate_fano():
    d = validate_2design(Design(7, FANO_BLOCKS))
    assert (d.v, d.k, d.lam, d.r, d.b) == (7, 3, 1, 3, 7)
    assert d.symmetric


def test_validate_rejects_non_2design():
    with pytest.raises(NotTwoDesign):
        validate_2design(Design(4, [(0, 1, 2), (0, 1, 3)]))


def test_validate_rejects_unequal_sizes():
    with pytest.raises(UnequalBlockSizes):
        validate_2design(Design(4, [(0, 1), (0, 1, 2)]))


def test_validate_rejects_empty():
    with pytest.raises(EmptyDesign):
        validate_2design(Design(4, []))


def test_difference_set_singer_13():
    ds = validate_difference_set(13, [0, 1, 3, 9])
    assert ds.lam == 1 and ds.k == 4


def test_difference_set_quadratic_residues_7():
    # brute-force census: differences of {1,2,4} cover 1..6 once each
    census = {}
    for a, b in itertools.permutations([1, 2, 4], 2):
        census[(a - b) % 7] = census.get((a - b) % 7, 0) + 1
    assert census == {i: 1 for i in range(1, 7)}
    ds = validate_difference_set(7, [1, 2, 4])
    assert ds.lam == 1


def test_difference_set_rejects_nonuniform():
    with pytest.raises(NotDifferenceSet) as exc:
        validate_difference_set(7, [0, 1, 2])
    assert "residue 1" in str(exc.value)


def test_develop_singer_13():
    ds = validate_difference_set(13, [0, 1, 3, 9])
    d = develop(ds)
    assert (d.v, d.k, d.lam, d.b) == (13, 4, 1, 13)
    assert d.symmetric
    assert d.blocks[0] == (0, 1, 3, 9)
    assert (1, 2, 4, 10) in d.blocks


def test_develop_paley7_is_fano_isomorphic():
    d = develop(paley_diffset(7))
    fano = geometry.pg_design(2, 2, 1)
    assert (d.v, d.k, d.lam) == (fano.v, fano.k, fano.lam)
    # invariant comparison: per-point block-size and pair-intersection profile
    def profile(design):
        inter = sorted(
            len(set(a) & set(b))
            for a, b in itertools.combinations(design.blocks, 2)
        )
        return inter
    assert profile(d) == profile(fano)


def test_paley_small():
    assert paley_diffset(7).elems == (1, 2, 4)
    ds11 = paley_diffset(11)
    assert ds11.elems == (1, 3, 4, 5, 9)
    assert ds11.lam == 2
    with pytest.raises(BadModulus):
        paley_diffset(13)
    with pytest.raises(BadModulus):
        paley_diffset(15)


def test_paley_size_and_certification_sample():
    # v = 3 is degenerate (k = 1, lambda = 0) and rejected upstream
    primes = [v for v in range(7, 1000) if gf.is_prime(v) and v % 4 == 3]
    for v in primes:
        ds = paley_diffset(v)
        assert ds.k == (v - 1) // 2
        assert ds.lam == (v - 3) // 4


def test_paley_certification_large_spot_checks():
    for v in (4999, 9967):
        ds = paley_diffset(v)
        # independent census via numpy circular autocorrelation
        ind = np.zeros(v, dtype=np.int64)
        ind[list(ds.elems)] = 1
        f = np.fft.rfft(ind)
        corr = np.rint(np.fft.irfft(f * np.conj(f), v)).astype(np.int64)
        assert corr[0] == ds.k
        assert set(corr[1:]) == {ds.lam}


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (2, 5)])
def test_singer_parameters(n, q):
    ds = singer_diffset(n, q)
    assert ds.v == geometry.bracket(n + 1, q)
    assert ds.k == geometry.bracket(n, q)
    assert ds.lam == geometry.bracket(n - 1, q)


def test_singer_23_development_is_symmetric_13_4_1():
    d = develop(singer_diffset(2, 3))
    assert (d.v, d.k, d.lam, d.b) == (13, 4, 1, 13)
    assert d.symmetric


def test_singer_32_is_15_7_3():
    ds = singer_diffset(3, 2)
    assert (ds.v, ds.k, ds.lam) == (15, 7, 3)


def test_singer_with_paper_poly_gf27():
    ds = singer_diffset(2, 3, poly=[1, 2, 0, 1])
    assert ds.elems == (0, 4, 10, 12)


@pytest.mark.parametrize(
    "elems,v",
    [([0, 1, 3, 9], 13), ([1, 2, 4], 7), ([0, 4, 10, 12], 13), ([1, 3, 4, 5, 9], 11)],
)
def test_develop_always_symmetric(elems, v):
    d = develop(validate_difference_set(v, elems))
    assert d.b == d.v == v


@pytest.mark.parametrize("v,elems", [(7, [1, 2, 4]), (13, [0, 1, 3, 9]), (11, [1, 3, 4, 5, 9])])
def test_symmetric_block_intersection_axiom(v, elems):
    # any two distinct blocks of a symmetric design share exactly lambda points
    d = develop(validate_difference_set(v, elems))
    for a, b in itertools.combinations(d.blocks, 2):
        assert len(set(a) & set(b)) == d.lam


def test_symmetric_block_intersection_axiom_pg_designs():
    for n, q in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        d = geometry.pg_design(n, q, n - 1)
        assert d.symmetric
        for a, b in itertools.combinations(d.blocks, 2):
            assert len(set(a) & set(b)) == d.lam


def test_design_json_roundtrip():
    d = validate_2design(Design(7, FANO_BLOCKS))
    doc = d.to_dict()
    assert doc["k"] == 3 and doc["lambda"] == 1
    back = Design.from_dict(doc)
    assert back.blocks == d.blocks and back.lam == 1


@pytest.mark.parametrize("key, value", [("k", 4), ("lambda", 2)])
def test_design_from_dict_rejects_wrong_claims(key, value):
    doc = validate_2design(Design(7, FANO_BLOCKS)).to_dict()
    doc[key] = value
    with pytest.raises(NotTwoDesign):
        Design.from_dict(doc)


def test_diffset_json():
    ds = validate_difference_set(13, [0, 1, 3, 9])
    assert ds.to_dict() == {"v": 13, "set": [0, 1, 3, 9]}
