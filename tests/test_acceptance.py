"""Acceptance suite: each test covers one numbered criterion exactly at
its stated tolerance and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from addesigns import additivity, geometry, gf
from addesigns.additivity import (
    ag_identity_embedding,
    cyclic_embedding,
    pg_strong_embedding,
    sigma_product_is_zero,
    subspace_embedding,
    symmetric_strong_embedding,
    verify_embedding,
    verify_strong,
)
from addesigns.designs import develop, paley_diffset, singer_diffset, validate_difference_set


def report_line(num, title):
    def deco(fn):
        def wrapper(*a, **k):
            start = time.perf_counter()
            try:
                fn(*a, **k)
            except BaseException:
                print("ACCEPTANCE %2d %-38s FAIL" % (num, title))
                raise
            elapsed = time.perf_counter() - start
            print("ACCEPTANCE %2d %-38s PASS (%.2fs)" % (num, title, elapsed))
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


def tup(s):
    return tuple(int(c) for c in s)


PLANE3_POINTS = [tup(s) for s in
                 "001 100 122 220 112 121 120 020 201 011 202 111 021".split()]
PLANE3_BLOCKS = [
    {"001", "021", "202", "112"}, {"021", "111", "011", "220"},
    {"111", "202", "201", "122"}, {"202", "011", "020", "100"},
    {"011", "201", "120", "001"}, {"201", "020", "121", "021"},
    {"020", "120", "112", "111"}, {"120", "121", "220", "202"},
    {"121", "112", "122", "011"}, {"112", "220", "100", "201"},
    {"220", "122", "001", "020"}, {"122", "100", "021", "120"},
    {"100", "001", "111", "121"},
]
PLANE3_BLOCKS = [{tup(s) for s in blk} for blk in PLANE3_BLOCKS]


@report_line(1, "plane of order 3, cyclic golden")
def test_criterion_1_plane3_cyclic_golden():
    start = time.perf_counter()
    ds = validate_difference_set(13, [0, 1, 3, 9])
    emb = cyclic_embedding(ds, 3, poly=[1, 2, 0, 1])
    assert tuple(emb.meta["sigma_1"]) == (0, 0, 2)
    assert tuple(emb.meta["sigma_-1"]) == (0, 0, 0)
    assert emb.meta["sign"] == -1
    image = [tuple(row) for row in emb.image.tolist()]
    assert image[0] == (0, 0, 1)
    # point listing runs along powers of the order-13 generator
    for j, pt in enumerate(PLANE3_POINTS):
        assert image[(-j) % 13] == pt
    design = develop(ds)
    for j, blk in enumerate(design.blocks.tolist()):
        assert {image[x] for x in blk} == PLANE3_BLOCKS[j]
    assert verify_embedding(design, emb).additive
    assert time.perf_counter() - start < 1.0


@report_line(2, "PG_1(3,3), subspace golden")
def test_criterion_2_pg133_subspace_golden():
    start = time.perf_counter()
    design = geometry.pg_design_cyclic(3, 3, 1, poly=[1, 0, 0, 1, 2])
    emb = subspace_embedding(3, design, poly=[1, 0, 0, 1, 2])
    golden = {
        (0, 1, 4, 13): {"0001", "0100", "0111", "0121"},
        (0, 2, 17, 24): {"0001", "0021", "0122", "0222"},
        (0, 5, 26, 34): {"0001", "1121", "1002", "1212"},
        (0, 10, 20, 30): {"0001", "2210", "0002", "1120"},
    }
    blocks = [tuple(b) for b in design.blocks.tolist()]
    image = [tuple(row) for row in emb.image.tolist()]
    for blk, expect in golden.items():
        assert blk in blocks
        assert {image[i] for i in blk} == {tup(s) for s in expect}
    report = verify_embedding(design, emb)
    assert report.additive and report.blocks == 130 and not report.failures
    assert time.perf_counter() - start < 1.0


@report_line(3, "strong additivity of symmetric designs")
def test_criterion_3_symmetric_strong():
    start = time.perf_counter()
    cases = [
        (geometry.pg_design(2, 2, 1), 35),
        (develop(validate_difference_set(13, [0, 1, 3, 9])), 715),
        (geometry.pg_design(3, 2, 2), 6435),
    ]
    for design, n_subsets in cases:
        assert math.comb(design.v, design.k) == n_subsets
        emb = symmetric_strong_embedding(design)
        assert (emb.m, emb.t) == (design.k - design.lam, design.v)
        report = verify_strong(design, emb)
        assert report.strong == "pass"
        assert report.zero_sum_subsets == design.b
    assert time.perf_counter() - start < 1.0


@report_line(4, "strong additivity of PG_d(n,q)")
def test_criterion_4_pg_strong():
    start = time.perf_counter()
    d1 = geometry.pg_design(3, 2, 1)
    r1 = verify_strong(d1, pg_strong_embedding(3, 2, 1))
    assert math.comb(15, 3) == 455
    assert r1.strong == "pass" and r1.zero_sum_subsets == 35

    d2 = geometry.pg_design(3, 3, 1)
    assert math.comb(40, 4) == 91390
    r2 = verify_strong(d2, pg_strong_embedding(3, 3, 1))
    assert r2.strong == "pass" and r2.zero_sum_subsets == 130

    # cases the old cap on C(v,k) refused, now under the default cap
    for (n, q, d), b in [((3, 4, 1), 357), ((5, 2, 2), 1395), ((2, 7, 1), 57), ((3, 5, 1), 806)]:
        design = geometry.pg_design(n, q, d)
        assert design.b == b
        report = verify_strong(design, pg_strong_embedding(n, q, d))
        assert report.strong == "pass" and report.zero_sum_subsets == b, (n, q, d)
    assert time.perf_counter() - start < 10.0


@report_line(5, "smoothness witness on the (13,4,1)")
def test_criterion_5_smoothness_witness():
    start = time.perf_counter()
    design = develop(singer_diffset(2, 3, poly=[1, 2, 0, 1]))
    emb = subspace_embedding(3, design, poly=[1, 2, 0, 1])
    report = verify_strong(design, emb)
    assert report.additive
    assert report.strong == "fail"
    assert report.zero_sum_subsets > 13
    assert time.perf_counter() - start < 1.0


@report_line(6, "power-sum lemma suite")
def test_criterion_6_power_sum_lemma():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        p, alpha = gf.prime_power(q)
        field = gf.make_field(p, alpha)
        # row i - 1 holds x^i for the q - 1 units x; zero adds nothing for i >= 1
        powers = field._exp[np.arange(1, q)[:, None] * np.arange(q - 1) % (q - 1)]
        sums = [field.sum_codes(np.ones(q, dtype=np.int64)).item()]  # 0^0 = 1
        sums += field.sum_codes(powers).tolist()
        assert sums == [0] * (q - 1) + [p - 1], q  # -1 is the code p - 1


@report_line(7, "arithmetic anchors")
def test_criterion_7_arithmetic_anchors():
    assert gf.mult_order(2, 465) == 20
    assert gf.mult_order(3, 910) == 12
    for q in range(2, 33):
        try:
            p, alpha = gf.prime_power(q)
        except Exception:
            continue
        for n in range(2, 6):
            v = geometry.bracket(n + 1, q)
            assert gf.mult_order(p, v) == alpha * (n + 1), (q, n)


@report_line(8, "Paley/Mersenne corollary")
def test_criterion_8_paley_mersenne():
    start = time.perf_counter()
    for v, t in ((7, 3), (31, 5)):
        ds = paley_diffset(v)
        emb = cyclic_embedding(ds, 2)
        assert (emb.m, emb.t) == (2, t)
        assert emb.m ** emb.t == v + 1
        report = verify_embedding(develop(ds), emb)
        assert report.additive and not report.failures
        assert report.label == "almost-strict"
    assert time.perf_counter() - start < 1.0


@report_line(9, "sigma-product property suite")
def test_criterion_9_sigma_product():
    sets = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        n = 2
        while geometry.bracket(n + 1, q) <= 100:
            sets.append(singer_diffset(n, q))
            n += 1
    sets += [paley_diffset(v) for v in range(7, 101)
             if gf.is_prime(v) and v % 4 == 3]
    checked = 0
    for ds in sets:
        order = ds.k - ds.lam
        for p in range(2, order + 1):
            if not gf.is_prime(p) or order % p or ds.v % p == 0:
                continue
            assert sigma_product_is_zero(ds, p), (ds, p)
            checked += 1
    assert checked >= 20


@report_line(10, "AG identity additivity")
def test_criterion_10_ag_identity():
    cases = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        n = 2
        while q ** n <= 81:
            for d in range(1, n):
                if (d, q) != (1, 2):
                    cases.append((n, q, d))
            n += 1
    assert cases
    for n, q, d in cases:
        design = geometry.ag_design(n, q, d)
        emb = ag_identity_embedding(n, q)
        report = verify_embedding(design, emb)
        assert report.additive and report.injective, (n, q, d)
        assert not report.failures
