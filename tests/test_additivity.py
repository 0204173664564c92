import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addesigns import additivity, chunks, geometry, gf
from addesigns.additivity import (
    Embedding,
    Report,
    ag_identity_embedding,
    cyclic_embedding,
    pg_strong_embedding,
    sigma_product_is_zero,
    subspace_embedding,
    symmetric_strong_embedding,
    verify_embedding,
    verify_strong,
)
from addesigns.designs import (
    DifferenceSet,
    develop,
    paley_diffset,
    singer_diffset,
    validate_difference_set,
)
from addesigns.errors import (
    BadPrime,
    DegenerateOrder,
    GroupMismatch,
    InvariantViolated,
    MalformedDocument,
    NotSubspaceBlocks,
    NotSymmetric,
    SizeMismatch,
    TooLarge,
)


def tup(s):
    return tuple(int(c) for c in s)


# §-free golden data: the 13-point listing and the 13 zero-sum blocks of
# the plane of order 3 under the difference set {0,1,3,9}.
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


def rows(array):
    """The rows of a block or image array as a list of tuples."""
    return [tuple(r) for r in array.tolist()]


def block_failures(m, elems):
    """What the block-sum kernel reports for the single block {elems} of Z_m^t."""
    emb = Embedding(m, elems, "test")
    block = np.arange(len(elems)).reshape(1, -1)
    return [(i, s.tolist())
            for i, s in additivity._nonzero_block_sums(emb.image, block, m)]


def test_zero_sum_basic():
    assert block_failures(3, [(0, 0, 0)]) == []
    assert block_failures(3, [(0, 0, 1), (1, 0, 0)]) == [(0, [1, 0, 1])]


def test_zero_sum_quartic_block():
    assert block_failures(3, [(0, 0, 0, 1), (2, 2, 1, 0), (0, 0, 0, 2), (1, 1, 2, 0)]) == []


def test_symmetric_strong_fano():
    fano = geometry.pg_design(2, 2, 1)
    emb = symmetric_strong_embedding(fano)
    assert (emb.m, emb.t) == (2, 7)
    report = verify_strong(fano, emb)
    assert report.injective and report.additive
    assert report.strong == "pass"
    assert report.zero_sum_subsets == 7


def test_symmetric_strong_singer_13():
    d = develop(validate_difference_set(13, [0, 1, 3, 9]))
    emb = symmetric_strong_embedding(d)
    assert (emb.m, emb.t) == (3, 13)
    report = verify_strong(d, emb)
    assert report.strong == "pass" and report.zero_sum_subsets == 13


def test_symmetric_strong_pg232():
    d = geometry.pg_design(3, 2, 2)
    assert (d.v, d.k, d.lam) == (15, 7, 3)
    emb = symmetric_strong_embedding(d)
    assert (emb.m, emb.t) == (4, 15)
    report = verify_strong(d, emb)
    assert report.strong == "pass" and report.zero_sum_subsets == 15


def test_symmetric_strong_rejects_nonsymmetric():
    d = geometry.pg_design(3, 2, 1)
    with pytest.raises(NotSymmetric):
        symmetric_strong_embedding(d)


def test_symmetric_strong_rejects_degenerate():
    # complete design on 3 points: k=2, lambda=1, k-lambda=1
    from addesigns.designs import Design, validate_2design
    d = validate_2design(Design(3, [(0, 1), (0, 2), (1, 2)]))
    with pytest.raises(DegenerateOrder):
        symmetric_strong_embedding(d)


def test_cyclic_embedding_plane3_golden():
    ds = validate_difference_set(13, [0, 1, 3, 9])
    emb = cyclic_embedding(ds, 3, poly=[1, 2, 0, 1])
    assert (emb.m, emb.t) == (3, 3)
    assert tuple(emb.meta["sigma_1"]) == (0, 0, 2)
    assert tuple(emb.meta["sigma_-1"]) == (0, 0, 0)
    assert emb.meta["sign"] == -1
    assert tuple(emb.meta["g"]) == (1, 0, 0)  # r^2
    image = rows(emb.image)
    assert image[0] == (0, 0, 1)
    # the point listing enumerates the image along powers of g
    for j, pt in enumerate(PLANE3_POINTS):
        assert image[(-j) % 13] == pt
    design = develop(ds)
    for j, blk in enumerate(rows(design.blocks)):
        assert {image[x] for x in blk} == PLANE3_BLOCKS[j]


def test_cyclic_embedding_mersenne_7():
    ds = validate_difference_set(7, [0, 1, 3])
    emb = cyclic_embedding(ds, 2)
    assert (emb.m, emb.t) == (2, 3)
    report = verify_embedding(develop(ds), emb)
    assert report.additive and report.injective
    assert report.label == "almost-strict"


def test_cyclic_embedding_bad_prime():
    ds = validate_difference_set(13, [0, 1, 3, 9])
    with pytest.raises(BadPrime):
        cyclic_embedding(ds, 2)  # 2 does not divide k - lambda = 3
    ds7 = validate_difference_set(7, [0, 1, 3])
    with pytest.raises(BadPrime):
        cyclic_embedding(ds7, 7)  # divides v


def test_pg_strong_fano_group_matches_symmetric():
    emb = pg_strong_embedding(2, 2, 1)
    sym = symmetric_strong_embedding(geometry.pg_design(2, 2, 1))
    assert (emb.m, emb.t) == (sym.m, sym.t) == (2, 7)


def test_pg_strong_pg132():
    d = geometry.pg_design(3, 2, 1)
    emb = pg_strong_embedding(3, 2, 1)
    assert (emb.m, emb.t) == (2, 15)
    report = verify_strong(d, emb)
    assert report.strong == "pass"
    assert report.zero_sum_subsets == 35 and report.blocks == 35


def test_subspace_embedding_pg133_golden():
    d = geometry.pg_design_cyclic(3, 3, 1, poly=[1, 0, 0, 1, 2])
    emb = subspace_embedding(3, d, poly=[1, 0, 0, 1, 2])
    assert (emb.m, emb.t) == (3, 4)
    base_blocks = {
        (0, 1, 4, 13): {"0001", "0100", "0111", "0121"},
        (0, 2, 17, 24): {"0001", "0021", "0122", "0222"},
        (0, 5, 26, 34): {"0001", "1121", "1002", "1212"},
        (0, 10, 20, 30): {"0001", "2210", "0002", "1120"},
    }
    image = rows(emb.image)
    for blk, expect in base_blocks.items():
        assert blk in rows(d.blocks)
        assert {image[i] for i in blk} == {tup(s) for s in expect}
    report = verify_embedding(d, emb)
    assert report.additive and report.blocks == 130


def test_subspace_embedding_q2_is_field_identity():
    # q = 2: the power map is the identity on GF(8)*
    d = geometry.pg_design_cyclic(2, 2, 1)
    emb = subspace_embedding(2, d)
    field = gf.make_field(2, 3)
    assert rows(emb.image) == rows(gf.digits(field._exp, 3, 2))
    assert verify_embedding(d, emb).additive


def test_subspace_embedding_size_mismatch():
    d = geometry.pg_design_cyclic(2, 2, 1)
    with pytest.raises(SizeMismatch, match=r"^7 is not the point count of any PG\(m-1,3\)$"):
        subspace_embedding(3, d)


SUBSPACE_CASES = [(q, m) for q in (2, 3, 4, 5, 7, 8, 9)
                  for m in range(3, 13) if q ** m <= 2 ** 12]


@pytest.mark.parametrize("q, m", SUBSPACE_CASES, ids=["q%d-m%d" % c for c in SUBSPACE_CASES])
def test_subspace_embedding_finds_m_from_the_point_count(q, m):
    design = geometry.pg_design_cyclic(m - 1, q, 1)
    emb = subspace_embedding(q, design)
    field = gf.make_field(q, m)
    assert emb.meta["m"] == m and emb.meta["poly"] == list(field.prim_poly)
    assert (emb.m, emb.t) == (field.p, field.n)
    assert np.array_equal(emb.image, gf.digits(field.powers(design.v, q - 1), field.n, field.p))


def test_verify_embedding_detects_perturbation():
    fano = geometry.pg_design(2, 2, 1)
    field = gf.make_field(2, 3)
    image = gf.digits(field._exp, 3, 2)
    image[3] = (image[3] + 1) % 2
    emb = Embedding(2, image, "identity")
    report = verify_embedding(fano, emb)
    assert not report.additive
    assert report.failures


def test_verify_strong_smooth_witness_plane3():
    ds = validate_difference_set(13, [0, 1, 3, 9])
    design = develop(ds)
    emb = cyclic_embedding(ds, 3, poly=[1, 2, 0, 1])
    report = verify_strong(design, emb)
    assert report.additive
    assert report.strong == "fail"
    assert report.zero_sum_subsets > 13


def test_strong_vs_smooth_separation_pg133():
    # the power-map embedding of PG_1(3,3) is smooth, never strong:
    # extra zero-sum 4-subsets exist beyond the 130 lines
    d = geometry.pg_design_cyclic(3, 3, 1, poly=[1, 0, 0, 1, 2])
    emb = subspace_embedding(3, d, poly=[1, 0, 0, 1, 2])
    report = verify_strong(d, emb)
    assert report.additive
    assert report.strong == "fail"
    assert report.zero_sum_subsets > 130


def test_verify_strong_cap_skips():
    fano = geometry.pg_design(2, 2, 1)
    emb = symmetric_strong_embedding(fano)
    report = verify_strong(fano, emb, cap=10)
    assert report.strong == "skipped"
    assert report.additive


def test_translate_closure_every_block_checked():
    ds = paley_diffset(11)
    for p in (2, 3):
        if (ds.k - ds.lam) % p:
            continue
        emb = cyclic_embedding(ds, p)
        report = verify_embedding(develop(ds), emb)
        assert report.additive and not report.failures


def _singer_sets_up_to(vmax):
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        n = 2
        while geometry.bracket(n + 1, q) <= vmax:
            if gf.prime_power(q)[0] ** (gf.prime_power(q)[1] * (n + 1)) <= gf.MAX_FIELD_ORDER:
                out.append((n, q, singer_diffset(n, q)))
            n += 1
    return out


def test_sigma_product_all_singer_and_paley_up_to_100():
    sets = [ds for _, _, ds in _singer_sets_up_to(100)]
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
    assert checked >= 15


def test_sigma_product_matches_field_computation_small():
    # cross-check the symbolic sigma-product against the actual field
    for ds, p in [(validate_difference_set(13, [0, 1, 3, 9]), 3),
                  (paley_diffset(7), 2), (paley_diffset(31), 2)]:
        t = gf.mult_order(p, ds.v)
        field = gf.make_field(p, t)
        e = (field.q - 1) // ds.v
        elems = np.array(ds.elems)
        s1 = field.sum_codes(field._exp[e * elems % (field.q - 1)]).item()
        sm1 = field.sum_codes(field._exp[-e * elems % (field.q - 1)]).item()
        assert field.mul_code(s1, sm1) == 0
        assert sigma_product_is_zero(ds, p)


def test_ord_is_alpha_n_plus_1_for_singer_parameters():
    for q in range(2, 33):
        try:
            p, alpha = gf.prime_power(q)
        except Exception:
            continue
        for n in range(2, 6):
            v = geometry.bracket(n + 1, q)
            assert gf.mult_order(p, v) == alpha * (n + 1)


def test_ag_identity_embedding_small():
    d = geometry.ag_design(2, 3, 1)
    emb = ag_identity_embedding(2, 3)
    report = verify_embedding(d, emb)
    assert report.additive and report.injective
    assert report.label == "strict"


def test_ag_identity_embedding_prime_power_q():
    d = geometry.ag_design(2, 4, 1)
    emb = ag_identity_embedding(2, 4)
    assert (emb.m, emb.t) == (2, 4)
    assert verify_embedding(d, emb).additive


def test_embedding_json_roundtrip():
    ds = validate_difference_set(7, [0, 1, 3])
    emb = cyclic_embedding(ds, 2)
    doc = emb.to_dict()
    assert doc["image"] is emb.image  # the array itself, not a list
    parsed = json.loads(json.dumps(doc, default=lambda a: a.tolist()))
    for back in (Embedding.from_dict(doc), Embedding.from_dict(parsed)):
        assert (back.m, back.t) == (emb.m, emb.t)
        assert rows(back.image) == rows(emb.image)
        assert back.meta["sign"] == emb.meta["sign"]


def test_ag_identity_embedding_beyond_memory_is_refused(monkeypatch):
    # 2304 bytes of memory: the 9 points of AG(2,3) take 28 bytes each,
    # the 81 of AG(4,3) 32
    monkeypatch.setattr(chunks.os, "sysconf", lambda name: 48)
    assert ag_identity_embedding(2, 3).image.shape == (9, 2)
    with pytest.raises(TooLarge, match="AG\\(4,3\\) has 81 points, 32 bytes each"):
        ag_identity_embedding(4, 3)


def test_embedding_reduces_residues_and_bounds_the_modulus():
    emb = Embedding(5, [(7, -1), (0, 10)], "test")
    assert rows(emb.image) == [(2, 4), (0, 0)]
    Embedding(2 ** 63 - 1, [(2 ** 63 - 2,)], "test")
    with pytest.raises(TooLarge):
        Embedding(2 ** 63, [(0,)], "test")


def test_embedding_reduces_uint64_entries_beyond_int64_exactly():
    big = [2 ** 64 - 1, 2 ** 63, 2 ** 63 + 12345, 7]
    image = np.array([[x] for x in big], np.uint64)
    for m in (5, 2 ** 61 - 1, 2 ** 63 - 1):
        emb = Embedding(m, image, "test")
        assert emb.image.ravel().tolist() == [x % m for x in big]
    assert image.ravel().tolist() == big


def test_embedding_from_dict_reduces_uint64_entries_beyond_int64_exactly():
    big = [2 ** 64 - 1, 2 ** 63, 7]
    image = np.array([[x] for x in big], np.uint64)
    doc = {"group": {"m": 5, "t": 1}, "kind": "test", "image": image}
    assert Embedding.from_dict(doc).image.ravel().tolist() == [x % 5 for x in big]
    assert image.ravel().tolist() == big


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
def test_embedding_reduces_a_copy_of_the_callers_array(dtype):
    image = np.array([[7], [3], [12]], dtype)
    assert Embedding(5, image, "test").image.ravel().tolist() == [2, 3, 2]
    assert image.ravel().tolist() == [7, 3, 12]


def test_embedding_refuses_ragged_rows():
    # numpy's ValueError (inhomogeneous shape) escaped
    with pytest.raises(GroupMismatch, match=r"image rows have lengths \[1, 2\]"):
        Embedding(5, [[0, 1], [1]], "t")


def test_an_embeddings_rank_is_the_width_of_its_image():
    emb = Embedding(5, [[0, 1, 2], [3, 4, 0]], "test")
    assert (emb.m, emb.t) == (5, 3)
    assert emb.to_dict()["group"] == {"m": 5, "t": 3}
    assert repr(emb) == "Embedding(Z_5^3, 'test', v=2)"
    assert Embedding(7, np.zeros((0, 4), np.int64), "test").t == 4


@pytest.mark.parametrize("m, image", [
    (5, []),
    (5, [[], []]),
    (5, np.zeros((3, 0), np.int64)),
    (1, [[0]]),
    (-3, [[0]]),
], ids=["empty", "zero-width", "zero-width-array", "m1", "m-3"])
def test_an_embedding_without_a_rank_or_modulus_is_refused(m, image):
    with pytest.raises(GroupMismatch):
        Embedding(m, image, "test")


@pytest.mark.parametrize("group, image", [
    ({"m": 5, "t": 2}, [[0, 1, 2]]),
    ({"m": 5, "t": 3}, [[0, 1], [1]]),
    ({"m": 5, "t": 1}, []),
    ({"m": 5, "t": 1}, [[], []]),
], ids=["wider", "ragged", "empty", "zero-width"])
def test_a_document_whose_rows_are_not_t_wide_is_malformed(group, image):
    doc = {"group": group, "kind": "test", "image": image}
    with pytest.raises(MalformedDocument, match="every image row must have length t = %d"
                       % group["t"]):
        Embedding.from_dict(doc)


def test_embedding_of_a_list_beyond_int64_is_too_large():
    for entry in (2 ** 63, 2 ** 64 - 1, -2 ** 63 - 1):
        with pytest.raises(TooLarge, match="'image' has entries beyond 64-bit integers"):
            Embedding(5, [[0], [entry]], "test")


@pytest.mark.parametrize("image, message", [
    ([[0.5], [6.7]], "'image' must be a list of lists of integers"),
    (np.array([[0.5], [6.7]]), "'image' must hold integers, not float64"),
    (np.array([[True], [False]]), "'image' must hold integers, not bool"),
], ids=["float-list", "float-array", "bool-array"])
def test_embedding_refuses_entries_that_are_not_integers(image, message):
    # they were truncated: [[0.5], [6.7]] read as the image [[0], [1]]
    with pytest.raises(MalformedDocument, match=message):
        Embedding(5, image, "test")


@settings(max_examples=100, deadline=None)
@given(m=st.integers(2, 300) | st.integers(2, 2 ** 63 - 1), data=st.data(),
       dtype=st.sampled_from([np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32,
                              np.int64, np.uint64]))
def test_embedding_of_an_integer_array_matches_the_list_path(m, data, dtype):
    # residues below m are copied straight to the residue dtype, others reduced
    info = np.iinfo(dtype)
    v, t = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    entries = (st.integers(max(info.min, -2 ** 63), min(info.max, 2 ** 63 - 1))
               | st.integers(0, min(m - 1, info.max)))
    image = np.array(data.draw(st.lists(st.lists(entries, min_size=t, max_size=t),
                                        min_size=v, max_size=v)), dtype)
    emb = Embedding(m, image, "test")
    want = Embedding(m, image.tolist(), "test").image
    assert emb.image.dtype == want.dtype and emb.image.tolist() == want.tolist()
    assert not np.shares_memory(emb.image, image)


def test_injective_compares_whole_rows():
    assert Embedding(3, [(0, 1), (1, 0), (1, 1)], "test").injective
    assert not Embedding(3, [(0, 1), (1, 0), (0, 1)], "test").injective


def test_cyclic_embedding_without_vanishing_sigma_is_typed():
    # {0, 1} in Z_7 is no difference set: 1 + g and 1 + g^-1 are both nonzero
    with pytest.raises(InvariantViolated, match="neither sigma"):
        cyclic_embedding(DifferenceSet(7, [0, 1], 0), 2)


def reference_sigma_product_is_zero(ds, p):
    """The O(k^2) difference count sigma_product_is_zero used to run."""
    coeffs = [0] * ds.v
    for d in ds.elems:
        for d2 in ds.elems:
            coeffs[(d - d2) % ds.v] += 1
    return len({c % p for c in coeffs}) == 1


def test_sigma_product_matches_double_loop_reference():
    sets = [ds for _, _, ds in _singer_sets_up_to(100)]
    sets += [paley_diffset(v) for v in (7, 11, 19, 23)]
    outcomes = set()
    for ds in sets:
        for p in (2, 3, 5, 7, 11, 13):
            got = sigma_product_is_zero(ds, p)
            assert got == reference_sigma_product_is_zero(ds, p), (ds, p)
            outcomes.add(got)
    assert outcomes == {True, False}


# -- the block-sum kernel against the per-block loop it replaced ----------


def reference_verify_embedding(design, emb):
    """Sum every block's image coordinate by coordinate in Python."""
    image = rows(emb.image)
    m, t = emb.m, emb.t
    failures = []
    for idx, blk in enumerate(rows(design.blocks)):
        total = [0] * t
        for i in blk:
            for j, c in enumerate(image[i]):
                total[j] += c
        sums = [c % m for c in total]
        if any(sums):
            failures.append([idx, sums])
    order = m ** t
    return Report(
        injective=len(set(image)) == len(image),
        additive=not failures,
        strong="skipped",
        zero_sum_subsets=None,
        blocks=len(design.blocks),
        failures=failures,
        label="strict" if order == design.v else "almost-strict" if order == design.v + 1 else None,
    )


def _additive_cases():
    fano = geometry.pg_design(2, 2, 1)
    plane3 = validate_difference_set(13, [0, 1, 3, 9])
    return [
        (fano, symmetric_strong_embedding(fano)),
        (develop(plane3), cyclic_embedding(plane3, 3, poly=[1, 2, 0, 1])),
        (geometry.pg_design(3, 2, 1), pg_strong_embedding(3, 2, 1)),
    ]


ADDITIVE = _additive_cases()
CHUNKS = [1, 7, chunks.BUDGET]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("case", range(len(ADDITIVE)), ids=["fano", "plane3", "pg132"])
def test_additive_embeddings_match_reference(case, chunk):
    design, emb = ADDITIVE[case]
    with mock.patch.object(chunks, "BUDGET", chunk):
        report = verify_embedding(design, emb)
    assert report.additive and report.injective
    assert report.to_dict() == reference_verify_embedding(design, emb).to_dict()


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_changed_coordinate_fails_exactly_the_blocks_through_it(chunk, data):
    design, emb = data.draw(st.sampled_from(ADDITIVE))
    m, t = emb.m, emb.t
    x = data.draw(st.integers(0, design.v - 1))
    j = data.draw(st.integers(0, t - 1))
    image = emb.image.tolist()
    image[x][j] = (image[x][j] + data.draw(st.integers(1, m - 1))) % m
    changed = Embedding(m, image, emb.kind)
    with mock.patch.object(chunks, "BUDGET", chunk):
        report = verify_embedding(design, changed)
    assert report.to_dict() == reference_verify_embedding(design, changed).to_dict()
    through = [i for i, blk in enumerate(rows(design.blocks)) if x in blk]
    assert [i for i, _ in report.failures] == through


def test_subspace_embedding_names_the_first_block_that_is_no_subspace():
    # the image depends only on the field, and the vector-labelled Fano
    # lines are not subspaces in the cyclic coordinates
    vector = geometry.pg_design(2, 2, 1)
    emb = subspace_embedding(2, geometry.pg_design_cyclic(2, 2, 1))
    first = reference_verify_embedding(vector, emb).failures[0][0]
    with pytest.raises(NotSubspaceBlocks, match="block %d is not" % first):
        subspace_embedding(2, vector)
