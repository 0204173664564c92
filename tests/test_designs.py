import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from addesigns import chunks, cli, designs, geometry, gf
from addesigns.designs import (
    Design,
    DifferenceSet,
    develop,
    paley_diffset,
    singer_diffset,
    validate_2design,
)
from addesigns.errors import (
    BadModulus,
    EmptyDesign,
    InvariantViolated,
    MalformedDocument,
    NotDifferenceSet,
    NotTwoDesign,
    TooLarge,
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


@pytest.mark.parametrize("blocks, message", [
    ([(0, 1, 2), (0, 3, 3)], "repeated point inside a block"),
    ([(0, 1, 2), (0, 3, 4)], "block index out of range"),
    ([(-1, 1, 2)], "block index out of range"),
    (np.array([[2, 1, 2]]), "repeated point inside a block"),
])
def test_design_rejects_bad_blocks(blocks, message):
    with pytest.raises(NotTwoDesign, match=message):
        Design(4, blocks)


@pytest.mark.parametrize("budget", [1, 2, 7, chunks.BUDGET])
def test_design_finds_a_repeated_point_in_any_chunk_of_rows(budget):
    blocks = np.tile(np.arange(3), (20, 1))
    blocks[-1, 2] = 1
    with mock.patch.object(chunks, "BUDGET", budget):
        assert len(Design(3, blocks[:-1]).blocks) == 19
        with pytest.raises(NotTwoDesign, match="repeated point inside a block"):
            Design(3, blocks)


@pytest.mark.parametrize("blocks, message", [
    (np.array([[0.5, 1.9]]), "'blocks' must hold integers, not float64"),
    ([[0.5, 1.9]], "'blocks' must be a list of lists of integers"),
    (np.array([[True, False]]), "'blocks' must hold integers, not bool"),
    ([[True, 2]], "'blocks' must be a list of lists of integers"),
], ids=["float-array", "float-list", "bool-array", "bool-list"])
def test_design_refuses_entries_that_are_not_integers(blocks, message):
    # they were truncated: [[0.5, 1.9]] read as the block [0, 1]
    with pytest.raises(MalformedDocument, match=message):
        Design(3, blocks)


def test_design_of_a_list_beyond_int64_is_too_large():
    for entry in (2 ** 63, 2 ** 70, -2 ** 63 - 1):
        with pytest.raises(TooLarge, match="'blocks' has entries beyond 64-bit integers"):
            Design(3, [[entry, 1]])


def test_design_takes_rows_of_numpy_integers():
    rows = [list(row) for row in np.array([[2, 0, 1]], np.uint8)]
    assert Design(3, rows).blocks.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("blocks, message", [
    (np.array([0, 1]), "'blocks' must be a 2-D integer array"),
    (np.zeros((2, 2, 2), int), "'blocks' must be a 2-D integer array"),
    ([0, 1], "'blocks' must be a list of lists of integers"),
], ids=["1-D-array", "3-D-array", "flat-list"])
def test_design_refuses_blocks_that_are_not_rows(blocks, message):
    # they raised numpy's AxisError, a misleading NotTwoDesign and a TypeError
    with pytest.raises(MalformedDocument, match=message):
        Design(3, blocks)


def test_design_from_dict_of_uint64_beyond_int64_is_out_of_range():
    # a uint64 array of a dict is read as it is, as the constructor reads it
    blocks = np.array([[0, 2 ** 63]], np.uint64)
    for read in (lambda: Design(3, blocks), lambda: Design.from_dict({"v": 3, "blocks": blocks})):
        with pytest.raises(NotTwoDesign, match="block index out of range"):
            read()


def test_validate_rejects_empty():
    with pytest.raises(EmptyDesign):
        validate_2design(Design(4, []))


def test_difference_set_singer_13():
    ds = DifferenceSet(13, [0, 1, 3, 9])
    assert ds.lam == 1 and ds.k == 4


def test_difference_set_quadratic_residues_7():
    # brute-force census: differences of {1,2,4} cover 1..6 once each
    census = {}
    for a, b in itertools.permutations([1, 2, 4], 2):
        census[(a - b) % 7] = census.get((a - b) % 7, 0) + 1
    assert census == {i: 1 for i in range(1, 7)}
    ds = DifferenceSet(7, [1, 2, 4])
    assert ds.lam == 1


def test_difference_set_rejects_nonuniform():
    with pytest.raises(NotDifferenceSet) as exc:
        DifferenceSet(7, [0, 1, 2])
    assert "residue 1" in str(exc.value)


def reference_difference_counts(v, elems):
    """The O(k v) loop: one bincount of d - elems per element d."""
    arr = np.array(elems, dtype=np.int64)
    counts = np.zeros(v, dtype=np.int64)
    for d in elems:
        counts += np.bincount((d - arr) % v, minlength=v)
    return counts


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300).flatmap(
    lambda v: st.tuples(st.just(v), st.lists(st.integers(-2 * v, 2 * v), max_size=3 * v))))
def test_difference_counts_match_the_loop_on_multisets(case):
    v, elems = case
    got = designs.difference_counts(v, elems)
    assert got.dtype == np.int64
    assert got.tolist() == reference_difference_counts(v, elems).tolist()


@pytest.mark.parametrize("v,elems", [
    (7, [1, 2, 4]),
    (13, [0, 1, 3, 9]),
    (1057, list(singer_diffset(2, 32).elems)),
    (10007, list(paley_diffset(10007).elems)),
], ids=["paley7", "plane3", "singer32", "paley10007"])
def test_difference_counts_match_the_loop(v, elems):
    expected = reference_difference_counts(v, elems)
    assert designs.difference_counts(v, elems).tolist() == expected.tolist()


def kronecker_difference_counts(v, elems):
    """difference_counts by its Kronecker product at any v."""
    with mock.patch.object(designs, "_FFT_FROM", float("inf")):
        return designs.difference_counts(v, elems)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 2000).flatmap(
    lambda v: st.tuples(st.just(v), st.lists(st.integers(-2 * v, 2 * v), max_size=3 * v))))
def test_fft_difference_counts_match_the_kronecker_product(case):
    v, elems = case
    with mock.patch.object(designs, "_FFT_FROM", 2):
        got = designs.difference_counts(v, elems)
    assert got.dtype == np.int64
    assert got.tolist() == kronecker_difference_counts(v, elems).tolist()


def test_paley100003_counts_are_correlated_by_fft():
    elems = paley_diffset(100003).elems
    rfft = mock.Mock(side_effect=np.fft.rfft)
    with mock.patch.object(designs.np.fft, "rfft", rfft):
        got = designs.difference_counts(100003, elems)
    assert rfft.called
    assert got.tolist() == kronecker_difference_counts(100003, elems).tolist()
    assert got[0] == 50001 and set(got[1:].tolist()) == {25000}


def test_fft_difference_counts_are_checked():
    irfft = np.fft.irfft
    with mock.patch.object(designs.np.fft, "irfft", lambda *a: irfft(*a) + 0.7):
        with mock.patch.object(designs, "_FFT_FROM", 2):
            with pytest.raises(InvariantViolated, match="FFT difference counts of Z_13"):
                designs.difference_counts(13, [0, 1, 3, 9])


def test_develop_singer_13():
    ds = DifferenceSet(13, [0, 1, 3, 9])
    d = develop(ds)
    assert (d.v, d.k, d.lam, d.b) == (13, 4, 1, 13)
    assert d.symmetric
    assert d.blocks[0].tolist() == [0, 1, 3, 9]
    assert [1, 2, 4, 10] in d.blocks.tolist()


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
    primes = [v for v in range(7, 2000) if gf.is_prime(v) and v % 4 == 3]
    for v in primes + [100003]:
        ds = paley_diffset(v)
        assert ds.k == (v - 1) // 2
        assert ds.lam == (v - 3) // 4
        # oracle: every nonzero residue squared
        assert ds.elems == tuple(sorted({i * i % v for i in range(1, v)})), v


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
    d = develop(DifferenceSet(v, elems))
    assert d.b == d.v == v


@pytest.mark.parametrize("v,elems", [(7, [1, 2, 4]), (13, [0, 1, 3, 9]), (11, [1, 3, 4, 5, 9])])
def test_symmetric_block_intersection_axiom(v, elems):
    # any two distinct blocks of a symmetric design share exactly lambda points
    d = develop(DifferenceSet(v, elems))
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
    assert doc["blocks"] is d.blocks  # the array itself, not a list
    parsed = json.loads(json.dumps(doc, default=lambda a: a.tolist()))
    for back in (Design.from_dict(doc), Design.from_dict(parsed)):
        assert back.blocks.tolist() == d.blocks.tolist() and back.lam == 1


@pytest.mark.parametrize("key, value, drop",
                         [("k", 4, None), ("lambda", 2, None), ("lambda", 2, "k")],
                         ids=["k-4", "lambda-2", "lambda-2-without-k"])
def test_design_from_dict_rejects_wrong_claims(key, value, drop):
    doc = validate_2design(Design(7, FANO_BLOCKS)).to_dict()
    doc[key] = value
    doc.pop(drop, None)
    with pytest.raises(NotTwoDesign):
        Design.from_dict(doc)


def test_diffset_json():
    ds = DifferenceSet(13, [0, 1, 3, 9])
    assert ds.to_dict() == {"v": 13, "set": [0, 1, 3, 9]}


# -- validate_2design against the pair-count dictionary it replaced -------


def reference_validate_2design(design):
    """Count every pair in a dictionary; (k, lam, r, b) or the error."""
    blocks = design.blocks.tolist()
    if design.v < 2 or not blocks:
        raise EmptyDesign("need v >= 2 and at least one block")
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise UnequalBlockSizes("block sizes %s" % sorted(sizes))
    k = sizes.pop()
    replication = [0] * design.v
    pair_counts = {}
    for blk in blocks:
        for i, x in enumerate(blk):
            replication[x] += 1
            for y in blk[i + 1:]:
                pair_counts[(x, y)] = pair_counts.get((x, y), 0) + 1
    if len(pair_counts) != design.v * (design.v - 1) // 2:
        raise NotTwoDesign("some point pair lies on no block")
    lam_values = set(pair_counts.values())
    if len(lam_values) != 1:
        raise NotTwoDesign("pair counts range over %s" % sorted(lam_values))
    lam = lam_values.pop()
    r_values = set(replication)
    if len(r_values) != 1:
        raise NotTwoDesign("replication numbers range over %s" % sorted(r_values))
    return k, lam, r_values.pop(), len(blocks)


def _outcome(validate, design):
    try:
        out = validate(design)
    except (EmptyDesign, UnequalBlockSizes, NotTwoDesign) as exc:
        return type(exc).__name__, str(exc)
    return out if isinstance(out, tuple) else (out.k, out.lam, out.r, out.b)


@st.composite
def incidence_structures(draw):
    v = draw(st.integers(2, 8))
    k = draw(st.integers(0, v))
    subsets = list(itertools.combinations(range(v), k))
    if draw(st.booleans()):
        # all k-subsets minus a few: often a 2-design, else a near miss
        drop = draw(st.sets(st.integers(0, len(subsets) - 1), max_size=2))
        blocks = [b for i, b in enumerate(subsets) if i not in drop] or subsets
    else:
        blocks = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=12))
    return Design(v, blocks)


@settings(max_examples=300, deadline=None)
@given(incidence_structures(), st.sampled_from([1, 500, 1 << 18]))
def test_validate_2design_matches_dict_reference(design, budget):
    with mock.patch.object(chunks, "BUDGET", budget):
        assert _outcome(validate_2design, design) == _outcome(reference_validate_2design, design)


# a point of the Fano plane takes 256 bytes of pair counts and incidences,
# so the budgets cover ranges of one, one, two and all points
@pytest.mark.parametrize("budget", [1, 40, 600, 1 << 18])
@pytest.mark.parametrize(
    "design",
    [
        Design(7, FANO_BLOCKS),
        Design(6, [(0, 1, 2), (3, 4, 5)]),  # pairs missing
        Design(4, [(0, 1, 2), (0, 1, 3)]),  # pair counts 1 and 2
        Design(3, [(0, 1), (0, 2), (1, 2), (0, 1), (0, 2), (1, 2)]),  # lambda 2
        Design(5, [(0,), (1,)]),  # k = 1: no pairs at all
        Design(4, [(), ()]),  # k = 0
    ],
    ids=["fano", "missing", "uneven", "doubled", "k1", "k0"],
)
def test_validate_2design_messages_match_reference(design, budget, monkeypatch):
    monkeypatch.setattr(chunks, "BUDGET", budget)
    assert _outcome(validate_2design, design) == _outcome(reference_validate_2design, design)


@pytest.mark.parametrize("n,q,d", [(2, 3, 1), (3, 2, 2), (3, 3, 1)])
def test_validate_2design_matches_reference_on_pg_designs(n, q, d, monkeypatch):
    design = geometry.pg_design(n, q, d)
    raw = Design(design.v, design.blocks)
    monkeypatch.setattr(chunks, "BUDGET", 3000)  # ranges of two to six points
    assert _outcome(validate_2design, raw) == _outcome(reference_validate_2design, raw)


@settings(max_examples=200, deadline=None)
@given(incidence_structures(), st.sampled_from([1, 500, 1 << 18]))
def test_validate_2design_agrees_on_int64_and_narrow_blocks(design, budget):
    wide = Design(design.v, design.blocks)
    wide.blocks = design.blocks.astype(np.int64)
    with mock.patch.object(chunks, "BUDGET", budget):
        assert _outcome(validate_2design, wide) == _outcome(validate_2design, design)


@pytest.mark.parametrize("make", [
    lambda: geometry.pg_design(2, 16, 1),  # v = 273: 16-bit points
    lambda: develop(singer_diffset(2, 16)),
    lambda: Design(300, [(0, 1, 299), (2, 3, 298)]),  # not a 2-design
])
def test_validate_2design_agrees_on_int64_and_narrow_designs(make):
    narrow = make()
    raw, wide = Design(narrow.v, narrow.blocks), Design(narrow.v, narrow.blocks)
    wide.blocks = raw.blocks.astype(np.int64)
    assert raw.blocks.dtype == np.uint16
    assert _outcome(validate_2design, wide) == _outcome(validate_2design, raw)


@pytest.mark.parametrize("v", [1, 2, 7, 256, 257, 65536, 65537])
@pytest.mark.parametrize("kind", [list, np.int64, np.uint8])
def test_design_blocks_are_as_narrow_as_the_points(v, kind):
    rows = [[0, min(v - 1, 255)]] if v > 1 else [[0]]
    blocks = rows if kind is list else np.array(rows, kind)
    design = Design(v, blocks)
    assert design.blocks.dtype == np.min_scalar_type(v - 1)
    assert design.blocks.tolist() == rows


def test_point_indices_beyond_32_bits_are_int64():
    # as cli._load gives them; uint64 indices would not cast to bincount's intp
    assert designs._point_dtype(2 ** 32) == np.uint32
    assert designs._point_dtype(2 ** 32 + 1) == np.int64


def test_design_sorts_a_copy_of_the_callers_blocks():
    blocks = np.array([[2, 0, 1]], np.uint8)
    assert Design(3, blocks).blocks.tolist() == [[0, 1, 2]]
    assert blocks.tolist() == [[2, 0, 1]]


@pytest.mark.parametrize("ds", [
    lambda: singer_diffset(2, 3),   # v = 13
    lambda: paley_diffset(263),     # v = 263, sums d + i up to 524
    lambda: singer_diffset(2, 16),  # v = 273
])
def test_develop_builds_blocks_at_the_point_width(ds):
    ds = ds()
    design = develop(ds)
    assert design.blocks.dtype == np.min_scalar_type(ds.v - 1)
    want = np.sort((np.array(ds.elems) + np.arange(ds.v)[:, None]) % ds.v, axis=1)
    assert design.blocks.tolist() == want.tolist()


def test_validate_2design_singer32_parameters():
    ds = singer_diffset(2, 32)
    d = validate_2design(Design(ds.v, develop(ds).blocks))
    assert (d.v, d.k, d.lam, d.r, d.b) == (1057, 33, 1, 33, 1057)
    assert all(type(x) is int for x in (d.k, d.lam, d.r, d.b))


# -- a development takes its parameters from the certificate of its set ----


DEVELOPED = {
    "singer-2-3": lambda: singer_diffset(2, 3),
    "singer-2-4": lambda: singer_diffset(2, 4),
    "singer-3-2": lambda: singer_diffset(3, 2),
    "singer-2-16": lambda: singer_diffset(2, 16),
    "singer-2-32": lambda: singer_diffset(2, 32),
    "paley-7": lambda: paley_diffset(7),
    "paley-11": lambda: paley_diffset(11),
    "paley-19": lambda: paley_diffset(19),
    "paley-43": lambda: paley_diffset(43),
    "paley-263": lambda: paley_diffset(263),
    "13-4-1": lambda: DifferenceSet(13, [0, 1, 3, 9]),
}


def _parameters(design):
    return design.v, design.k, design.lam, design.r, design.b, design.symmetric


def assert_develop_matches_counted_pairs(ds):
    d = develop(ds)
    counted = validate_2design(Design(ds.v, (np.array(ds.elems) + np.arange(ds.v)[:, None]) % ds.v))
    assert d.blocks.tolist() == counted.blocks.tolist()
    assert _parameters(d) == _parameters(counted)
    assert all(type(x) is int for x in (d.k, d.lam, d.r, d.b))


@pytest.mark.parametrize("name", DEVELOPED)
def test_develop_matches_counted_pairs(name):
    assert_develop_matches_counted_pairs(DEVELOPED[name]())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(DEVELOPED)), st.data())
def test_develop_matches_counted_pairs_on_affine_images(name, data):
    ds = DEVELOPED[name]()
    t = data.draw(st.integers(1, ds.v - 1).filter(lambda t: np.gcd(t, ds.v) == 1), label="t")
    s = data.draw(st.integers(0, ds.v - 1), label="s")
    assert_develop_matches_counted_pairs(
        DifferenceSet(ds.v, [(t * d + s) % ds.v for d in ds.elems]))


def test_the_constructor_certifies_a_hand_built_set():
    with pytest.raises(NotDifferenceSet, match="residue 1 covered 3 times, expected 1"):
        DifferenceSet(13, [0, 1, 2, 3])
    # lambda is the certificate's, never the caller's
    with pytest.raises(TypeError):
        DifferenceSet(13, [0, 1, 3, 9], 1)
    assert DifferenceSet(13, [0, 1, 3, 9]).lam == 1


def test_develop_and_gen_paley_count_differences_once(capsys):
    # the constructor's certificate is the one count; develop trusts it
    with mock.patch.object(designs, "difference_counts",
                           wraps=designs.difference_counts) as counted:
        develop(paley_diffset(43))
        assert counted.call_count == 1
        counted.reset_mock()
        assert cli.main(["gen", "paley", "--v", "43"]) == 0
        assert counted.call_count == 1
    assert json.loads(capsys.readouterr().out)["lambda"] == 10


def test_develop_counts_no_pairs():
    with mock.patch.object(designs, "validate_2design", side_effect=AssertionError("counted")):
        d = develop(singer_diffset(2, 16))
    assert _parameters(d) == (273, 17, 1, 17, 273, True)


# -- the Singer set from v powers and a trace matrix ---------------------


def table_singer_exponents(field, q, n):
    """The zero-trace exponents as the exp table gave them: the trace of r^i
    as the sum of the codes of r^(i q^j), read from the table."""
    big = field.q - 1
    v = big // (q - 1)
    elems = []
    step = chunks.rows_per_chunk(32 * (n + 1))
    for lo in range(0, v, step):
        i = np.arange(lo, min(v, lo + step))
        trace = field.sum_codes(field._exp[i[:, None] * q ** np.arange(n + 1) % big])
        elems += i[trace == 0].tolist()
    return elems


def _prime_powers(top):
    return [q for q in range(2, top + 1) if len(factorint(q)) == 1]


# every Singer plane and space whose field is within the table cap: 98
SINGER_WITHIN_CAP = [(n, q) for q in _prime_powers(101) for n in range(2, 20)
                     if q ** (n + 1) <= gf.MAX_FIELD_ORDER]


@pytest.mark.parametrize("n,q", SINGER_WITHIN_CAP)
def test_singer_exponents_match_the_table_loop(n, q):
    field = gf.make_field(q, n + 1)
    assert designs._zero_trace_exponents(field, q, n + 1) == table_singer_exponents(field, q, n)


def test_singer_cases_reach_the_cap():
    assert len(SINGER_WITHIN_CAP) == 98
    assert {q ** (n + 1) for n, q in SINGER_WITHIN_CAP} >= {2 ** 20, 4 ** 10, 32 ** 4}


# -- the construction identities raise typed errors, not assert -----------


def test_paley_lambda_mismatch_is_typed(monkeypatch):
    # the complement of the squares mod 7 is a certified (7, 4, 2) set
    monkeypatch.setattr(designs, "DifferenceSet", lambda v, elems: DifferenceSet(
        v, sorted(set(range(v)) - set(elems))))
    with pytest.raises(NotDifferenceSet, match="has lambda 2, expected 1"):
        paley_diffset(7)


def test_singer_parameter_mismatch_is_typed(monkeypatch):
    # the complement of the line of PG(2,3) is a certified (13, 9, 6) set
    exponents = designs._zero_trace_exponents
    monkeypatch.setattr(designs, "_zero_trace_exponents", lambda field, q, degree: sorted(
        set(range(13)) - set(exponents(field, q, degree))))
    with pytest.raises(NotDifferenceSet, match=r"\(9, 6\), expected \(4, 1\)"):
        singer_diffset(2, 3)
