"""The strong-additivity verifier against two independent oracles: the
C(v,k) recursion and the (k-1)-subset lookup it replaced."""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addesigns import additivity, chunks, geometry
from addesigns.additivity import (
    Embedding,
    Report,
    _injective,
    _reduce,
    _row_keys,
    _strong_split,
    _zero_sum_sets,
    cyclic_embedding,
    pg_strong_embedding,
    subspace_embedding,
    symmetric_strong_embedding,
    verify_embedding,
    verify_strong,
)
from addesigns.designs import Design, DifferenceSet, develop
from addesigns.errors import GroupMismatch, TooLarge


def reference_verify_strong(design, emb):
    """Enumerate all C(v,k) subsets with partial sums carried down the
    recursion and compare the zero-sum ones with the block set."""
    base = verify_embedding(design, emb)
    k = design.k if design.validated else len(design.blocks[0])
    v = design.v
    m, t = emb.m, emb.t
    image = emb.image.tolist()
    zero = (0,) * t
    found = []

    def extend(start, chosen, partial):
        depth = len(chosen)
        if depth == k:
            if partial == zero:
                found.append(tuple(chosen))
            return
        for i in range(start, v - (k - depth) + 1):
            chosen.append(i)
            extend(i + 1, chosen, tuple((a + b) % m for a, b in zip(partial, image[i])))
            chosen.pop()

    extend(0, [], zero)
    zero_sets = {frozenset(s) for s in found}
    return Report(
        injective=base.injective,
        additive=base.additive,
        strong="pass" if zero_sets == {frozenset(b) for b in design.blocks.tolist()} else "fail",
        zero_sum_subsets=len(found),
        blocks=base.blocks,
        failures=base.failures,
        label=base.label,
    )


def reference_zero_sum_subsets(image, m, k):
    """Yield each zero-sum k-subset of the rows of image as a sorted tuple.

    A k-subset S + {x} with max(S) < x is zero-sum iff image[x] = -sum(S),
    so only the (k-1)-subsets S are enumerated, with their negated sums
    carried down, and the completing points x are looked up in the image
    rows sorted as byte strings, which keeps every point of a repeated
    row.  The leading points of S are chosen in Python; its last (up to)
    two come from a lexicographic table handled 10^5 elements at a time
    in numpy.
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
    step = max(1, 10 ** 5 // t)

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


def lookup_verify_strong(design, emb):
    """The strong check by (k-1)-subset lookup, with no cap."""
    base = verify_embedding(design, emb)
    blocks = set(map(tuple, design.blocks.tolist()))
    found = list(reference_zero_sum_subsets(emb.image, emb.m, design.blocks.shape[1]))
    base.strong = "pass" if set(found) == blocks and len(found) == len(blocks) else "fail"
    base.zero_sum_subsets = len(found)
    return base


DESIGNS = [
    geometry.pg_design(2, 2, 1),  # Fano plane
    develop(DifferenceSet(13, [0, 1, 3, 9])),  # (13,4,1) plane
    geometry.pg_design(3, 2, 1),
    geometry.pg_design(3, 2, 2),
    geometry.ag_design(2, 3, 1),
]


@st.composite
def design_and_embedding(draw):
    design = draw(st.sampled_from(DESIGNS))
    m = draw(st.integers(2, 6))
    t = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(0, m - 1)] * t)
    image = draw(st.lists(row, min_size=design.v, max_size=design.v))
    return design, Embedding(m, image, "random")


@settings(max_examples=150, deadline=None)
@given(design_and_embedding())
def test_verify_strong_matches_brute_force(case):
    design, emb = case
    expected = reference_verify_strong(design, emb).to_dict()
    assert lookup_verify_strong(design, emb).to_dict() == expected
    assert verify_strong(design, emb).to_dict() == expected


@pytest.mark.parametrize("design", DESIGNS[:2], ids=["fano", "plane3"])
def test_verify_strong_large_modulus_matches_brute_force(design):
    # x -> c*x embeds Z_o in Z_(c*o) and keeps every zero sum, so the
    # strong embedding stays strong with residues near 2^60 (uint64 path)
    emb = symmetric_strong_embedding(design)
    c = 2 ** 60 // emb.m
    big = Embedding(c * emb.m, [[c * x for x in row] for row in emb.image.tolist()], "scaled")
    report = verify_strong(design, big)
    assert report.strong == "pass" and report.zero_sum_subsets == design.v
    assert report.to_dict() == reference_verify_strong(design, big).to_dict()


@pytest.mark.parametrize("chunk", [1, 7, 40])
def test_verify_strong_chunking_matches_brute_force(chunk, monkeypatch):
    # the cyclic embedding of the plane of order 3 has zero-sum sets
    # beyond the blocks, and folding it into Z_3^1 makes rows repeat
    ds = DifferenceSet(13, [0, 1, 3, 9])
    design = develop(ds)
    emb = cyclic_embedding(ds, 3, poly=[1, 2, 0, 1])
    folded = Embedding(3, [(sum(row),) for row in emb.image.tolist()], "folded")
    monkeypatch.setattr(chunks, "BUDGET", chunk)
    for e in (emb, folded):
        expected = reference_verify_strong(design, e)
        assert verify_strong(design, e).to_dict() == expected.to_dict()


def test_verify_strong_pg431_near_default_cap():
    # v = t = 121 and 3^121 > 2^64: keys project to 40 coordinates
    design = geometry.pg_design(4, 3, 1)
    report = verify_strong(design, pg_strong_embedding(4, 3, 1))
    assert report.strong == "pass" and report.zero_sum_subsets == 1210


@pytest.mark.parametrize("blocks", [
    [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6)],
    [(0, 6), (1, 5), (2, 3)],
    [(3,), (4,)],
    [()],
], ids=["k3", "k2", "k1", "k0"])
def test_verify_strong_unvalidated_design_matches_brute_force(blocks):
    emb = Embedding(2, [(i % 2, i // 4) for i in range(7)], "random")
    design = Design(7, blocks)
    expected = reference_verify_strong(design, emb)
    assert verify_strong(design, emb).to_dict() == expected.to_dict()


# (strong, zero_sum_subsets) as the set-of-tuples comparison gave them:
# found sets are compared with the distinct blocks
@pytest.mark.parametrize("change, strong", [
    (lambda b: b + [b[3]], "pass"),  # a line twice: 7 distinct blocks, 7 found
    (lambda b: b + b, "pass"),
    (lambda b: b[1:] + [b[3]], "fail"),  # the missing line is found: a stray set
    (lambda b: b + [[0, 1, 3], [0, 1, 3]], "fail"),  # 8 distinct blocks, 7 found
], ids=["one-twice", "all-twice", "missing", "non-zero-sum-twice"])
def test_verify_strong_with_repeated_blocks(change, strong):
    fano = geometry.pg_design(2, 2, 1)
    emb = symmetric_strong_embedding(fano)
    design = Design(7, change(fano.blocks.tolist()))
    report = verify_strong(design, emb)
    assert (report.strong, report.zero_sum_subsets) == (strong, 7)
    assert report.to_dict() == reference_verify_strong(design, emb).to_dict()


def test_verify_strong_without_blocks_fails():
    # the empty 0-subset is zero-sum and is no block
    emb = Embedding(2, [(i % 2, i // 4) for i in range(7)], "random")
    report = verify_strong(Design(7, []), emb)
    assert (report.strong, report.zero_sum_subsets, report.blocks) == ("fail", 1, 0)


@pytest.mark.parametrize("t", [1, 2], ids=["packed", "projected"])
def test_verify_strong_modulus_2_62_matches_brute_force(t):
    # residues near m = 2^62: the kernel reduces after every addition, so
    # k m > 2^63 needs no refusal; with t = 2 the keys are one projected
    # coordinate, computed over Python integers
    m = 2 ** 62
    values = [1, 2, 3, m - 3, m - 4, m - 5, m - 1]
    image = [(x,) + (m - x,) * (t - 1) for x in values]
    design = geometry.pg_design(2, 2, 1)
    emb = Embedding(m, image, "random")
    expected = reference_verify_strong(design, emb)
    assert expected.zero_sum_subsets == 3  # {1, 2, -3}, {1, 3, -4}, {2, 3, -5}
    assert verify_strong(design, emb).to_dict() == expected.to_dict()


def test_verify_strong_pg251_symmetric_golden():
    design = geometry.pg_design(2, 5, 1)
    report = verify_strong(design, symmetric_strong_embedding(design))
    assert report.strong == "pass" and report.zero_sum_subsets == 31


def test_verify_strong_pg251_cyclic_subspace_golden():
    design = geometry.pg_design_cyclic(2, 5, 1)
    report = verify_strong(design, subspace_embedding(5, design))
    assert report.additive
    assert report.strong == "fail" and report.zero_sum_subsets == 5952


def test_non_injective_construction_raises():
    emb = Embedding(2, [(0,), (1,), (1,)], "test")
    with pytest.raises(GroupMismatch):
        _injective(emb)


def _zero_sum_sets_by_split(design, emb):
    k = design.blocks.shape[1]
    for a in range(k // 2 + 1):
        sets = [tuple(row) for chunk in _zero_sum_sets(emb.image, emb.m, k, a, {})
                for row in chunk.tolist()]
        yield a, sets


@settings(max_examples=40, deadline=None)
@given(design_and_embedding())
def test_every_split_finds_the_zero_sum_sets_once(case):
    design, emb = case
    expected = sorted(reference_zero_sum_subsets(emb.image, emb.m, design.k))
    for a, sets in _zero_sum_sets_by_split(design, emb):
        assert sorted(sets) == expected, a


def _strong_log(caplog):
    (record,) = [r for r in caplog.records if r.getMessage().startswith("verify_strong")]
    assert record.name == "addesigns" and record.levelno == logging.DEBUG
    return {key: float(value) for key, value in re.findall(r"(\w+)=([\d.]+)", record.getMessage())}


@pytest.mark.parametrize("case", ["fano", "plane3"])
def test_forced_key_collisions_are_caught_by_the_exact_check(case, monkeypatch, caplog):
    # one projected coordinate: almost every pair of keys collides
    if case == "fano":
        design = DESIGNS[0]
        emb = symmetric_strong_embedding(design)
    else:
        ds = DifferenceSet(13, [0, 1, 3, 9])
        design = develop(ds)
        emb = cyclic_embedding(ds, 3, poly=[1, 2, 0, 1])
    expected = reference_verify_strong(design, emb).to_dict()
    monkeypatch.setattr(additivity, "_key_coordinates", lambda m, t: 1)
    with caplog.at_level(logging.DEBUG, logger="addesigns"):
        report = verify_strong(design, emb)
    assert report.to_dict() == expected
    stats = _strong_log(caplog)
    assert stats["false_positives"] > 0
    assert stats["zero_sum"] == expected["zero_sum_subsets"]


def test_verify_strong_logs_one_debug_line(caplog):
    design = geometry.pg_design(3, 3, 1)
    emb = pg_strong_embedding(3, 3, 1)  # outside: its make_field logs a line of its own
    with caplog.at_level(logging.DEBUG, logger="addesigns"):
        report = verify_strong(design, emb)
    msg = [r.getMessage() for r in caplog.records]
    assert len(msg) == 1 and msg[0].startswith("verify_strong v=40 k=4 split=2 estimate=1406 ")
    stats = _strong_log(caplog)
    assert stats["kept"] == stats["streamed"] == math.comb(38, 2)
    assert stats["false_positives"] == 0  # 3^40 < 2^64: the keys are the residues, not projected
    assert stats["equal_key_pairs"] >= stats["zero_sum"] == report.zero_sum_subsets == 130
    assert stats["seconds"] >= 0


def test_verify_strong_of_a_projected_group_matches_the_reference(caplog):
    # 5^28 > 2^64: the keys of Z_5^31 are projected to s = 27 coordinates
    design = geometry.pg_design(2, 5, 1)
    emb = symmetric_strong_embedding(design)
    assert (emb.m, emb.t) == (5, 31) and additivity._key_coordinates(5, 31) == 27
    with caplog.at_level(logging.DEBUG, logger="addesigns"):
        report = verify_strong(design, emb)
    assert _strong_log(caplog)["false_positives"] == 0
    assert report.to_dict() == reference_verify_strong(design, emb).to_dict()


def test_verify_strong_writes_nothing_without_a_handler(capsys):
    design = geometry.pg_design(2, 2, 1)
    verify_strong(design, symmetric_strong_embedding(design))
    assert capsys.readouterr() == ("", "")


def test_cap_bounds_the_estimated_work():
    design = geometry.pg_design(2, 2, 1)
    emb = symmetric_strong_embedding(design)
    work, a = _strong_split(7, 3, 2, 7)
    assert (work, a) == (5 + 15, 1)  # C(5,1) kept, C(6,2) streamed, 75 / 2^7 pairs
    assert verify_strong(design, emb, cap=work).strong == "pass"
    assert verify_strong(design, emb, cap=work - 1).strong == "skipped"


def test_split_keeps_at_most_strong_keep_subsets(monkeypatch):
    # with room for one kept subset only the split a = 0 remains
    design = develop(DifferenceSet(13, [0, 1, 3, 9]))
    emb = symmetric_strong_embedding(design)
    monkeypatch.setattr(additivity, "_STRONG_KEEP", 1)
    assert _strong_split(13, 4, emb.m, emb.t)[1] == 0
    assert verify_strong(design, emb).to_dict() == reference_verify_strong(design, emb).to_dict()


def test_work_beyond_64_bits_is_too_large():
    design = Design(200, [list(range(100))])
    emb = Embedding(2, [(i % 2,) for i in range(200)], "random")
    with pytest.raises(TooLarge):
        verify_strong(design, emb, cap=10 ** 80)
