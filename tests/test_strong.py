"""The strong-additivity verifier against an independent brute force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addesigns import additivity, geometry
from addesigns.additivity import (
    AbelianGroup,
    Embedding,
    Report,
    _injective,
    cyclic_embedding,
    pg_strong_embedding,
    subspace_embedding,
    symmetric_strong_embedding,
    verify_embedding,
    verify_strong,
)
from addesigns.designs import Design, develop, validate_difference_set
from addesigns.errors import GroupMismatch, TooLarge


def reference_verify_strong(design, emb):
    """Enumerate all C(v,k) subsets with partial sums carried down the
    recursion and compare the zero-sum ones with the block set."""
    base = verify_embedding(design, emb)
    k = design.k if design.validated else len(design.blocks[0])
    v = design.v
    m, t = emb.group.m, emb.group.t
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


DESIGNS = [
    geometry.pg_design(2, 2, 1),  # Fano plane
    develop(validate_difference_set(13, [0, 1, 3, 9])),  # (13,4,1) plane
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
    return design, Embedding(AbelianGroup(m, t), image, "random")


@settings(max_examples=150, deadline=None)
@given(design_and_embedding())
def test_verify_strong_matches_brute_force(case):
    design, emb = case
    expected = reference_verify_strong(design, emb)
    assert verify_strong(design, emb).to_dict() == expected.to_dict()


@pytest.mark.parametrize("design", DESIGNS[:2], ids=["fano", "plane3"])
def test_verify_strong_large_modulus_matches_brute_force(design):
    # x -> c*x embeds Z_o in Z_(c*o) and keeps every zero sum, so the
    # strong embedding stays strong with residues near 2^60 (uint64 path)
    emb = symmetric_strong_embedding(design)
    c = 2 ** 60 // emb.group.m
    big = Embedding(AbelianGroup(c * emb.group.m, emb.group.t),
                    [[c * x for x in row] for row in emb.image.tolist()], "scaled")
    report = verify_strong(design, big)
    assert report.strong == "pass" and report.zero_sum_subsets == design.v
    assert report.to_dict() == reference_verify_strong(design, big).to_dict()


@pytest.mark.parametrize("chunk", [1, 7, 40])
def test_verify_strong_chunking_matches_brute_force(chunk, monkeypatch):
    # the cyclic embedding of the plane of order 3 has zero-sum sets
    # beyond the blocks, and folding it into Z_3^1 makes rows repeat
    ds = validate_difference_set(13, [0, 1, 3, 9])
    design = develop(ds)
    emb = cyclic_embedding(ds, 3, poly=[1, 2, 0, 1])
    folded = Embedding(AbelianGroup(3, 1), [(sum(row),) for row in emb.image.tolist()], "folded")
    monkeypatch.setattr(additivity, "_STRONG_CHUNK", chunk)
    for e in (emb, folded):
        expected = reference_verify_strong(design, e)
        assert verify_strong(design, e).to_dict() == expected.to_dict()


def test_verify_strong_pg431_near_default_cap():
    # C(121,4) = 8 495 410 subsets, t = 121: several chunks per prefix
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
    emb = Embedding(AbelianGroup(2, 2), [(i % 2, i // 4) for i in range(7)], "random")
    design = Design(7, blocks)
    expected = reference_verify_strong(design, emb)
    assert verify_strong(design, emb).to_dict() == expected.to_dict()


def test_verify_strong_modulus_overflow_raises_too_large():
    design = geometry.pg_design(2, 2, 1)
    emb = Embedding(AbelianGroup(2 ** 62, 1), [(i,) for i in range(7)], "random")
    with pytest.raises(TooLarge):
        verify_strong(design, emb)


def test_verify_strong_pg251_symmetric_golden():
    design = geometry.pg_design(2, 5, 1)
    report = verify_strong(design, symmetric_strong_embedding(design))
    assert report.strong == "pass" and report.zero_sum_subsets == 31


def test_verify_strong_pg251_cyclic_subspace_golden():
    design = geometry.pg_design_cyclic(2, 5, 1)
    report = verify_strong(design, subspace_embedding(3, 5, design))
    assert report.additive
    assert report.strong == "fail" and report.zero_sum_subsets == 5952


def test_non_injective_construction_raises():
    emb = Embedding(AbelianGroup(2, 1), [(0,), (1,), (1,)], "test")
    with pytest.raises(GroupMismatch):
        _injective(emb)
