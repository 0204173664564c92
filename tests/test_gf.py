import functools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod

from addesigns import chunks, gf
from addesigns.errors import FieldTooLarge, NotCoprime, NotPrime, NotPrimitivePolynomial


def test_make_field_gf27_explicit_poly():
    # x^3 + 2x^2 + 1
    f = gf.make_field(3, 3, [1, 2, 0, 1])
    assert f.q == 27
    assert f.prim_poly == (1, 2, 0, 1)
    assert f.describe() == "GF(3^3; 1,2,0,1)"


def test_make_field_gf81_explicit_poly():
    # x^4 + x + 2
    f = gf.make_field(3, 4, [1, 0, 0, 1, 2])
    assert f.q == 81


def test_make_field_gf2_default():
    f = gf.make_field(2, 1)
    assert f.q == 2
    assert f.prim_poly == (1, 0)


def test_make_field_rejects_nonprime():
    with pytest.raises(NotPrime):
        gf.make_field(6, 1)


def test_make_field_rejects_reducible():
    # x^2 + 1 is reducible over Z_2
    with pytest.raises(NotPrimitivePolynomial):
        gf.make_field(2, 2, [1, 0, 1])


def test_make_field_rejects_irreducible_nonprimitive():
    # x^2 + 1 is irreducible over Z_3 but its root has order 4, not 8
    with pytest.raises(NotPrimitivePolynomial):
        gf.make_field(3, 2, [1, 0, 1])


def test_make_field_rejects_huge():
    with pytest.raises(FieldTooLarge):
        gf.make_field(2, 25)


def test_default_poly_search_is_deterministic():
    a = gf.make_field(3, 3)
    b = gf.make_field(3, 3)
    assert a.prim_poly == b.prim_poly


def _coeffs(f, codes):
    """The coefficient rows of codes of f, highest degree first."""
    return gf.digits(codes, f.n, f.p).tolist()


def _brute_order(f, g):
    order, cur = 1, g
    while cur != 1:
        cur = f.mul_code(cur, g)
        order += 1
    return order


def test_element_display_matches_tuple_convention():
    # r^0 = 1 and r^2 = x^2 print highest degree first
    f = gf.make_field(3, 3, [1, 2, 0, 1])
    assert _coeffs(f, f._exp[[0, 2]]) == [[0, 0, 1], [1, 0, 0]]


def test_gf27_power_table_against_paper_values():
    # r^0, r^2, r^6, r^18 and r^-2, r^-6, r^-18
    f = gf.make_field(3, 3, [1, 2, 0, 1])
    assert _coeffs(f, f._exp[[0, 2, 6, 18, 24, 20, 8]]) == [
        [0, 0, 1], [1, 0, 0], [2, 2, 0], [0, 1, 1], [0, 2, 1], [2, 0, 2], [1, 1, 2]]


def test_arithmetic_mul_matches_exp():
    f = gf.make_field(3, 3, [1, 2, 0, 1])
    exp = f._exp.tolist()
    assert f.mul_code(exp[2], exp[4]) == exp[6]
    assert _coeffs(f, [exp[6]]) == [[2, 2, 0]]
    for i in range(26):
        assert f.mul_code(exp[i], 0) == f.mul_code(0, exp[i]) == 0
        for j in range(26):
            assert f.mul_code(exp[i], exp[j]) == exp[(i + j) % 26]


def test_add_neg_cancels():
    # (p-1)a is -a, so p copies of every code sum to zero
    for p, n in [(2, 3), (3, 3), (5, 2), (7, 1)]:
        f = gf.make_field(p, n)
        codes = np.repeat(np.arange(f.q)[:, None], p, axis=1)
        assert not f.sum_codes(codes).any()


def test_gf81_fourth_roots_sum_to_zero():
    f = gf.make_field(3, 4, [1, 0, 0, 1, 2])
    assert f.sum_codes(f._exp[::20]) == 0  # r^0, r^20, r^40, r^60
    assert f.sum_codes(f._exp[::2]) == 0  # the 40th roots of unity


def test_exp_log_roundtrip_and_homomorphism():
    # the product of r^i and r^j as polynomials mod prim_poly is r^(i+j)
    f = gf.make_field(3, 3, [1, 2, 0, 1])
    assert np.array_equal(f._log[f._exp], np.arange(26))
    assert len(set(f._exp.tolist())) == 26 and 0 not in f._exp
    low = [c % f.p for c in reversed(f.prim_poly[1:])]
    rows = gf.digits(f._exp, f.n, f.p)[:, ::-1].tolist()  # low degree first
    for i in range(0, 26, 5):
        for j in range(0, 26, 7):
            assert gf._mulmod(rows[i], rows[j], low, f.p) == rows[(i + j) % 26]


def test_subgroup_generator_gf27():
    f = gf.make_field(3, 3, [1, 2, 0, 1])
    g = f._exp.item(26 // 13)
    powers = [f._exp.item(2 * i) for i in range(13)]
    assert len(set(powers)) == 13
    assert _brute_order(f, g) == 13


def test_subgroup_generator_gf81_order_40():
    f = gf.make_field(3, 4, [1, 0, 0, 1, 2])
    assert _brute_order(f, f._exp.item(80 // 40)) == 40


def test_mult_order_paper_values():
    assert gf.mult_order(2, 465) == 20
    assert gf.mult_order(3, 910) == 12
    assert gf.mult_order(1, 17) == 1
    with pytest.raises(NotCoprime):
        gf.mult_order(2, 4)


def _power_sums(f):
    """The codes of sum(x^i for x in the field), 0^0 = 1, for i = 0..q-1:
    sum_codes over rows of the exp table."""
    q = f.q
    powers = f._exp[np.arange(1, q)[:, None] * np.arange(q - 1) % (q - 1)]
    return [f.sum_codes(np.ones(q, dtype=np.int64)).item()] + f.sum_codes(powers).tolist()


def test_power_sum_examples():
    f3 = gf.make_field(3, 1)
    assert _power_sums(f3)[2] == 2  # -1 in Z_3
    f5 = gf.make_field(5, 1)
    assert _power_sums(f5)[3] == 0
    f2 = gf.make_field(2, 1)
    assert _power_sums(f2)[0] == 0


@pytest.mark.parametrize(
    "p,n",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
     (3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3),
     (7, 1), (7, 2), (11, 1), (11, 2), (13, 1), (127, 1)],
)
def test_power_sum_case_split_all_small_fields(p, n):
    # every field with q <= 128: 0 below q-1, -1 (the code p-1) at q-1
    f = gf.make_field(p, n)
    assert _power_sums(f) == [0] * (f.q - 1) + [p - 1]


def test_power_sum_by_direct_elementwise_oracle():
    f = gf.make_field(3, 2)
    sums = _power_sums(f)
    for i in range(f.q):
        total = 0
        for x in range(f.q):
            term = 1
            for _ in range(i):
                term = f.mul_code(term, x)
            total = _old_add_code(f.p, total, term)
        assert total == sums[i]


# -- references: the field construction before the order test -------------
#
# The O(q) walk over the powers of x, the step-by-step exp table and the
# base-p digit loop that make_field, FieldSpec and add_code used before
# they moved to the order test, the doubling table and XOR/Zech addition.


def _old_xmul(p, n, poly, coeffs_low):
    """Multiply a low-first coefficient list by x and reduce mod poly."""
    top = coeffs_low[n - 1]
    out = [0] + list(coeffs_low[: n - 1])
    if top:
        for j in range(n):
            out[j] = (out[j] - top * poly[n - j]) % p
    return out


def _old_encode_low(p, coeffs_low):
    v = 0
    for c in reversed(coeffs_low):
        v = v * p + c
    return v


def _old_is_primitive(p, n, poly):
    q = p ** n
    if q == 2:
        return True
    cur = [0] * n
    cur[0] = 1
    seen_one_at = None
    for i in range(1, q):
        cur = _old_xmul(p, n, poly, cur)
        code = _old_encode_low(p, cur)
        if code == 0:
            return False
        if code == 1:
            seen_one_at = i
            break
    return seen_one_at == q - 1


def _old_exp_table(p, n, poly):
    exp = []
    cur = [0] * n
    cur[0] = 1
    for _ in range(p ** n - 1):
        exp.append(_old_encode_low(p, cur))
        cur = _old_xmul(p, n, poly, cur)
    return exp


def _old_add_code(p, a, b):
    s = 0
    mult = 1
    while a or b:
        s += ((a % p + b % p) % p) * mult
        a //= p
        b //= p
        mult *= p
    return s


def _sympy_is_primitive(p, n, poly):
    """Irreducible, x^(q-1) = 1 and x^((q-1)/r) != 1 for each prime
    r | q-1, by sympy's polynomial arithmetic over Z_p."""
    q = p ** n
    f = list(poly)
    if not gf_irreducible_p(f, p, ZZ) or gf_pow_mod([1, 0], q - 1, f, p, ZZ) != [1]:
        return False
    return all(
        gf_pow_mod([1, 0], (q - 1) // r, f, p, ZZ) != [1] for r in factorint(q - 1)
    )


ORDER_TEST_FIELDS = (
    [(2, n) for n in range(1, 11)]
    + [(3, n) for n in range(1, 7)]
    + [(5, n) for n in range(1, 5)]
    + [(7, n) for n in range(1, 4)]
    + [(11, 1), (11, 2), (13, 2), (257, 1)]
)


@pytest.mark.parametrize("p,n", ORDER_TEST_FIELDS)
def test_order_test_agrees_with_walk_on_every_candidate(p, n):
    factors = list(gf._prime_factors(p ** n - 1))
    for cand in gf._poly_candidates(p, n):
        assert gf._is_primitive(p, n, cand, factors) == _old_is_primitive(p, n, cand), cand


@pytest.mark.parametrize("p,n", [f for f in ORDER_TEST_FIELDS if f != (2, 1)])
def test_chosen_polynomial_is_first_primitive_by_sympy(p, n):
    # (2, 1) is excluded: GF(2) keeps the convention poly = x, checked below
    chosen = gf.make_field(p, n).prim_poly
    for cand in gf._poly_candidates(p, n):
        if cand == chosen:
            break
        assert not _sympy_is_primitive(p, n, cand), cand
    assert _sympy_is_primitive(p, n, chosen)


def test_gf2_accepts_any_monic_linear_polynomial():
    assert gf.make_field(2, 1, [1, 1]).prim_poly == (1, 1)
    assert np.array_equal(gf.make_field(2, 1)._exp, [1])


@pytest.mark.parametrize(
    "p,n",
    [(2, n) for n in range(1, 12)] + [(3, n) for n in range(1, 8)]
    + [(5, 4), (7, 3), (11, 3), (13, 2), (17, 2), (43, 2), (2179, 1)],
)
def test_exp_table_matches_stepwise_table(p, n):
    f = gf.make_field(p, n)
    exp = _old_exp_table(p, n, f.prim_poly)
    assert np.array_equal(f._exp, exp)
    assert np.array_equal(f._log[exp], np.arange(len(exp)))


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 2), (3, 1), (7, 1)])
def test_add_neg_sub_match_digitwise_reference(p, n):
    f = gf.make_field(p, n)
    for a in range(f.q):
        for b in range(f.q):
            assert f.add_code(a, b) == _old_add_code(p, a, b)


def test_table_checks_raise_typed_errors():
    # x^2 + 1 over Z_2 = (x + 1)^2: x^3 = x, not 1
    with pytest.raises(NotPrimitivePolynomial, match="does not have order 3"):
        gf.FieldSpec(2, 2, (1, 0, 1))
    # x^2 + 1 over Z_3: x has order 4, so x^8 = 1 but the powers repeat
    with pytest.raises(NotPrimitivePolynomial, match="repeat before order 8"):
        gf.FieldSpec(3, 2, (1, 0, 1))


@pytest.mark.parametrize(
    "p,n,poly",
    [
        (3, 12, (1, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 2, 2)),
        (2, 15, (1,) + (0,) * 13 + (1, 1)),
        (2, 16, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1)),
    ],
)
def test_golden_polynomials_of_large_fields(p, n, poly):
    # make_field(3, 12) searched 216 candidates in about two minutes by the
    # O(q) walk; the order test and the doubling table take well under 2 s.
    f = gf.make_field(p, n)
    assert f.prim_poly == poly
    assert f._exp[0] == 1
    assert _coeffs(f, f._exp[[1]]) == [[0] * (n - 2) + [1, 0]]


def test_make_field_logs_one_debug_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="addesigns"):
        gf.make_field(2, 4)
    (record,) = caplog.records
    assert record.name == "addesigns" and record.levelno == logging.DEBUG
    msg = record.getMessage()
    assert msg.startswith("make_field p=2 n=4 candidates=4 poly=1,0,0,1,1 search_s=")
    assert "table_s=" in msg


def test_make_field_writes_nothing_without_a_handler(capsys):
    gf.make_field(3, 5)
    assert capsys.readouterr() == ("", "")


# a row of the exp table of GF(2^8) takes 192 bytes, so 1000 covers five
@pytest.mark.parametrize("budget", [1, 1000])
def test_small_budget_gives_the_same_tables(monkeypatch, budget):
    fields = [gf.make_field(p, n) for p, n in [(2, 8), (3, 5), (5, 3), (7, 2)]]
    monkeypatch.setattr(chunks, "BUDGET", budget)
    for f in fields:
        g = gf.FieldSpec(f.p, f.n, f.prim_poly)
        assert np.array_equal(g._exp, f._exp) and np.array_equal(g._log, f._log)


# -- the array field ------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 1), (2, 5), (3, 3), (7, 2)])
def test_tables_are_read_only_int64_arrays(p, n):
    f = gf.make_field(p, n)
    for table in (f._exp, f._log):
        assert table.dtype == np.int64 and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


@functools.lru_cache(maxsize=None)
def _cached_field(p, n):
    return gf.make_field(p, n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 1), (2, 4), (3, 1), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]),
       st.integers(0, 4), st.integers(0, 7), st.data())
def test_sum_codes_matches_folded_digit_addition(pn, rows, cols, data):
    f = _cached_field(*pn)
    codes = data.draw(st.lists(st.integers(0, f.q - 1), min_size=rows * cols,
                               max_size=rows * cols))
    got = f.sum_codes(np.array(codes, dtype=np.int64).reshape(rows, cols))
    want = [functools.reduce(lambda a, b: _old_add_code(f.p, a, b), codes[i:i + cols], 0)
            for i in range(0, rows * cols, cols)] if cols else [0] * rows
    assert got.dtype == np.int64 and got.tolist() == want


def test_scalar_results_are_python_ints():
    f = gf.make_field(3, 3)
    a, b = f._exp.item(5), f._exp.item(11)
    assert all(type(r) is int for r in [f.add_code(a, b), f.mul_code(a, b)])


# -- trial division against sympy ------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(-5, 10 ** 5 - 1))
def test_trial_division_matches_sympy(m):
    assert gf.is_prime(m) == isprime(m)
    if m < 1:
        return
    factors = factorint(m)
    assert list(gf._prime_factors(m)) == sorted(factors)
    if len(factors) == 1:
        assert gf.prime_power(m) == next(iter(factors.items()))
    else:
        with pytest.raises(NotPrime, match="%d is not a prime power" % m):
            gf.prime_power(m)


def test_poly_candidates_run_low_degree_first():
    # candidate v has the base-p digits of v as its coefficients of x^0, x^1, ...
    for p, n in [(2, 3), (3, 2), (5, 1)]:
        cands = list(gf._poly_candidates(p, n))
        assert len(cands) == p ** n
        for v, cand in enumerate(cands):
            assert cand[0] == 1
            assert sum(c * p ** j for j, c in enumerate(reversed(cand[1:]))) == v


def test_oversized_fields_are_refused_before_any_arithmetic():
    # 2^61 - 1 is prime; trial division of it would take minutes
    with pytest.raises(FieldTooLarge):
        gf.make_field(2 ** 61 - 1, 1)
    with pytest.raises(FieldTooLarge):
        gf.make_field(2, 10 ** 12)  # p^n is never formed
    with pytest.raises(NotPrime):
        gf.make_field(6, 1)
