import math

import pytest
from hypothesis import given, strategies as st

from thh.padic import (PrimeContext, TorsionWord, a_degree, all_words,
                       b_degree, binom_valuation, g_word_degree, lambda_degree,
                       lambda_monomial, mu_degree, nu, r_truncation, x_degree,
                       x_prime_degree)

PRIMES = [2, 3, 5]


def legendre_valuation(p, n):
    v = 0
    while n % p == 0 and n:
        n //= p
        v += 1
    return v


@given(st.sampled_from(PRIMES), st.integers(1, 10**6))
def test_nu_matches_direct_division(p, m):
    assert nu(p, m) == legendre_valuation(p, m)


@given(st.sampled_from(PRIMES), st.integers(0, 2048), st.integers(0, 2048))
def test_kummer_carries_equal_legendre(p, a, b):
    # carry count in base-p addition of a and b = valuation of C(a+b, a)
    expected = legendre_valuation(p, math.comb(a + b, a)) if a + b else 0
    assert binom_valuation(p, a, b) == expected


def test_truncation_recursion():
    for p in PRIMES:
        assert r_truncation(p, 1) == p
        assert r_truncation(p, 2) == p * p
        for n in range(3, 9):
            assert r_truncation(p, n) == p**n + r_truncation(p, n - 2)


def test_named_degrees():
    for p in PRIMES:
        assert lambda_degree(p, 1) == 2 * p - 1
        assert lambda_degree(p, 2) == 2 * p * p - 1
        assert mu_degree(p) == 2 * p * p
        for i in range(1, 6):
            assert a_degree(p, i) == 2 * p * p * i - 1
            assert b_degree(p, i) == 2 * p * p * i + 2 * (p - 1)
            assert b_degree(p, i) - a_degree(p, i) == 2 * p - 1
        for n in range(1, 4):
            for m in range(4):
                assert (x_prime_degree(p, n, m)
                        == x_degree(p, n, m) + lambda_degree(p, n + 1))


@given(st.sampled_from(PRIMES), st.integers(1, 4))
def test_lambda_monomial_has_lambda_degree(p, n):
    e1, e2, i = lambda_monomial(p, n)
    assert (e1 * lambda_degree(p, 1) + e2 * lambda_degree(p, 2)
            + i * mu_degree(p) == lambda_degree(p, n))
    assert e1 in (0, 1) and e2 in (0, 1)


def test_word_labels_are_distinct():
    for p in (2, 3):
        for n in range(4):
            words = all_words(p, n)
            assert len({w.label() for w in words}) == len(words)


def test_word_count_per_level():
    # digit strings of length exactly n with nonzero leading digit, plus the
    # empty word at every level
    for p in (2, 3):
        for n in range(5):
            words = all_words(p, n)
            assert len(words) == len(set(words))
            nonempty = [w for w in words if w.digits]
            assert all(len(w.digits) <= n for w in nonempty)


def test_g_word_degree_of_empty_word_is_zero():
    for p in (2, 3):
        for n in range(3):
            assert g_word_degree(p, n, TorsionWord((), p)) == 0


def test_prime_context_rejects_composites():
    with pytest.raises(ValueError):
        PrimeContext(4)
    with pytest.raises(ValueError):
        PrimeContext(1)
