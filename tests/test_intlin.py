from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from thh._intlin import (SmithForm, SubQuot, frac_mod, group_invariants,
                         row_hermite, row_kernel, solve_in_lattice)
from thh.padic import nu

PRIMES = (2, 3, 5)
# p-units other than +-1, so that the unit-scaled elimination branch runs
UNITS = {2: (1, 3, 5, 7), 3: (1, 2, 4, 5, 7), 5: (1, 2, 3, 4, 7)}


def entries(p):
    """Small ints, and signed p-unit multiples of p-powers, half of them zero."""
    scaled = st.builds(lambda s, u, k: s * u * p**k, st.sampled_from((1, -1)),
                       st.sampled_from(UNITS[p]), st.integers(0, 3))
    return st.one_of(st.just(0), st.integers(-9, 9), scaled)


def matrices(p, max_rows=4, max_cols=4):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(st.lists(entries(p), min_size=n, max_size=n),
                           min_size=1, max_size=max_rows))


def p_matrices(max_rows=4, max_cols=4):
    """(p, matrix) with p in PRIMES."""
    return st.sampled_from(PRIMES).flatmap(
        lambda p: st.tuples(st.just(p), matrices(p, max_rows, max_cols)))


def matmul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))]
            for row in a]


def det(mat):
    """Determinant by exact Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in mat]
    out = Fraction(1)
    for t in range(len(a)):
        piv = next((i for i in range(t, len(a)) if a[i][t]), None)
        if piv is None:
            return Fraction(0)
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            out = -out
        out *= a[t][t]
        for i in range(t + 1, len(a)):
            c = a[i][t] / a[t][t]
            a[i] = [x - c * y for x, y in zip(a[i], a[t])]
    return out


@settings(max_examples=80)
@given(p_matrices())
def test_smith_form_diagonalizes(case):
    p, rows = case
    m, n = len(rows), len(rows[0])
    sf = SmithForm(rows, n, p=p)
    # P * A * Q equals the recorded diagonal matrix D
    assert matmul(matmul(sf.P, rows), sf.Q) == sf.D
    assert matmul(sf.Q, sf.Qinv) == [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert sf.D[i][j] == 0
    # the p-adic divisibility chain
    vals = [nu(p, d) for d in sf.diagonal() if d]
    assert vals == sorted(vals)
    for mat in (sf.P, sf.Q):
        assert nu(p, det(mat)) == 0


def test_smith_form_p_parts_match_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    @settings(max_examples=80)
    @given(p_matrices())
    def check(case):
        p, rows = case
        sf = SmithForm(rows, len(rows[0]), p=p, transforms=False)
        ours = sorted(p ** nu(p, d) for d in sf.diagonal() if d)
        theirs = sorted(p ** nu(p, int(d)) for d in
                        normalforms.invariant_factors(Matrix(rows), domain=ZZ)
                        if d)
        assert ours == theirs

    check()


@settings(max_examples=60)
@given(p_matrices())
def test_row_hermite_spans_the_rows(case):
    p, rows = case
    n = len(rows[0])
    basis, pivots = row_hermite(rows, n, p)
    assert pivots == sorted(set(pivots))
    for row, j in zip(basis, pivots):
        assert row[j] and not any(row[:j])
    for r in rows:
        assert solve_in_lattice(basis, pivots, r, p) is not None


@settings(max_examples=60)
@given(p_matrices())
def test_row_kernel_annihilates(case):
    p, rows = case
    n = len(rows[0])
    ker = row_kernel(rows, n, p)
    # kernel of the transpose action: combinations of rows that vanish
    for comb in ker:
        for j in range(n):
            assert sum(c * rows[i][j] for i, c in enumerate(comb)) == 0
    # and it spans the rational kernel: its size is the row nullity
    rank = sum(1 for d in SmithForm(rows, n, p=p, transforms=False).diagonal() if d)
    assert len(ker) == len(rows) - rank


def test_group_invariants_known_examples():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3
    assert group_invariants([[2, 0], [0, 3]], 2, 2) == (0, [2])
    assert group_invariants([[2, 0], [0, 3]], 2, 3) == (0, [3])
    # Z^2 / <(2,2)> = Z + Z/2 at p=2
    assert group_invariants([[2, 2]], 2, 2) == (1, [2])
    # no relations: free
    assert group_invariants([], 3, 2) == (3, [])
    # the pivot 10 divides 18 over Z_(2) but not over Z: Z/2 + Z/4
    assert group_invariants([[12, 0], [18, 10]], 2, 2) == (0, [2, 4])


@settings(max_examples=40)
@given(p_matrices(3, 3))
def test_subquot_orders_match_group_invariants(case):
    p, rows = case
    n = len(rows[0])
    gens = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    sq = SubQuot(p, n, gens, rows)
    rank, torsion = group_invariants(rows, n, p)
    assert sq.free_rank() == rank
    assert sorted(sq.torsion()) == sorted(torsion)


@settings(max_examples=100)
@given(p_matrices(6, 3), st.integers(0, 6))
# the pivot 10 does not divide 18 over Z, so the column step scales by 5
@example((2, [[1, 0], [0, 1], [10, 18]]), 2)
def test_subquot_express_round_trip(case, k):
    p, rows = case
    sq = SubQuot(p, len(rows[0]), rows[:k], rows[k:])
    orders = sq.orders
    for i in range(len(orders)):
        vec = sq.generator_vector(i)
        assert all(isinstance(x, int) for x in vec)
        want = [int(i == j) % o if o else int(i == j) for j, o in enumerate(orders)]
        assert sq.express(vec) == want


def test_frac_mod_reduces_rationals():
    assert frac_mod(Fraction(7, 3), 4) == (7 * pow(3, -1, 4)) % 4
    assert frac_mod(Fraction(8, 1), 4) == 0
