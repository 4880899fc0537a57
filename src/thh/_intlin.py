"""Exact p-local integer linear algebra used by the graded-module and spectral-sequence layers.

Rows are vectors in Z^n of plain Python ints, but every question asked here is
p-local: invariant factors are read through their p-parts, and membership and
coordinate questions are answered over Z_(p), i.e. denominators prime to p are
allowed.  So one elimination step serves every routine, and it needs no gcd
(Dumas-Saunders-Villard, J. Symb. Comput. 32 (2001); Cohen, GTM 138, 2.4):

- pivot on the entry of least p-valuation; ties go to the smallest |entry|,
  then to the first entry in row-major order;
- clear an entry b against the pivot a with the exact quotient b // a when a
  divides b over Z, and otherwise with the p-unit-scaled combination
  u * b - w * a, where a = p^e * u and b = p^e * w.

`SmithForm` applies the step to rows and then to columns, `row_hermite` to
rows only.  Their transforms have p-unit determinants, so spans, kernels and
invariant factors are exact over Z_(p), not over Z.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .padic import nu


def _pivot(D: list[list[int]], rows, cols, p: int) -> tuple[int, int] | None:
    """Position of the pivot among D[i][j], i in rows, j in cols; None if all vanish."""
    best = at = None
    for i in rows:
        row = D[i]
        for j in cols:
            v = row[j]
            if v:
                if v % p:
                    if v == 1 or v == -1:
                        return i, j
                    key = (0, abs(v))
                else:
                    key = (nu(p, v), abs(v))
                if best is None or key < best:
                    best, at = key, (i, j)
    return at


def _step(a: int, b: int, p: int) -> tuple[int, int]:
    """(u, w) with u * b == w * a and u a p-unit, for a pivot a with nu(a) <= nu(b)."""
    if b % a == 0:
        return 1, b // a
    s = p ** nu(p, a)
    return a // s, b // s


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class SmithForm:
    """Smith normal form D = P * M * Q over Z_(p); Qinv is the inverse of Q.

    The nonzero diagonal entries of D have non-decreasing p-valuations.  P and
    Qinv are integer matrices and P, Q have p-unit determinants; Q holds
    p-local Fractions only when some column step had to scale by a unit.
    """

    def __init__(self, rows: list[list[int]], ncols: int, *, p: int,
                 transforms: bool = True):
        m = len(rows)
        n = ncols
        for row in rows:
            if len(row) != n:
                raise ValueError(f"row of length {len(row)} in a {n}-column matrix")
        self.m, self.n = m, n
        D = [row[:] for row in rows]
        if transforms:
            P = identity_matrix(m)
            Q, Qinv = identity_matrix(n), identity_matrix(n)
        else:
            P = Q = Qinv = None
        scaled = False
        for t in range(min(m, n)):
            piv = _pivot(D, range(t, m), range(t, n), p)
            if piv is None:
                break
            pi, pj = piv
            if pi != t:
                for mat in (D, P) if transforms else (D,):
                    mat[t], mat[pi] = mat[pi], mat[t]
            if pj != t:
                for mat in (D, Q) if transforms else (D,):
                    for r in mat:
                        r[t], r[pj] = r[pj], r[t]
                if transforms:
                    Qinv[t], Qinv[pj] = Qinv[pj], Qinv[t]
            a = D[t][t]
            for i in range(t + 1, m):
                if D[i][t]:
                    u, w = _step(a, D[i][t], p)
                    for mat in (D, P) if transforms else (D,):
                        mat[i][:] = [u * x - w * y for x, y in zip(mat[i], mat[t])]
            # column t of D is now zero off the pivot, so the column step
            # col_j <- u col_j - w col_t only clears D[t][j] and scales the
            # rest of column j by u; Qinv takes the inverse row step
            for j in range(t + 1, n):
                if not D[t][j]:
                    continue
                u, w = _step(a, D[t][j], p)
                D[t][j] = 0
                if u != 1:
                    scaled = True
                    for i in range(t + 1, m):
                        D[i][j] *= u
                if transforms:
                    for r in Q:
                        r[j] = u * r[j] - w * r[t]
                    c = w if u == 1 else Fraction(w, u)
                    Qinv[t][:] = [x + c * y for x, y in zip(Qinv[t], Qinv[j])]
                    if u != 1:
                        Qinv[j][:] = [Fraction(y) / u for y in Qinv[j]]
        if transforms and scaled:
            # move the p-unit denominator of each row i of Qinv into column i
            # of Q and row i of P; D is diagonal, so P * M * Q is unchanged
            for i, row in enumerate(Qinv):
                den = lcm(*(x.denominator for x in row))
                if den > 1:
                    Qinv[i] = [int(x * den) for x in row]
                    for r in Q:
                        r[i] = Fraction(r[i], den)
                    if i < m:
                        P[i] = [den * x for x in P[i]]
        self.D = D
        self.P, self.Q, self.Qinv = P, Q, Qinv

    def diagonal(self) -> list[int]:
        return [self.D[i][i] for i in range(min(self.m, self.n))]


def row_hermite(rows: list[list[int]], ncols: int,
                p: int) -> tuple[list[list[int]], list[int]]:
    """Echelon Z_(p)-basis of the row span, with pivots in increasing columns.

    Returns (basis_rows, pivot_columns); each basis row vanishes before its
    pivot column.
    """
    work = [row[:] for row in rows if any(row)]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for j in range(ncols):
        active = [r for r in work if r[j] != 0]
        if not active:
            continue
        lead = active[_pivot(active, range(len(active)), (j,), p)[0]]
        for r in active:
            if r is not lead:
                u, w = _step(lead[j], r[j], p)
                r[:] = [u * x - w * y for x, y in zip(r, lead)]
        basis.append(lead)
        pivots.append(j)
        work = [r for r in work if r is not lead and any(r[j + 1:])]
    return basis, pivots


def solve_in_lattice(
    basis: list[list[int]],
    pivots: list[int],
    v: list[int],
    p: int,
) -> list[Fraction] | None:
    """Coordinates of v w.r.t. an echelon basis from `row_hermite`, over Z_(p).

    Returns Fractions whose denominators are prime to p, or None when v is not
    in the Z_(p)-span of the basis rows.
    """
    rem = [Fraction(x) for x in v]
    coords: list[Fraction] = []
    for row, j in zip(basis, pivots):
        c = rem[j] / row[j]
        coords.append(c)
        if c:
            for t in range(j, len(rem)):
                rem[t] -= c * row[t]
    if any(rem):
        return None
    for c in coords:
        if c.denominator % p == 0:
            return None
    return coords


def row_kernel(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Z_(p)-basis of { x : x * M == 0 } for the m-row matrix M, as integer rows."""
    m = len(rows)
    if m == 0:
        return []
    sf = SmithForm(rows, ncols, p=p, transforms=True)
    diag = sf.diagonal()
    out = []
    for i in range(m):
        if i >= len(diag) or diag[i] == 0:
            out.append(sf.P[i][:])
    return out


def frac_mod(c: Fraction, order: int) -> int:
    """Value of a p-local fraction in Z/order (order a p-power)."""
    if order == 1:
        return 0
    return c.numerator * pow(c.denominator, -1, order) % order


class SubQuot:
    """p-local subquotient (span(gens) + span(rels)) / span(rels) of Z^n.

    Summands are recorded with explicit generator vectors in Z^n so that
    arbitrary lattice vectors can be expressed in summand coordinates.
    """

    def __init__(self, p: int, n: int, gen_rows: list[list[int]], rel_rows: list[list[int]]):
        self.p = p
        self.n = n
        lattice = [r[:] for r in gen_rows] + [r[:] for r in rel_rows]
        self.basis, self.pivots = row_hermite(lattice, n, p)
        k = len(self.basis)
        self.dim = k
        rel_coords = []
        for row in rel_rows:
            c = solve_in_lattice(self.basis, self.pivots, row, p)
            if c is None:
                raise ArithmeticError("relation row escapes its own lattice")
            # a p-unit multiple of the row spans the same Z_(p)-line
            den = lcm(*[x.denominator for x in c])
            rel_coords.append([int(x * den) for x in c])
        # quotient Z^k / span(rel_coords); Smith over the relation matrix
        self._sf = SmithForm(rel_coords, k, p=p, transforms=True) if k else None
        diag = self._sf.diagonal() if k else []
        self.summands: list[tuple[int, int]] = []  # (p-local order, coordinate index), order 0 = free
        for i in range(k):
            d = diag[i] if i < len(diag) else 0
            order = 0 if d == 0 else p ** nu(p, d)
            if order != 1:
                self.summands.append((order, i))

    @property
    def orders(self) -> list[int]:
        """p-local orders of the cyclic summands (0 means a free Z summand)."""
        return [o for o, _ in self.summands]

    def free_rank(self) -> int:
        return sum(1 for o, _ in self.summands if o == 0)

    def torsion(self) -> list[int]:
        return sorted(o for o, _ in self.summands if o != 0)

    def total_order_exponent(self) -> int:
        """Sum of p-exponents of the torsion (log_p of torsion subgroup order)."""
        return sum(nu(self.p, o) for o, _ in self.summands if o)

    def generator_vector(self, idx: int) -> list[int]:
        """Representative in Z^n of the idx-th summand generator."""
        _, i = self.summands[idx]
        # the relation lattice is diagonal in the coordinates z -> z*Q, so the
        # i-th summand generator is row i of Qinv, pushed back through the basis
        x = [self._sf.Qinv[i][j] for j in range(self.dim)]
        out = [0] * self.n
        for j, c in enumerate(x):
            if c:
                for t in range(self.n):
                    out[t] += c * self.basis[j][t]
        return out

    def express(self, v: list[int]):
        """Summand coordinates of v, or None when v is not p-locally in the subgroup.

        Torsion coordinates come back as ints mod the order; free coordinates as
        p-local Fractions.
        """
        c = solve_in_lattice(self.basis, self.pivots, v, self.p)
        if c is None:
            return None
        # summand coordinates are (c * Q)_i
        out = []
        for order, i in self.summands:
            y = Fraction(0)
            for j, cj in enumerate(c):
                q = self._sf.Q[j][i]
                if q and cj:
                    y += q * cj
            out.append(frac_mod(y, order) if order else y)
        return out

    def is_zero(self, v: list[int]) -> bool:
        e = self.express(v)
        if e is None:
            return False
        return all(not x for x in e)


def group_invariants(rel_rows: list[list[int]], n: int, p: int) -> tuple[int, list[int]]:
    """(free rank, sorted p-local torsion orders) of Z^n / rowspan(rel_rows)."""
    sf = SmithForm([r for r in rel_rows if any(r)], n, p=p, transforms=False)
    diag = [d for d in sf.diagonal() if d != 0]
    free = n - len(diag)
    torsion = sorted(q for q in (p ** nu(p, d) for d in diag) if q > 1)
    return free, torsion


def lattice_coordinates(
    rows: list[list[int]],
    ncols: int,
    v: list[int],
    p: int,
) -> list[Fraction] | None:
    """Coordinates of v as a Z_(p)-combination of the given rows.

    Unlike solve_in_lattice this works with an arbitrary (possibly dependent)
    row list and returns one coordinate per input row.  Returns None when v is
    not in the Z_(p)-span.
    """
    m = len(rows)
    if m == 0:
        return [] if not any(v) else None
    sf = SmithForm(rows, ncols, p=p, transforms=True)
    diag = sf.diagonal()
    vq = [sum(v[j] * sf.Q[j][i] for j in range(ncols)) for i in range(ncols)]
    w = [Fraction(0)] * m
    for i in range(ncols):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if vq[i] != 0:
                return None
        elif i < m:
            w[i] = Fraction(vq[i], d)
            if w[i].denominator % p == 0:
                return None
        elif vq[i] != 0:
            return None
    return [sum(w[i] * sf.P[i][j] for i in range(m)) for j in range(m)]
