"""Exact integer linear algebra used by the graded-module and spectral-sequence layers.

Everything here works over plain Python ints (rows are vectors in Z^n).  The
only slightly unusual piece is that group bookkeeping is p-local: invariant
factors are reduced to their p-parts, and membership / coordinate questions are
answered over Z_(p), i.e. denominators prime to p are allowed.
"""
from __future__ import annotations

from fractions import Fraction

from .padic import nu


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def p_part(d: int, p: int) -> int:
    """Largest power of p dividing d (for d != 0)."""
    d = abs(d)
    out = 1
    while d % p == 0:
        d //= p
        out *= p
    return out


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class SmithForm:
    """Smith normal form D = P * M * Q with P, Q unimodular; Qinv is the inverse of Q."""

    def __init__(self, rows: list[list[int]], ncols: int, transforms: bool = True):
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

        def row_combine(i, j, a, b, c, d):
            # (Ri, Rj) <- (a Ri + b Rj, c Ri + d Rj), with det ad - bc = +-1
            if a * d - b * c not in (1, -1):
                raise ArithmeticError("row operation is not unimodular")
            for mat in (D, P) if transforms else (D,):
                ri, rj = mat[i], mat[j]
                for t in range(len(ri)):
                    ri[t], rj[t] = a * ri[t] + b * rj[t], c * ri[t] + d * rj[t]

        def col_combine(i, j, a, b, c, d):
            # (Ci, Cj) <- (a Ci + b Cj, c Ci + d Cj), det ad - bc = +-1
            det = a * d - b * c
            if det not in (1, -1):
                raise ArithmeticError("column operation is not unimodular")
            for mat in (D, Q) if transforms else (D,):
                for r in mat:
                    r[i], r[j] = a * r[i] + b * r[j], c * r[i] + d * r[j]
            if transforms:
                # Qinv <- F^{-1} * Qinv: row op on Qinv
                ri, rj = Qinv[i], Qinv[j]
                for t in range(n):
                    ri[t], rj[t] = (d * ri[t] - c * rj[t]) // det, (-b * ri[t] + a * rj[t]) // det

        t = 0
        bound = min(m, n)
        while t < bound:
            # find a pivot of smallest absolute value in the trailing submatrix
            piv = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    v = D[i][j]
                    if v != 0 and (best is None or abs(v) < best):
                        best = abs(v)
                        piv = (i, j)
            if piv is None:
                break
            pi, pj = piv
            if pi != t:
                row_combine(t, pi, 0, 1, 1, 0)
            if pj != t:
                col_combine(t, pj, 0, 1, 1, 0)
            while True:
                # clear column t
                for i in range(t + 1, m):
                    a, b = D[t][t], D[i][t]
                    if b == 0:
                        continue
                    if b % a == 0:
                        row_combine(t, i, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        row_combine(t, i, x, y, -(b // g), a // g)
                # clear row t
                dirty = False
                for j in range(t + 1, n):
                    a, b = D[t][t], D[t][j]
                    if b == 0:
                        continue
                    if b % a == 0:
                        col_combine(t, j, 1, 0, -(b // a), 1)
                    else:
                        g, x, y = xgcd(a, b)
                        col_combine(t, j, x, y, -(b // g), a // g)
                        dirty = True
                if not dirty and all(D[i][t] == 0 for i in range(t + 1, m)):
                    # enforce divisibility of the remaining submatrix by the pivot
                    offender = None
                    for i in range(t + 1, m):
                        for j in range(t + 1, n):
                            if D[i][j] % D[t][t] != 0:
                                offender = i
                                break
                        if offender is not None:
                            break
                    if offender is None:
                        break
                    row_combine(t, offender, 1, 1, 0, 1)
            if D[t][t] < 0:
                for mat in (D, P) if transforms else (D,):
                    mat[t] = [-v for v in mat[t]]
            t += 1
        self.D = D
        self.P, self.Q, self.Qinv = P, Q, Qinv

    def diagonal(self) -> list[int]:
        return [self.D[i][i] for i in range(min(self.m, self.n))]


def row_hermite(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Triangular Z-basis of the row span.  Returns (basis_rows, pivot_columns)."""
    work = [row[:] for row in rows if any(row)]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for j in range(ncols):
        active = [r for r in work if r[j] != 0]
        if not active:
            continue
        lead = active[0]
        for r in active[1:]:
            a, b = lead[j], r[j]
            if b % a == 0:
                q = b // a
                for t in range(j, ncols):
                    r[t] -= q * lead[t]
            else:
                g, x, y = xgcd(a, b)
                u, v = -(b // g), a // g
                for t in range(j, ncols):
                    lead[t], r[t] = x * lead[t] + y * r[t], u * lead[t] + v * r[t]
        if lead[j] < 0:
            for t in range(j, ncols):
                lead[t] = -lead[t]
        basis.append(lead[:])
        pivots.append(j)
        work = [r for r in work if r is not lead and any(r[t] for t in range(j + 1, ncols))]
    return basis, pivots


def solve_in_lattice(
    basis: list[list[int]],
    pivots: list[int],
    v: list[int],
    p: int,
) -> list[Fraction] | None:
    """Coordinates of v w.r.t. a triangular basis, over Z_(p).

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


def row_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of { x in Z^m : x * M == 0 } for the m-row matrix M."""
    m = len(rows)
    if m == 0:
        return []
    sf = SmithForm(rows, ncols, transforms=True)
    diag = sf.diagonal()
    out = []
    for i in range(m):
        if i >= len(diag) or diag[i] == 0:
            out.append(sf.P[i][:])
    return out


def _mod_inverse(a: int, m: int) -> int:
    g, x, _ = xgcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {m}")
    return x % m


def frac_mod(c: Fraction, order: int) -> int:
    """Value of a p-local fraction in Z/order (order a p-power)."""
    if order == 1:
        return 0
    den = c.denominator % order
    return (c.numerator % order) * _mod_inverse(den, order) % order


class SubQuot:
    """p-local subquotient (span(gens) + span(rels)) / span(rels) of Z^n.

    Summands are recorded with explicit generator vectors in Z^n so that
    arbitrary lattice vectors can be expressed in summand coordinates.
    """

    def __init__(self, p: int, n: int, gen_rows: list[list[int]], rel_rows: list[list[int]]):
        self.p = p
        self.n = n
        lattice = [r[:] for r in gen_rows] + [r[:] for r in rel_rows]
        self.basis, self.pivots = row_hermite(lattice, n)
        k = len(self.basis)
        self.dim = k
        rel_coords = []
        for row in rel_rows:
            c = solve_in_lattice(self.basis, self.pivots, row, p)
            if c is None:
                raise ArithmeticError("relation row escapes its own lattice")
            # rows of the lattice have integer coordinates in the HNF basis
            rel_coords.append([int(x) for x in c])
        # quotient Z^k / span(rel_coords); Smith over the relation matrix
        self._sf = SmithForm(rel_coords, k, transforms=True) if k else None
        diag = self._sf.diagonal() if k else []
        self.summands: list[tuple[int, int]] = []  # (p-local order, coordinate index), order 0 = free
        for i in range(k):
            d = diag[i] if i < len(diag) else 0
            order = 0 if d == 0 else p_part(d, p)
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
    sf = SmithForm([r for r in rel_rows if any(r)], n, transforms=False)
    diag = [d for d in sf.diagonal() if d != 0]
    free = n - len(diag)
    torsion = sorted(p_part(d, p) for d in diag if p_part(d, p) > 1)
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
    sf = SmithForm(rows, ncols, transforms=True)
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
