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
rows only, `solve_in_lattice` to back-substitution against a `row_hermite`
basis.  Their transforms have p-unit determinants, so spans, kernels and
invariant factors are exact over Z_(p), not over Z.  Membership and
coordinates are fraction-free: integer coordinates over one positive common
denominator, (nums, den).  `solve_in_lattice` answers over Z_(p), so den is
a p-unit; `lattice_coordinates` answers over Q in lowest terms, so its
coordinates are p-local exactly when p does not divide den.

Each routine records only the transforms it reads (`Track`):
`group_invariants` none, `row_kernel` the row transform P, `SubQuot` the
column transform Q with its inverse Qinv, and `lattice_coordinates` both.
`SubQuot(p, n, None, rels)` takes the generators to be all of Z^n; its
echelon basis is then the standard one and every vector is its own
coordinate vector, so it needs no `row_hermite` and no `solve_in_lattice`.
"""
from __future__ import annotations

from enum import Flag
from fractions import Fraction
from math import gcd, lcm

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


class Track(Flag):
    """The transforms a `SmithForm` records; falsy exactly when it records none."""
    NONE = 0
    P = 1    # the row transform P
    Q = 2    # the column transform Q and its inverse Qinv
    ALL = 3


class SmithForm:
    """Smith normal form D = P * M * Q over Z_(p); Qinv is the inverse of Q.

    The nonzero diagonal entries of D have non-decreasing p-valuations.  P and
    Qinv are integer matrices and P, Q have p-unit determinants; Q holds
    p-local Fractions only when some column step had to scale by a unit.

    `transforms` names what is recorded; the others stay None.  When a column
    step scales by a unit, the full path moves the denominator of each row i
    of Qinv into column i of Q and row i of P.  Past the rank, row i of Qinv
    is a unit vector over the product of the unit scalings applied to its
    column, so with P alone one integer per column tracks that product, and
    the rows of P past the rank (the kernel rows) come out as with both; the
    rows before the rank may then differ by a p-unit factor.
    """

    def __init__(self, rows: list[list[int]], ncols: int, *, p: int,
                 transforms: Track = Track.ALL):
        m = len(rows)
        n = ncols
        for row in rows:
            if len(row) != n:
                raise ValueError(f"row of length {len(row)} in a {n}-column matrix")
        self.m, self.n = m, n
        D = [row[:] for row in rows]
        P = identity_matrix(m) if Track.P in transforms else None
        Q = Qinv = None
        if Track.Q in transforms:
            Q, Qinv = identity_matrix(n), identity_matrix(n)
        row_mats = (D,) if P is None else (D, P)
        col_mats = (D,) if Q is None else (D, Q)
        # with P alone: the product of the unit scalings of each column
        scale = [1] * n if P is not None and Q is None else None
        scaled = False
        for t in range(min(m, n)):
            piv = _pivot(D, range(t, m), range(t, n), p)
            if piv is None:
                break
            pi, pj = piv
            if pi != t:
                for mat in row_mats:
                    mat[t], mat[pi] = mat[pi], mat[t]
            if pj != t:
                for mat in col_mats:
                    for r in mat:
                        r[t], r[pj] = r[pj], r[t]
                for vec in (Qinv, scale):
                    if vec is not None:
                        vec[t], vec[pj] = vec[pj], vec[t]
            a = D[t][t]
            for i in range(t + 1, m):
                if D[i][t]:
                    u, w = _step(a, D[i][t], p)
                    for mat in row_mats:
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
                    if scale is not None:
                        scale[j] *= u
                if Q is not None:
                    for r in Q:
                        r[j] = u * r[j] - w * r[t]
                    c = w if u == 1 else Fraction(w, u)
                    Qinv[t][:] = [x + c * y for x, y in zip(Qinv[t], Qinv[j])]
                    if u != 1:
                        Qinv[j][:] = [Fraction(y) / u for y in Qinv[j]]
        if scaled and Q is not None:
            # move the p-unit denominator of each row i of Qinv into column i
            # of Q and row i of P; D is diagonal, so P * M * Q is unchanged.
            # Every row is rewritten in ints: units can cancel to den 1
            for i, row in enumerate(Qinv):
                den = lcm(*(x.denominator for x in row))
                Qinv[i] = [int(x * den) for x in row]
                if den > 1:
                    for r in Q:
                        r[i] = Fraction(r[i], den)
                    if P is not None and i < m:
                        P[i] = [den * x for x in P[i]]
        elif scaled and scale is not None:
            # past the rank, row i of Qinv would be e_k / scale[i]: the same move
            for i in range(min(m, n)):
                if not D[i][i] and abs(scale[i]) > 1:
                    P[i] = [abs(scale[i]) * x for x in P[i]]
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
) -> tuple[list[int], int] | None:
    """Coordinates of v w.r.t. an echelon basis from `row_hermite`, over Z_(p).

    Returns (nums, den) with den * v == sum(nums[k] * basis[k]) and den a
    positive p-unit, or None when v is not in the Z_(p)-span of the basis rows.
    """
    rem = list(v)
    nums: list[int] = []
    den = 1
    for row, j in zip(basis, pivots):
        a, b = row[j], rem[j]
        # the coordinate b / (a * den) is p-local iff nu(a) <= nu(b)
        if b % a and b % p ** nu(p, a):
            return None
        u, w = _step(a, b, p)
        if u < 0:
            u, w = -u, -w
        if u != 1:
            den *= u
            nums = [u * x for x in nums]
        nums.append(w)
        if w:
            # rem[:j] is left unscaled: only whether it vanishes matters
            rem[j:] = [u * x - w * y for x, y in zip(rem[j:], row[j:])]
    if any(rem):
        return None
    return nums, den


def row_kernel(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Z_(p)-basis of { x : x * M == 0 } for the m-row matrix M, as integer rows."""
    m = len(rows)
    if m == 0:
        return []
    sf = SmithForm(rows, ncols, p=p, transforms=Track.P)
    diag = sf.diagonal()
    out = []
    for i in range(m):
        if i >= len(diag) or diag[i] == 0:
            out.append(sf.P[i][:])
    return out


def _column(Q: list[list], i: int) -> tuple[list[int], int]:
    """Column i of Q as (integer entries, positive common denominator)."""
    den = lcm(*[r[i].denominator for r in Q])
    return [r[i].numerator * (den // r[i].denominator) for r in Q], den


class SubQuot:
    """p-local subquotient (span(gens) + span(rels)) / span(rels) of Z^n.

    Summands are recorded with explicit generator vectors in Z^n so that
    arbitrary lattice vectors can be expressed in summand coordinates.
    gen_rows=None means the generators are all of Z^n; `basis` is then None,
    standing for the standard basis.
    """

    def __init__(self, p: int, n: int, gen_rows: list[list[int]] | None,
                 rel_rows: list[list[int]]):
        self.p = p
        self.n = n
        if gen_rows is None:
            # every relation row is its own coordinate vector (den 1)
            self.basis = self.pivots = None
            k = n
            rel_coords = rel_rows
        else:
            self.basis, self.pivots = row_hermite(gen_rows + rel_rows, n, p)
            k = len(self.basis)
            rel_coords = []
            for row in rel_rows:
                sol = solve_in_lattice(self.basis, self.pivots, row, p)
                if sol is None:
                    raise ArithmeticError("relation row escapes its own lattice")
                # a p-unit multiple of the row spans the same Z_(p)-line
                nums, den = sol
                g = gcd(den, *nums)
                rel_coords.append([x // g for x in nums])
        # quotient Z^k / span(rel_coords); Smith over the relation matrix
        sf = SmithForm(rel_coords, k, p=p, transforms=Track.Q) if k else None
        diag = sf.diagonal() if k else []
        self.summands: list[tuple[int, int]] = []  # (p-local order, coordinate index), order 0 = free
        for i in range(k):
            d = diag[i] if i < len(diag) else 0
            order = 0 if d == 0 else p ** nu(p, d)
            if order != 1:
                self.summands.append((order, i))
        # the relation lattice is diagonal in the coordinates z -> z*Q: summand
        # i reads column i of Q, and its generator is row i of Qinv
        self._cols = [_column(sf.Q, i) for _, i in self.summands]
        self._gens = [sf.Qinv[i] for _, i in self.summands]

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
        if self.basis is None:
            return self._gens[idx][:]
        out = [0] * self.n
        for c, row in zip(self._gens[idx], self.basis):
            if c:
                for t in range(self.n):
                    out[t] += c * row[t]
        return out

    def express(self, v: list[int]):
        """Summand coordinates of v, or None when v is not p-locally in the subgroup.

        Torsion coordinates come back as ints mod the order; free coordinates as
        p-local Fractions.
        """
        if self.basis is None:
            nums, den = v, 1
        else:
            sol = solve_in_lattice(self.basis, self.pivots, v, self.p)
            if sol is None:
                return None
            nums, den = sol
        out = []
        for (order, _), (col, cden) in zip(self.summands, self._cols):
            y = sum(q * c for q, c in zip(col, nums))
            out.append(y * pow(den * cden, -1, order) % order if order
                       else Fraction(y, den * cden))
        return out

    def is_zero(self, v: list[int]) -> bool:
        e = self.express(v)
        if e is None:
            return False
        return all(not x for x in e)


def group_invariants(rel_rows: list[list[int]], n: int, p: int) -> tuple[int, list[int]]:
    """(free rank, sorted p-local torsion orders) of Z^n / rowspan(rel_rows)."""
    sf = SmithForm([r for r in rel_rows if any(r)], n, p=p, transforms=Track.NONE)
    diag = [d for d in sf.diagonal() if d != 0]
    free = n - len(diag)
    torsion = sorted(q for q in (p ** nu(p, d) for d in diag) if q > 1)
    return free, torsion


def lattice_coordinates(
    rows: list[list[int]],
    ncols: int,
    v: list[int],
    p: int,
) -> tuple[list[int], int] | None:
    """Coordinates of v as a Q-combination of the given rows.

    Unlike solve_in_lattice this works with an arbitrary (possibly dependent)
    row list and returns one coordinate per input row: (nums, den) in lowest
    terms with den > 0 and den * v == sum(nums[k] * rows[k]).  The coordinates
    are p-local exactly when p does not divide den.  Returns None when v is
    not in the Q-span.
    """
    sf = SmithForm(rows, ncols, p=p, transforms=Track.ALL)
    diag = sf.diagonal()
    # x = (v * Q) * D^-1 * P, where coordinate i of v * Q is s / qden
    nums, den = [0] * len(rows), 1
    for i in range(ncols):
        col, qden = _column(sf.Q, i)
        s = sum(x * q for x, q in zip(v, col))
        if not s:
            continue
        if i >= len(diag) or not diag[i]:
            return None
        t = qden * diag[i]
        k = lcm(den, t) // den
        den *= k
        c = s * den // t
        nums = [k * x + c * y for x, y in zip(nums, sf.P[i])]
    g = gcd(den, *nums)
    return [x // g for x in nums], den // g
