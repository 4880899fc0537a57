"""Exact p-local integer linear algebra used by the graded-module and spectral-sequence layers.

Rows are vectors in Z^n of plain Python ints, but every question asked here is
p-local: invariant factors are read through their p-parts, and membership and
coordinate questions are answered over Z_(p), i.e. denominators prime to p are
allowed.  So one elimination step serves every routine, and it needs no gcd
(Dumas-Saunders-Villard, J. Symb. Comput. 32 (2001); Cohen, GTM 138, 2.4):

- pivot on the entry of least p-valuation; ties go to the smallest |entry|,
  then to the first entry in row-major order of the current column order;
- clear an entry b against the pivot a with the exact quotient b // a when a
  divides b over Z, and otherwise with the p-unit-scaled combination
  u * b - w * a, where a = p^e * u and b = p^e * w.

Every matrix passed in is a list of rows, and each row is a list of
(column, value) pairs with nonzero values, in any column order; an empty row
is an all-zero row and keeps its place.  Pairs rather than {column: value}
dicts, so that a tracer counting the truthy entries of each row counts the
nonzeros exactly, as it did for dense rows.  `sparse_rows` turns dense rows
into this format.  Vectors stay dense: the arguments of `solve_in_lattice`,
`SubQuot.express` and `SmithForm.coordinates`, and the results of
`generator_vector` and `kernel`.

The elimination stores each row as a {column: value} dict of its nonzero
entries, and a column swap moves no entries: it exchanges the positions of
two column ids, which is all the tie-break reads.  `SmithForm` also keeps,
for each column id, the set of rows that hold it, so a step visits only
those rows.  Most pivots are +-1, which the rule takes from the first row
holding one, so `SmithForm` keeps a min-heap of the positions of rows that
may hold a +-1, and scans the rows with `_pivot`, the one statement of the
rule, only when none does.  It logs each row step and each column step,
and its accessors replay the logs from a unit vector, by position (see
`SmithForm`): `diagonal()` a list of ints, `p_row(i)` and `qinv_row(i)`
{column: int} dicts, and `q_column(i)` a ({row: int}, den) pair with
den > 0 in lowest terms.
`row_hermite` hands out its basis as {column: value} dicts, which
`solve_in_lattice` reads.

`SmithForm` applies the step to rows and then to columns, `row_hermite` to
rows only, `solve_in_lattice` to back-substitution against a `row_hermite`
basis.  Their transforms have p-unit determinants, so spans, kernels and
invariant factors are exact over Z_(p), not over Z.  Every fraction here is
a pair of ints.  Membership and coordinates are fraction-free: integer
coordinates over one positive common denominator, (nums, den).  `solve_in_lattice` answers over Z_(p), so den is a p-unit;
`lattice_coordinates` answers over Q in lowest terms, so its coordinates
are p-local exactly when p does not divide den.  `SubQuot.express` answers
in summand coordinates as (ints, unit), over the least p-unit that clears
the free coordinates' denominators; `unit_scaled` puts coordinates given as
fractions in that form, for `express` and for the sums of `graded`'s v-step.

Replay makes each routine pay only for what it reads: `group_invariants`
for no transform, `SubQuot` for its summands' columns of Q and rows of Qinv, and
`kernel` for the rows of P past the rank.  A caller with several questions
about one matrix keeps the form.
`SubQuot(p, n, None, rels)` takes the generators to be all of Z^n; its
echelon basis is then the standard one and every vector is its own
coordinate vector, so it needs no `row_hermite` and no `solve_in_lattice`.

The intern.  The small matrices of `graded`'s v-step and of the groups a
map induces repeat across residues, maps and presentations, so
`shared_subquot` and `row_kernel` keep every answer for the life of the
process in one dict, keyed exactly by (p, n, generator rows, relation rows)
as tuples (`row_kernel` by (p, n, rows)): each distinct matrix is reduced
once.  A shared `SubQuot` is never mutated, and `row_kernel` hands out fresh
lists.  Callers whose matrices rarely repeat build their `SubQuot`s
themselves and cache them by a cheaper key (`graded.subquot_at` by slice
shape; `ss` stores one with each page).
"""
from __future__ import annotations

from heapq import heappop, heappush
from math import gcd, lcm

from .padic import nu


def _step(a: int, b: int, p: int) -> tuple[int, int]:
    """(u, w) with u * b == w * a and u a p-unit, for a pivot a with nu(a) <= nu(b)."""
    if b % a == 0:
        return 1, b // a
    s = p ** nu(p, a)
    return a // s, b // s


def sparse_rows(rows: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Dense rows as (column, value) rows; an all-zero row becomes an empty row."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def dense_row(row: list[tuple[int, int]], n: int) -> list[int]:
    """A (column, value) row as a dense vector of length n."""
    out = [0] * n
    for j, x in row:
        out[j] = x
    return out


def _scale(row: dict, u: int) -> None:
    for j in row:
        row[j] *= u


def _combine(row: dict, u: int, w: int, other: dict) -> None:
    """row <- u * row - w * other on sparse rows, dropping the entries that vanish."""
    if u != 1:
        _scale(row, u)
    for j, y in other.items():
        x = row.get(j, 0) - w * y
        if x:
            row[j] = x
        else:
            row.pop(j, None)


def _replay(steps: list[tuple[int, int, int, int]], y: dict[int, int]) -> dict[int, int]:
    """y run back through the steps (t, s, u, w), last step first: y_s <- y_s
    - w * y_t, then y_t <- u * y_t.  A row of P or a column of Q; mutates y."""
    for t, s, u, w in reversed(steps):
        yt = y.get(t)
        if yt:
            x = y.get(s, 0) - w * yt
            if x:
                y[s] = x
            else:
                del y[s]
            if u != 1:
                y[t] = u * yt
    return y


class SmithForm:
    """Smith normal form D = P * M * Q over Z_(p); Qinv is the inverse of Q.

    The nonzero diagonal entries of D have non-decreasing p-valuations.  P and
    Qinv are integer matrices and P, Q have p-unit determinants; a column
    of Q has a p-unit denominator other than 1 only when some column step
    had to scale by a unit.

    `rows` are (column, value) rows; a column id outside range(ncols)
    or a zero value raises ValueError.  The elimination runs on dict copies,
    keyed by the row each started as, and keeps for each column id the set
    of rows holding it: fill-in adds a row to a column's set and
    cancellation removes it.  Under the pivot rule a +-1 beats every other
    entry, so while some row holds one the pivot is the first such row by
    position, at its +-1 of least column position.  A min-heap of positions
    finds it: it starts with the rows that hold a +-1, takes the position of
    each row that fill-in gives a new one, and is checked as it is popped,
    since the row there may have been pivoted or lost its +-1.  A row swap
    needs no entry, since the row it moves out of the pivot's place holds
    no +-1.  Only when no row holds a +-1 does `_pivot` scan the rows not
    yet pivoted, in position order.  Columns are not moved: a column swap
    only exchanges the positions of two column ids, and the pivot tie-break
    reads those positions.

    The transforms are two logs of steps on starting rows and column ids,
    in the order taken: row steps (r, s, u, w), row r <- u * row r - w *
    row s, and column steps (j, c, u, w), column j <- u * column j - w *
    column c.  The accessors read by position and replay a log from a unit
    vector, last step first:
    - `qinv_row(i)`: x_j <- (x_j + w * x_c) / u over one p-unit
      denominator in lowest terms; the row and its denominator are kept;
    - `q_column(i)`: y_c <- y_c - w * y_j, then y_j <- u * y_j, divided
      by that denominator;
    - `p_row(i)`: y_s <- y_s - w * y_r, then y_r <- u * y_r, times that
      denominator when i < n.
    So Qinv is left in ints, and P * M * Q is still D, since D is diagonal.
    `coordinates` runs v forward through the column steps and back through
    the row steps, where those denominators cancel.
    """

    def __init__(self, rows: list[list[tuple[int, int]]], ncols: int, *, p: int):
        m = len(rows)
        n = ncols
        self.m, self.n = m, n
        R = []          # the rows by the row each started as
        holders: dict[int, set[int]] = {}   # the rows holding each column id
        # positions whose row may hold a +-1, as a min-heap: rows are at
        # their starting positions, and ascending positions form a heap
        ones = []
        for r, pairs in enumerate(rows):
            row = dict(pairs)
            R.append(row)
            for j in row:
                if j in holders:
                    holders[j].add(r)
                else:
                    holders[j] = {r}
            values = row.values()
            if 0 in values:
                raise ValueError("a (column, value) row holds a zero value")
            if 1 in values or -1 in values:
                ones.append(r)
        if holders and (min(holders) < 0 or max(holders) >= n):
            raise ValueError(f"column id outside range({n})")
        rid = list(range(m))   # the starting row that sits at each position
        where = rid[:]         # the position of each row
        col = list(range(n))   # the column id at each position
        pos = col[:]           # the position of each column id
        rsteps: list[tuple[int, int, int, int]] = []   # (r, s, u, w)
        csteps: list[tuple[int, int, int, int]] = []   # (j, c, u, w)

        for t in range(min(m, n)):
            # the first row at or after t holding a +-1, at its +-1 of least
            # column position; stale entries are dropped as they come up
            c = None
            while ones:
                s = heappop(ones)
                if s < t:
                    continue
                rt = rid[s]
                for j, x in R[rt].items():
                    if (x == 1 or x == -1) and (c is None or pos[j] < pos[c]):
                        c = j
                if c is not None:
                    break
            else:
                # no row holds a +-1: the full rule over the rest
                order = [r for r in rid[t:] if R[r]]
                piv = _pivot(R, order, pos, p)
                if piv is None:
                    break
                k, c = piv
                rt = order[k]
            pi = where[rt]
            if pi != t:
                # the row at t holds no +-1, or it would be the pivot, so
                # its new position needs no heap entry
                r0 = rid[t]
                rid[t], rid[pi] = rt, r0
                where[rt], where[r0] = t, pi
            k = pos[c]
            if k != t:
                ct = col[t]
                col[t], col[k] = c, ct
                pos[c], pos[ct] = t, k
            top = R[rt]
            a = top[c]
            rest = [(j, y) for j, y in top.items() if j != c]
            # rows above t hold only their pivot columns, so the rows holding
            # c other than the top all sit below it
            below = holders.pop(c)
            below.discard(rt)
            if not rest and (a == 1 or a == -1):
                # each row below only loses its entry in column c
                rsteps += [(r, rt, 1, R[r].pop(c) // a) for r in below]
                continue
            for r in below:
                row = R[r]
                u, w = _step(a, row.pop(c), p)
                rsteps.append((r, rt, u, w))
                if u != 1:
                    _scale(row, u)
                one = False
                for j, y in rest:
                    x = row.get(j)
                    if x is None:
                        x = row[j] = -w * y
                        holders[j].add(r)
                    elif x := x - w * y:
                        row[j] = x
                    else:
                        del row[j]
                        holders[j].discard(r)
                        continue
                    if x == 1 or x == -1:
                        one = True
                if one:
                    heappush(ones, where[r])
            # column c of D is now zero off the pivot, so the column step
            # col_j <- u col_j - w col_c only clears D[t][j] and scales the
            # rest of column j by u
            for j, y in rest:
                u, w = _step(a, y, p)
                csteps.append((j, c, u, w))
                del top[j]
                below = holders[j]
                below.discard(rt)
                if u != 1:
                    for r in below:
                        R[r][j] *= u
        self._diag = [R[rid[i]].get(col[i], 0) for i in range(min(m, n))]
        self._rid, self._col = rid, col
        self._rsteps, self._csteps = rsteps, csteps
        self._qinv: dict[int, tuple[dict[int, int], int]] = {}

    def diagonal(self) -> list[int]:
        return self._diag[:]

    def _qinv_den(self, i: int) -> tuple[dict[int, int], int]:
        """(row i of Qinv, den): the row replayed over Q times den, the least
        positive p-unit that makes it integral; kept per position."""
        got = self._qinv.get(i)
        if got is None:
            x, den = {self._col[i]: 1}, 1
            for j, c, u, w in reversed(self._csteps):
                # x_j <- (x_j + w * x_c) / u, which leaves x alone when
                # x_c = 0 and u = 1 or x_j = 0
                xc = x.get(c)
                if xc is not None:
                    y = x.get(j, 0) + w * xc
                elif u != 1 and j in x:
                    y = x[j]
                else:
                    continue
                if y % u:
                    _scale(x, u)
                    den *= u
                else:
                    y //= u
                if y:
                    x[j] = y
                else:
                    x.pop(j, None)
                if den != 1 and (g := gcd(den, *x.values())) != 1:
                    x = {k: v // g for k, v in x.items()}
                    den //= g
            if den < 0:
                x, den = {k: -v for k, v in x.items()}, -den
            got = self._qinv[i] = x, den
        return got

    def qinv_row(self, i: int) -> dict[int, int]:
        """Row i of Qinv as {column: int} over its nonzero entries; do not mutate."""
        return self._qinv_den(i)[0]

    def q_column(self, i: int) -> tuple[dict[int, int], int]:
        """Column i of Q as ({row: int}, den): den > 0 and in lowest terms with the ints."""
        ints = _replay(self._csteps, {self._col[i]: 1})
        den = self._qinv_den(i)[1]
        g = gcd(den, *ints.values()) if den > 1 else 1
        if g > 1:
            return {r: x // g for r, x in ints.items()}, den // g
        return ints, den

    def p_row(self, i: int) -> dict[int, int]:
        """Row i of P as {column: int} over its nonzero entries."""
        row = _replay(self._rsteps, {self._rid[i]: 1})
        if i < self.n and (den := self._qinv_den(i)[1]) != 1:
            _scale(row, den)
        return row

    def kernel(self) -> list[list[int]]:
        """Z_(p)-basis of { x : x * M == 0 } as dense integer rows: the rows
        of P past the rank."""
        rank = sum(1 for d in self._diag if d)
        return [dense_row(self.p_row(i).items(), self.m) for i in range(rank, self.m)]

    def coordinates(self, v: list[int]) -> tuple[list[int], int] | None:
        """Coordinates of v as a Q-combination of the rows of M.

        Unlike solve_in_lattice this works with an arbitrary (possibly
        dependent) row list and returns one coordinate per row: (nums, den)
        in lowest terms with den > 0 and den * v == sum(nums[k] * M[k]).
        The coordinates are p-local exactly when p does not divide den.
        Returns None when v is not in the Q-span.
        """
        # x = (v * Q~) * D^-1 * P~ over the integral products Q~ and P~ of
        # the logged steps
        z = list(v)
        for j, c, u, w in self._csteps:
            z[j] = u * z[j] - w * z[c]
        diag, den, terms = self._diag, 1, []
        for i, c in enumerate(self._col):
            if z[c]:
                if i >= len(diag) or not diag[i]:
                    return None
                den = lcm(den, diag[i])
                terms.append((i, z[c]))
        y = _replay(self._rsteps, {self._rid[i]: s * (den // diag[i]) for i, s in terms})
        nums = dense_row(y.items(), self.m)
        g = gcd(den, *nums)
        return [x // g for x in nums], den // g


def _pivot(rows: list[dict], order, pos, p: int) -> tuple[int, int] | None:
    """(k, column id) of the pivot among the rows rows[order[k]]; None if
    they all vanish.

    Least p-valuation, then smallest |entry|, then the first entry in
    row-major order of `order` and the current column order, pos[c] giving
    the position of column id c.
    """
    at = None
    for i, r in enumerate(order):
        for c, v in rows[r].items():
            if v % p:
                e = 0
            elif at is not None and e0 == 0:
                continue
            else:
                e, q = 1, v // p
                while q % p == 0:
                    e, q = e + 1, q // p
            a = abs(v)
            if (at is None or e < e0 or e == e0 and (
                    a < a0 or a == a0 and i == at[0] and pos[c] < pos[at[1]])):
                e0, a0, at = e, a, (i, c)
    return at


def row_hermite(rows: list[list[tuple[int, int]]], ncols: int,
                p: int) -> tuple[list[dict[int, int]], list[int]]:
    """Echelon Z_(p)-basis of the row span, with pivots in increasing columns.

    Returns (basis_rows, pivot_columns); each basis row is a {column: value}
    dict of its nonzero entries, all at or after its pivot column.  A column
    id outside range(ncols) raises ValueError, and so does a zero value.
    """
    work = [dict(row) for row in rows if row]
    if work and (min(map(min, work)) < 0 or max(map(max, work)) >= ncols):
        raise ValueError(f"column id outside range({ncols})")
    if any(0 in row.values() for row in work):
        raise ValueError("a (column, value) row holds a zero value")
    basis: list[dict[int, int]] = []
    pivots: list[int] = []
    while work:
        j = min(map(min, work))
        active = [r for r in work if j in r]
        # the pivot rule, on column j alone
        lead = active[_pivot([{j: r[j]} for r in active], range(len(active)),
                             {j: 0}, p)[0]]
        for r in active:
            if r is not lead:
                u, w = _step(lead[j], r[j], p)
                _combine(r, u, w, lead)
        basis.append(lead)
        pivots.append(j)
        work = [r for r in work if r is not lead and r]
    return basis, pivots


def solve_in_lattice(
    basis: list[dict[int, int]],
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
            if u != 1:
                rem[j:] = [u * x for x in rem[j:]]
            for k, y in row.items():
                rem[k] -= w * y
    if any(rem):
        return None
    return nums, den


def order_rows(orders: list[int]) -> list[list[tuple[int, int]]]:
    """The relation rows o * e_k of Z^t, one per torsion order o = orders[k]."""
    return [[(k, o)] for k, o in enumerate(orders) if o]


class SubQuot:
    """p-local subquotient span(gens) / span(rels) of Z^n, where span(rels)
    must lie inside span(gens) over Z_(p): a relation row outside raises ValueError.

    Summands are recorded with explicit generator vectors in Z^n so that
    arbitrary lattice vectors can be expressed in summand coordinates.
    gen_rows=None means the generators are all of Z^n; `basis` is then None,
    standing for the standard basis.  Otherwise `basis` and `pivots` are the
    `row_hermite` echelon basis of gen_rows, with {column: value} dict rows.
    """

    def __init__(self, p: int, n: int, gen_rows: list[list[tuple[int, int]]] | None,
                 rel_rows: list[list[tuple[int, int]]]):
        self.p = p
        self.n = n
        if gen_rows is None:
            # every relation row is its own coordinate vector (den 1)
            self.basis = self.pivots = None
            k = n
            rel_coords = rel_rows
        else:
            self.basis, self.pivots = row_hermite(gen_rows, n, p)
            k = len(self.basis)
            rel_coords = []
            for row in rel_rows:
                sol = solve_in_lattice(self.basis, self.pivots, dense_row(row, n), p)
                if sol is None:
                    raise ValueError("a relation row lies outside the generators' span")
                nums, den = sol
                # a p-unit multiple of the row spans the same Z_(p)-line
                g = gcd(den, *nums)
                rel_coords.append([x // g for x in nums])
            rel_coords = sparse_rows(rel_coords)
        # quotient Z^k / span(rel_coords); Smith over the relation matrix
        sf = SmithForm(rel_coords, k, p=p) if k else None
        diag = sf.diagonal() if k else []
        self.summands: list[tuple[int, int]] = []  # (p-local order, coordinate index), order 0 = free
        for i in range(k):
            d = diag[i] if i < len(diag) else 0
            order = 0 if d == 0 else p ** nu(p, d)
            if order != 1:
                self.summands.append((order, i))
        # the relation lattice is diagonal in the coordinates z -> z*Q: summand
        # i reads column i of Q, and its generator is row i of Qinv
        self._cols = [sf.q_column(i) for _, i in self.summands]
        self._gens = [sf.qinv_row(i) for _, i in self.summands]

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
        out = [0] * self.n
        for k, c in self._gens[idx].items():
            if self.basis is None:
                out[k] = c
            else:
                for t, x in self.basis[k].items():
                    out[t] += c * x
        return out

    def express(self, v: list[int]) -> tuple[list[int], int] | None:
        """Summand coordinates of v as (ints, unit), or None when v is not
        p-locally in the subgroup.

        unit is the least positive p-unit that clears the denominators of the
        free coordinates, and ints holds each coordinate times unit: a torsion
        coordinate is an int mod its order before the scaling.
        """
        if self.basis is None:
            nums, den = v, 1
        else:
            sol = solve_in_lattice(self.basis, self.pivots, v, self.p)
            if sol is None:
                return None
            nums, den = sol
        return unit_scaled([(sum(q * nums[r] for r, q in col.items()), den * cden)
                            for col, cden in self._cols], self.orders)

    def is_zero(self, v: list[int]) -> bool:
        e = self.express(v)
        return e is not None and not any(e[0])


# The intern of the module docstring, keyed by argument content.
_INTERN: dict[tuple, object] = {}


def _rows_key(rows: list[list[tuple[int, int]]]) -> tuple:
    return tuple(map(tuple, rows))


def row_kernel(rows: list[list[tuple[int, int]]], ncols: int,
               p: int) -> list[list[int]]:
    """Z_(p)-basis of { x : x * M == 0 } for the m-row matrix M, as dense
    integer rows; interned, and handed out as fresh lists."""
    if not rows:
        return []
    key = (p, ncols, _rows_key(rows))
    kernel = _INTERN.get(key)
    if kernel is None:
        kernel = _INTERN[key] = tuple(map(tuple, SmithForm(rows, ncols, p=p).kernel()))
    return [list(row) for row in kernel]


def shared_subquot(p: int, n: int, gen_rows: list[list[tuple[int, int]]] | None,
                   rel_rows: list[list[tuple[int, int]]]) -> SubQuot:
    """`SubQuot(p, n, gen_rows, rel_rows)`, interned: built once per distinct
    argument content, so the caller must not mutate it."""
    key = (p, n, None if gen_rows is None else _rows_key(gen_rows), _rows_key(rel_rows))
    sq = _INTERN.get(key)
    if sq is None:
        sq = _INTERN[key] = SubQuot(p, n, gen_rows, rel_rows)
    return sq


def unit_scaled(coords: list[tuple[int, int]],
                orders: list[int]) -> tuple[list[int], int]:
    """Summand coordinates given as (numerator, p-unit denominator) pairs,
    as (ints, unit): unit is the least positive p-unit that clears the free
    coordinates' denominators, and ints holds each coordinate times unit,
    a torsion coordinate reduced to an int mod its order before the scaling."""
    pairs, unit = [], 1   # (numerator, denominator) pairs in lowest terms
    for (y, t), order in zip(coords, orders):
        if order:
            pairs.append((y * pow(t, -1, order) % order, 1))
        else:
            g = gcd(y, t)
            pairs.append((y // g, t // g))
            unit = lcm(unit, t // g)
    return [y * (unit // t) for y, t in pairs], unit


def group_invariants(rel_rows: list[list[tuple[int, int]]], n: int,
                     p: int) -> tuple[int, list[int]]:
    """(free rank, sorted p-local torsion orders) of Z^n / rowspan(rel_rows)."""
    rows = [r for r in rel_rows if r]
    if not rows:
        return n, []
    sf = SmithForm(rows, n, p=p)
    diag = [d for d in sf.diagonal() if d != 0]
    free = n - len(diag)
    torsion = sorted(q for q in (p ** nu(p, d) for d in diag) if q > 1)
    return free, torsion


def lattice_coordinates(
    rows: list[list[tuple[int, int]]],
    ncols: int,
    v: list[int],
    p: int,
) -> tuple[list[int], int] | None:
    """`SmithForm.coordinates` of v over the given rows; see there."""
    return SmithForm(rows, ncols, p=p).coordinates(v)
