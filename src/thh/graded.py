"""Graded modules over Z_(p)[v] presented by generators and homogeneous relations.

A presentation stores finitely many generators (each in a single degree) and
relation rows whose terms are (coefficient, v-exponent, generator).  The
degree-d group is the cokernel of the degree slice: the cells of the free
cover in degree d modulo every v-power multiple of every relation that lands
there, with invariant factors reduced to their p-parts.  Generators and
relations are indexed by their degree mod |v|, so a slice reads only the
generators and relations whose v-multiples can land in it.  A slice's
relation rows are `_intlin` rows of (column, value) pairs, built straight
from each relation's terms merged by (generator, v-exponent).

Between two step degrees of a residue (generator degrees, and the bases of
relations that keep a term) the slice repeats every |v| degrees: the same
generators, the same relations, and each row's columns name generators, not
v-exponents.  So the slice shape (d mod |v|, number of steps at or below d)
determines the relation matrix, and the reductions of a slice are cached by
its shape: a module that is finitely generated over Z_(p)[v] has finitely
many shapes, however many degrees are asked.  A presentation is fixed when
`__init__` returns (its relations are a tuple, and nothing adds one), so a
shape always names the same slice, and neither these caches nor a
`ModuleMap`'s cache by shape pair ever needs clearing.

The slice of one step is the slice of the step before it with the step's new
generator columns and new relation rows, and every older row stays in the
older cells, since v is injective on the free cover.  So `vstep_at` reduces
the steps of a residue in order, each from the one before, as persistent
homology reduces a filtration (Zomorodian and Carlsson, "Computing persistent
homology", DCG 33, 2005): one small `SubQuot` per step, whose columns are the
previous summands and the new generators and whose rows are the previous
orders and the new relations written in the previous coordinates.  It keeps
each generator's summand coordinates, except those that vanish, so an
element's coordinates are a sum of its cells' coordinates, with no solve.
The step matrices, and the summand-coordinate matrices of the groups a map
induces, repeat across residues, maps and presentations, so they are taken
from `_intlin`'s intern (`shared_subquot`), which reduces each distinct one
once per process; the whole slices of `subquot_at` rarely repeat and stay in
its per-shape cache.  Every reader that does not depend
on the basis reads the v-step: `group_at`, `is_zero_at` (and so
`ModuleMap.respects_relations`), `order_of`, `dual`, and the groups a
`ModuleMap` induces (and so `verify`'s kernels and cokernels).  The whole
slice (`subquot_at`, `coordinates`, `summand_labels`) serves only the two
readers whose basis is pinned: the printed labels and the eta tower's
classes, which the v-step basis does not reproduce.

A presentation answers only below its window bound `complete_below`:
`vstep_at`, `subquot_at` and `ModuleMap.induced` raise `WindowError` at or
past it, and every other group reader goes through one of them.
"""
from __future__ import annotations

from bisect import bisect_right
from math import gcd, lcm
from typing import Iterable, NamedTuple

from ._intlin import (SubQuot, order_rows, row_hermite, row_kernel,
                      shared_subquot, solve_in_lattice, sparse_rows, unit_scaled)
from .padic import nu


class RingSpec(NamedTuple("RingSpec", [("p", int), ("v_degree", int)])):
    """The coefficient ring Z_(p)[v] with |v| = v_degree > 0."""

    __slots__ = ()

    def __new__(cls, p: int, v_degree: int):
        if v_degree <= 0:
            raise ValueError("v_degree must be positive (degree-0 bookkeeping lives in filtrations)")
        return super().__new__(cls, p, v_degree)


class Generator(NamedTuple):
    gid: str
    degree: int
    label: str = ""

    def display(self) -> str:
        return self.label or self.gid


Term = tuple[int, int, str]  # (coefficient, v-exponent, generator id)


class Relation(NamedTuple):
    """A homogeneous Z_(p)[v]-linear combination of generators set to zero."""

    terms: tuple[Term, ...]


class WindowError(ValueError):
    """A degree at or past a presentation's `complete_below`."""


class VStep:
    """The group of one step of a residue mod |v|, in its own summand basis.

    `orders` are the summand orders as a `SubQuot` lists them (0 for a free
    summand), `group` is (free rank, sorted torsion orders), `coords` maps
    each generator of the residue at or below the step to its summand
    coordinates (ints, unit) in the form of `SubQuot.express`, with no entry
    for a generator whose coordinates vanish, and `gens`
    gives each summand's generator as {generator id: coefficient}, a sum of
    cells of any degree of the step.
    A plain class: a NamedTuple would add a third of a millisecond to the
    start of every `thh` process."""

    __slots__ = ("orders", "group", "coords", "gens")

    def __init__(self, orders: list[int], coords: dict[str, tuple[list[int], int]],
                 gens: list[dict[str, int]]):
        self.orders, self.coords, self.gens = orders, coords, gens
        self.group = orders.count(0), sorted(o for o in orders if o)


_NO_STEP = VStep([], {}, [])


def _coordinate_sum(parts, orders: list[int]) -> tuple[list[int], int]:
    """sum(c * ints / unit) over parts [(c, (ints, unit))], as `unit_scaled`
    gives it."""
    den = lcm(*(u for _, (_, u) in parts))
    nums = [0] * len(orders)
    for c, (ints, u) in parts:
        f = c * (den // u)
        for i, x in enumerate(ints):
            if x:
                nums[i] += f * x
    if den == 1:
        return [y % o if o else y for y, o in zip(nums, orders)], 1
    return unit_scaled([(y, den) for y in nums], orders)


class GradedModulePresentation:
    """Generators, relations in order, and the window bound `complete_below`.

    The groups are trusted in degrees below `complete_below`; None means in
    every degree.  `suspend` shifts the bound and `direct_sum` takes the
    least bound among the parts that have one.  `vstep_at` and `subquot_at`
    raise `WindowError` at or past the bound, and so does every reader
    built on them.

    `subquot_at` and `vstep_at` cache by `slice_shape`, so degrees of one
    shape share one reduction; `slice_cells` stays per degree, since its
    v-exponents label the summands.
    """

    def __init__(self, ring: RingSpec, generators: list[Generator],
                 relations: Iterable[Relation], complete_below: int | None = None):
        self.ring = ring
        vd = ring.v_degree
        self.generators: dict[str, Generator] = {}
        # generators by degree mod |v|, in insertion order
        self._generators_by_residue: dict[int, list[Generator]] = {}
        # the sorted step degrees of each residue mod |v|, with repeats:
        # generator degrees and the bases of relations that keep a term
        self._steps: dict[int, list[int]] = {}
        for g in generators:
            if g.gid in self.generators:
                raise ValueError(f"duplicate generator id {g.gid}")
            self.generators[g.gid] = g
            r = g.degree % vd
            self._generators_by_residue.setdefault(r, []).append(g)
            self._steps.setdefault(r, []).append(g.degree)
        self.relations: tuple[Relation, ...] = tuple(relations)
        # (base degree, merged terms) of each relation whose merged terms do
        # not all cancel, by base degree mod |v|, in relation order; each
        # merged term is (generator, v-exponent, nonzero coefficient)
        self._relations_by_residue: dict[int, list[tuple[int, list[tuple[str, int, int]]]]] = {}
        for rel in self.relations:
            if not rel.terms:
                raise ValueError("empty relation")
            degs = set()
            merged: dict[tuple[str, int], int] = {}
            for coeff, v_exp, gid in rel.terms:
                g = self.generators.get(gid)
                if g is None:
                    raise ValueError(f"relation references unknown generator {gid}")
                if v_exp < 0:
                    raise ValueError("negative v-exponent in relation")
                degs.add(g.degree + v_exp * vd)
                merged[gid, v_exp] = merged.get((gid, v_exp), 0) + coeff
            if len(degs) != 1:
                raise ValueError(f"inhomogeneous relation: degrees {sorted(degs)} in {rel.terms}")
            terms = [(gid, v_exp, c) for (gid, v_exp), c in merged.items() if c]
            if terms:
                base = degs.pop()
                r = base % vd
                self._relations_by_residue.setdefault(r, []).append((base, terms))
                self._steps.setdefault(r, []).append(base)
        for degrees in self._steps.values():
            degrees.sort()
        self.complete_below = complete_below
        self._slice_cache: dict[int, tuple[list[tuple[str, int]], dict[tuple[str, int], int]]] = {}
        # keyed by `slice_shape`
        self._subquot_cache: dict[tuple[int, int], SubQuot] = {}
        # the v-step groups by (residue, step count); and per residue, the
        # step count its walk has reached and its new generators and
        # relations by step degree
        self._vsteps: dict[tuple[int, int], VStep] = {}
        self._walks: dict[int, list] = {}

    # -- construction ------------------------------------------------------

    def term_degree(self, terms) -> int:
        degs = {self.generators[g].degree + e * self.ring.v_degree for _, e, g in terms}
        if len(degs) != 1:
            raise ValueError(f"inhomogeneous element: {terms}")
        return degs.pop()

    # -- degree slices -----------------------------------------------------

    def slice_shape(self, d: int) -> tuple[int, int]:
        """(d mod |v|, the number of that residue's step degrees at or below d).

        Two degrees of one shape read the same generators and the same
        relations, and each relation row's columns name its generators, so
        their slices have the same relation matrix; only the v-exponents of
        `slice_cells` differ."""
        r = d % self.ring.v_degree
        return r, bisect_right(self._steps.get(r, ()), d)

    def slice_cells(self, d: int) -> list[tuple[str, int]]:
        """The (generator, v-exponent) cells spanning the degree-d slice of the free cover."""
        return self._slice(d)[0]

    def _slice(self, d: int):
        if d not in self._slice_cache:
            vd = self.ring.v_degree
            cells = [(g.gid, (d - g.degree) // vd)
                     for g in self._generators_by_residue.get(d % vd, ())
                     if g.degree <= d]
            index = {c: i for i, c in enumerate(cells)}
            self._slice_cache[d] = (cells, index)
        return self._slice_cache[d]

    def slice_relation_rows(self, d: int) -> list[list[tuple[int, int]]]:
        """Every v-power multiple of every relation that lands in degree d, as
        (column, value) rows over `slice_cells(d)`; a relation whose terms
        cancel gives no row."""
        _, index = self._slice(d)
        vd = self.ring.v_degree
        rows = []
        for base, terms in self._relations_by_residue.get(d % vd, ()):
            if base <= d:
                shift = (d - base) // vd
                rows.append([(index[gid, e + shift], c) for gid, e, c in terms])
        return rows

    def element_vector(self, d: int, terms) -> list[int]:
        """Coordinate vector in the degree-d slice of a homogeneous element."""
        cells, index = self._slice(d)
        row = [0] * len(cells)
        for coeff, v_exp, gid in terms:
            key = (gid, v_exp)
            if key not in index:
                raise ValueError(f"term {coeff}*v^{v_exp}*{gid} is not in degree {d}")
            row[index[key]] += coeff
        return row

    # -- groups ------------------------------------------------------------

    def group_at(self, d: int) -> tuple[int, list[int]]:
        """(free rank, sorted p-local torsion orders) of the degree-d group,
        read off `vstep_at(d)`: the group does not depend on the basis."""
        return self.vstep_at(d).group

    def _check_window(self, d: int) -> None:
        if self.complete_below is not None and d >= self.complete_below:
            raise WindowError(f"degree {d} is past the window: the presentation "
                              f"is complete below {self.complete_below}")

    def subquot_at(self, d: int) -> SubQuot:
        """Summand-level structure of the degree-d group, with generator
        vectors over `slice_cells(d)`; cached by `slice_shape`."""
        self._check_window(d)
        shape = self.slice_shape(d)
        sq = self._subquot_cache.get(shape)
        if sq is None:
            n = len(self.slice_cells(d))
            sq = self._subquot_cache[shape] = SubQuot(self.ring.p, n, None,
                                                      self.slice_relation_rows(d))
        return sq

    def vstep_at(self, d: int) -> VStep:
        """The degree-d group in the basis of the v-step reduction: the group
        of the last step of d's residue at or below d, which every degree of
        that shape shares.  Cached by (residue, step count)."""
        self._check_window(d)
        r = d % self.ring.v_degree
        steps = self._steps.get(r, ())
        k = bisect_right(steps, d)
        if not k:
            return _NO_STEP
        got = self._vsteps.get((r, k))
        if got is None:
            got = self._walk(r, steps, k)
        return got

    def _walk(self, r: int, steps: list[int], k: int) -> VStep:
        """Reduce the steps of residue r from the last one walked up to step
        count k, each from the one before it, caching each step's group."""
        walk = self._walks.get(r)
        if walk is None:
            gens: dict[int, list[str]] = {}
            rels: dict[int, list] = {}
            for g in self._generators_by_residue.get(r, ()):
                gens.setdefault(g.degree, []).append(g.gid)
            for base, terms in self._relations_by_residue.get(r, ()):
                rels.setdefault(base, []).append(terms)
            walk = self._walks[r] = [0, gens, rels]
        i, gens, rels = walk
        step = self._vsteps[r, i] if i else _NO_STEP
        while i < k:
            top = steps[i]
            i = bisect_right(steps, top, i)
            step = self._vsteps[r, i] = self._vstep(step, gens.get(top, []),
                                                    rels.get(top, ()))
        walk[0] = i
        return step

    def _vstep(self, prev: VStep, new: list[str], rels) -> VStep:
        """The group of a step from the group of the step before it.

        v is injective on the free cover, so every older relation row stays
        in the older cells, and the step's group is the cokernel of a small
        matrix: its columns are the previous summands and the new
        generators, and its rows the previous orders and the step's new
        relations, written in the previous coordinates."""
        s, n = len(prev.orders), len(prev.orders) + len(new)
        fresh = {gid: [int(j == s + i) for j in range(n)] for i, gid in enumerate(new)}
        cells = {gid: (e, 1) for gid, e in fresh.items()}
        old = prev.coords
        rows = order_rows(prev.orders)
        for terms in rels:
            # the sum of its cells' coordinates times a p-unit, which spans
            # the same Z_(p)-line as the relation; a cell with no
            # coordinates is zero
            parts = [(c, got) for gid, _, c in terms
                     if (got := cells.get(gid) or old.get(gid)) is not None]
            ints, _ = _coordinate_sum(parts, prev.orders + [0] * len(new))
            rows.append([(j, x) for j, x in enumerate(ints) if x])
        sq = shared_subquot(self.ring.p, n, None, rows)
        orders = sq.orders
        columns = prev.gens + [{gid: 1} for gid in new]
        gens = []
        for idx in range(len(orders)):
            gen: dict[str, int] = {}
            for c, col in zip(sq.generator_vector(idx), columns):
                for gid, x in col.items() if c else ():
                    gen[gid] = gen.get(gid, 0) + c * x
            gens.append({gid: x for gid, x in gen.items() if x})
        # a cell's coordinates are those of its old ones divided by its unit;
        # cells with equal old coordinates share one answer, and a cell whose
        # coordinates vanish is not stored
        pad = [0] * len(new)
        coords, memo = {}, {}
        for gid, (ints, u) in old.items():
            key = u, *ints
            if key not in memo:
                got, unit = sq.express(ints + pad)
                memo[key] = (_coordinate_sum([(1, (got, unit * u))], orders)
                             if u != 1 else (got, unit))
            if any(memo[key][0]):
                coords[gid] = memo[key]
        for gid, e in fresh.items():
            got = sq.express(e)
            if any(got[0]):
                coords[gid] = got
        return VStep(orders, coords, gens)

    def vstep_coordinates(self, d: int, terms) -> tuple[list[int], int]:
        """(ints, unit): the summand coordinates of a homogeneous element in
        `vstep_at(d)`, in the form of `coordinates`; a sum of its cells'
        coordinates, with no solve."""
        step = self.vstep_at(d)
        vd = self.ring.v_degree
        parts = []
        for c, e, gid in terms:
            g = self.generators.get(gid)
            if g is None or e < 0 or g.degree + e * vd != d:
                raise ValueError(f"term {c}*v^{e}*{gid} is not in degree {d}")
            if c and gid in step.coords:
                parts.append((c, step.coords[gid]))
        return _coordinate_sum(parts, step.orders)

    def coordinates(self, d: int, terms) -> tuple[list[int], int]:
        """(ints, unit): the summand coordinates of a homogeneous element in
        `subquot_at(d)` times the least p-unit that clears their denominators,
        as `SubQuot.express` gives them (on a whole slice it always finds
        them, over Z_(p))."""
        return self.subquot_at(d).express(self.element_vector(d, terms))

    def is_zero_at(self, d: int, terms) -> bool:
        return not any(self.vstep_coordinates(d, terms)[0])

    def order_of(self, d: int, terms) -> int:
        """p-local order of a homogeneous element (0 for infinite order)."""
        ints, _ = self.vstep_coordinates(d, terms)
        order = 1
        # the coordinates are scaled by a p-unit, which leaves each order as it is
        for c, o in zip(ints, self.vstep_at(d).orders):
            if o == 0:
                if c:
                    return 0
            else:
                order = max(order, o // gcd(c, o))
        return order

    def summand_labels(self, d: int) -> list[str]:
        """A printable label for each cyclic summand of the degree-d group."""
        sq = self.subquot_at(d)
        cells = self.slice_cells(d)
        p = self.ring.p
        out = []
        for idx in range(len(sq.summands)):
            # the first p-unit entry, or else the first nonzero one with its p-power
            pick = None
            for i, c in enumerate(sq.generator_vector(idx)):
                if not c:
                    continue
                if c % p:
                    pick = (1, i)
                    break
                if pick is None:
                    pick = (p ** nu(p, c), i)
            mult, i = pick
            gid, e = cells[i]
            name = self.generators[gid].display()
            label = name if e == 0 else f"v^{e} {name}"
            out.append(label if mult == 1 else f"{mult} {label}")
        return out

    # -- operations --------------------------------------------------------

    def action_matrix(self, d: int, op: str) -> list[list[int]]:
        """Matrix of multiplication by p (degree d -> d) or v (d -> d + |v|) on slice cells."""
        cells, _ = self._slice(d)
        if op == "p":
            n = len(cells)
            return [[self.ring.p if i == j else 0 for j in range(n)] for i in range(n)]
        if op == "v":
            tgt_cells, tgt_index = self._slice(d + self.ring.v_degree)
            rows = []
            for gid, e in cells:
                row = [0] * len(tgt_cells)
                row[tgt_index[(gid, e + 1)]] = 1
                rows.append(row)
            return rows
        raise ValueError(f"unknown action {op!r}")

    def suspend(self, shift: int) -> "GradedModulePresentation":
        """Every generator `shift` degrees up; a relation's terms name
        generators and v-exponents, so the relations stay as they are."""
        bound = None if self.complete_below is None else self.complete_below + shift
        gens = [Generator(g.gid, g.degree + shift, g.label) for g in self.generators.values()]
        return GradedModulePresentation(self.ring, gens, self.relations, bound)

    @staticmethod
    def direct_sum(parts: list["GradedModulePresentation"]) -> "GradedModulePresentation":
        """The parts side by side; complete below the least bound any part has."""
        if not parts:
            raise ValueError("direct_sum of nothing")
        ring = parts[0].ring
        for part in parts:
            if part.ring != ring:
                raise ValueError(f"direct_sum over different rings {ring} and {part.ring}")
        bounds = [part.complete_below for part in parts if part.complete_below is not None]
        gens = [g for part in parts for g in part.generators.values()]
        rels = [rel for part in parts for rel in part.relations]
        return GradedModulePresentation(ring, gens, rels, min(bounds, default=None))

    def dual(self, lo: int, hi: int, prefix: str = "D") -> "GradedModulePresentation":
        """Per-degree character dual on [lo, hi]: negated degrees, transposed v-action.

        Every degree in the window must be finite.
        """
        vd = self.ring.v_degree
        summands: dict[int, list[int]] = {}
        for d in range(lo, hi + 1):
            orders = self.vstep_at(d).orders
            if 0 in orders:
                raise ValueError(f"dual needs finite groups; degree {d} has free rank")
            summands[d] = orders
        gens = []
        rels = []
        for d in range(lo, hi + 1):
            for k, order in enumerate(summands[d]):
                gens.append(Generator(f"{prefix}[{d},{k}]", -d, f"{prefix}({d},{k})"))
                rels.append(Relation(((order, 0, f"{prefix}[{d},{k}]"),)))
        # dual generators whose v-image would come from below the window: kill v
        for d in range(lo, min(lo + vd, hi + 1)):
            for k in range(len(summands[d])):
                rels.append(Relation(((1, 1, f"{prefix}[{d},{k}]"),)))
        # transposed v-action: v on the dual of degree d+|v| lands in the dual of degree d
        v_map = variable_multiplication_map(self)
        for d in range(lo, hi + 1 - vd):
            tgt_orders = summands[d + vd]
            src_orders = summands[d]
            if not tgt_orders:
                continue
            mat = v_map.summand_matrix(d)
            # (m[j][k]) with p^{a_j} source orders, p^{b_k} target orders
            for k, bk in enumerate(tgt_orders):
                terms: list[Term] = [(1, 1, f"{prefix}[{d + vd},{k}]")]
                for j, aj in enumerate(src_orders):
                    m = mat[j][k] % bk
                    if aj >= bk:
                        c = m * (aj // bk)
                    else:
                        if m % (bk // aj):
                            raise ValueError("v-action fails to dualize")
                        c = m // (bk // aj)
                    c %= aj
                    if c:
                        terms.append((-c, 0, f"{prefix}[{d},{j}]"))
                rels.append(Relation(tuple(terms)))
        return GradedModulePresentation(self.ring, gens, rels)

    def isomorphic_on(self, other: "GradedModulePresentation", degrees) -> bool:
        return all(self.group_at(d) == other.group_at(d) for d in degrees)


class ModuleMap:
    """A degree-shifting map of presentations given on generators.

    The groups a map induces in one degree (`image_subquot`, and the kernel
    and cokernel in `verify`) are read off `summand_matrix`: the map from the
    summands of the source's `vstep_at(d)` to those of the target's
    `vstep_at(d + shift)`, times a p-unit.  There both groups are
    Z_(p)^s / L_a and Z_(p)^t / L_b with L_a, L_b the diagonal lattices of
    the summand orders, so each answer is a tiny `SubQuot` in summand
    coordinates, not one over the whole degree slice.  That reading is a map
    of groups only when the map respects relations (`respects_relations`):
    the images of the source relations must vanish in the target.
    `GradedModulePresentation.dual` reads the same matrix for the map v.

    The matrix, and so every group read off it, depends on d only through
    the source's `slice_shape(d)` and the target's `slice_shape(d + shift)`;
    `induced` caches each of them by that pair.
    """

    def __init__(self, source: GradedModulePresentation, target: GradedModulePresentation,
                 images: dict[str, tuple[Term, ...]], degree_shift: int = 0):
        self.source = source
        self.target = target
        self.images = images
        self.degree_shift = degree_shift
        # keyed by the (source, target) `slice_shape` pair, then by builder
        self._induced: dict[tuple[tuple[int, int], tuple[int, int]], dict] = {}
        for gid, terms in images.items():
            if terms:
                want = source.generators[gid].degree + degree_shift
                got = target.term_degree(terms)
                if want != got:
                    raise ValueError(f"image of {gid} has degree {got}, expected {want}")

    def image_of(self, terms) -> list[Term]:
        """The image of the element sum(c * v^e * gid) over terms, term by term."""
        return [(c * a, e + ve, t) for c, e, gid in terms
                for a, ve, t in self.images.get(gid, ())]

    def matrix(self, d: int) -> list[list[int]]:
        """Matrix from the degree-d slice cells to the degree-(d+shift) target slice."""
        out = []
        td = d + self.degree_shift
        for gid, e in self.source.slice_cells(d):
            out.append(self.target.element_vector(td, self.image_of(((1, e, gid),))))
        return out

    def respects_relations(self, degrees=None) -> bool:
        """Check the images of all source relations vanish in the target.

        `degrees`, if given, keeps only the relations whose base degree is
        in it, so that a caller can stay inside the target's window."""
        for rel in self.source.relations:
            base = self.source.term_degree(rel.terms)
            if degrees is not None and base not in degrees:
                continue
            img = self.image_of(rel.terms)
            if not img:
                continue
            td = base + self.degree_shift
            if not self.target.is_zero_at(td, img):
                return False
        return True

    def induced(self, d: int, build):
        """`build(self, d)`, cached by the source's `slice_shape(d)` and the
        target's `slice_shape(d + shift)`; `build` must depend on d only
        through that pair, as a group read off `summand_matrix(d)` and the
        two `vstep_at` does.

        Raises `WindowError` if d or d + shift is past its presentation's
        window, cached or not."""
        self.source._check_window(d)
        self.target._check_window(d + self.degree_shift)
        groups = self._induced.setdefault((self.source.slice_shape(d),
                                           self.target.slice_shape(d + self.degree_shift)), {})
        if build not in groups:
            groups[build] = build(self, d)
        return groups[build]

    def summand_matrix(self, d: int) -> list[list[int]]:
        """The map from degree d to degree d + shift in summand coordinates,
        times one p-unit U = lcm(u_j): row j is the target's (ints, u_j)
        `vstep_coordinates` of the image of summand j of `source.vstep_at(d)`,
        with ints times U // u_j.  Kernel, image and cokernel over Z_(p) do not
        see U, which is 1 when every target summand is finite.

        Cached by `induced`: `image_of` shifts v-exponents, so every column the
        rows read names a generator, as in both slices' relation matrices."""
        return self.induced(d, _summand_matrix)

    def image_subquot(self, d: int) -> SubQuot:
        """Image of the degree-d group, (span M + L_b) / L_b in the summand
        coordinates of the target's `vstep_at(d + shift)`; cached by
        `induced`.

        M is the rows of `summand_matrix(d)` and L_b the target's order lattice;
        the map must respect relations.
        """
        return self.induced(d, _image_subquot)

    def injective_at(self, d: int) -> bool:
        src = self.source.vstep_at(d).orders
        img = self.image_subquot(d)
        return (img.free_rank() == src.count(0)
                and img.total_order_exponent() == sum(nu(self.source.ring.p, o)
                                                      for o in src if o))

    def surjective_at(self, d: int) -> bool:
        tgt = self.target.vstep_at(d + self.degree_shift).orders
        img = self.image_subquot(d)
        return (img.free_rank() == tgt.count(0)
                and img.torsion() == sorted(o for o in tgt if o))


def _summand_matrix(mp: ModuleMap, d: int) -> list[list[int]]:
    """The uncached body of `ModuleMap.summand_matrix`."""
    src = mp.source
    vd = src.ring.v_degree
    coords = []
    for gen in src.vstep_at(d).gens:
        terms = [(c, (d - src.generators[gid].degree) // vd, gid) for gid, c in gen.items()]
        coords.append(mp.target.vstep_coordinates(d + mp.degree_shift, mp.image_of(terms)))
    common = lcm(*(unit for _, unit in coords))
    rows = []
    for ints, unit in coords:
        rows.append([x * (common // unit) for x in ints])
    return rows


def _image_subquot(mp: ModuleMap, d: int) -> SubQuot:
    """The uncached body of `ModuleMap.image_subquot`."""
    orders = mp.target.vstep_at(d + mp.degree_shift).orders
    rels = order_rows(orders)
    return shared_subquot(mp.target.ring.p, len(orders),
                          sparse_rows(mp.summand_matrix(d)) + rels, rels)


def variable_multiplication_map(mod: GradedModulePresentation) -> ModuleMap:
    """Multiplication by the acting polynomial variable, as a map of degree |v|."""
    return ModuleMap(mod, mod, {gid: ((1, 1, gid),) for gid in mod.generators},
                     degree_shift=mod.ring.v_degree)


def submodule_presentation(module: GradedModulePresentation,
                           elements: list[tuple[str, tuple[Term, ...], str]],
                           hi: int) -> GradedModulePresentation:
    """Presentation (valid below hi) of the submodule generated by homogeneous elements.

    elements: (new generator id, defining terms in `module`, label).  Only
    the tests call it now, as the oracle for `closed_forms.build_Tn_prime`,
    which states the same relations directly; it stays here because the
    benchmark's tracer wraps it by name.
    """
    ring = module.ring
    gens = []
    defs: dict[str, tuple[Term, ...]] = {}
    for gid, terms, label in elements:
        deg = module.term_degree(terms)
        gens.append(Generator(gid, deg, label))
        defs[gid] = terms
    rels: list[Relation] = []
    inclusion = ModuleMap(GradedModulePresentation(ring, gens, [], hi), module, defs)
    lo = min(g.degree for g in gens)
    for d in range(lo, hi, 1):
        cells = inclusion.source.slice_cells(d)
        if not cells:
            continue
        sub = GradedModulePresentation(ring, gens, rels, hi)
        mat = inclusion.matrix(d)
        tgt_rows = module.slice_relation_rows(d)
        n_tgt = len(module.slice_cells(d))
        stacked = sparse_rows(mat) + tgt_rows
        kernel = row_kernel(stacked, n_tgt, ring.p)
        n_src = len(cells)
        have = row_hermite(sub.slice_relation_rows(d), n_src, ring.p)
        for kv in kernel:
            row = kv[:n_src]
            if not any(row):
                continue
            if solve_in_lattice(*have, row, ring.p) is not None:
                continue
            terms = tuple(
                (c, e, gid) for (gid, e), c in zip(cells, row) if c
            )
            rels.append(Relation(terms))
            # the new relation's degree-d slice row is `row`, so the old
            # basis plus `row` spans the lattice of the whole new slice
            have = row_hermite([list(b.items()) for b in have[0]] + sparse_rows([row]),
                               n_src, ring.p)
    return GradedModulePresentation(ring, gens, rels, hi)
