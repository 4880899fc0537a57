"""Graded modules over Z_(p)[v] presented by generators and homogeneous relations.

A presentation stores finitely many generators (each in a single degree) and
relation rows whose terms are (coefficient, v-exponent, generator).  Per-degree
abelian groups come out of Smith normal form on the degree slice, using every
v-power multiple of every relation that lands in the slice, with invariant
factors reduced to their p-parts.  Relations are indexed by their degree mod
|v|, so a slice reads only the relations whose v-multiples can land in it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from ._intlin import (SubQuot, group_invariants, order_rows, row_hermite,
                      row_kernel, solve_in_lattice)
from .padic import nu


@dataclass(frozen=True)
class RingSpec:
    """The coefficient ring Z_(p)[v] with |v| = v_degree > 0."""

    p: int
    v_degree: int

    def __post_init__(self):
        if self.v_degree <= 0:
            raise ValueError("v_degree must be positive (degree-0 bookkeeping lives in filtrations)")


@dataclass(frozen=True)
class Generator:
    gid: str
    degree: int
    label: str = ""

    def display(self) -> str:
        return self.label or self.gid


Term = tuple[int, int, str]  # (coefficient, v-exponent, generator id)


@dataclass(frozen=True)
class Relation:
    """A homogeneous Z_(p)[v]-linear combination of generators set to zero."""

    terms: tuple[Term, ...]


class GradedModulePresentation:
    """Generators, relations in order, and the window bound `complete_below`.

    The groups are trusted in degrees below `complete_below`; None means in
    every degree.  `suspend` shifts the bound and `direct_sum` takes the
    least bound among the parts that have one.  The bound is recorded but
    not yet enforced: `group_at` and `subquot_at` answer past it.
    """

    def __init__(self, ring: RingSpec, generators: list[Generator],
                 relations: list[Relation], complete_below: int | None = None):
        self.ring = ring
        self.generators: dict[str, Generator] = {}
        for g in generators:
            if g.gid in self.generators:
                raise ValueError(f"duplicate generator id {g.gid}")
            self.generators[g.gid] = g
        self.relations: list[Relation] = []
        # (base degree, relation) by base degree mod |v|, in insertion order
        self._relations_by_residue: dict[int, list[tuple[int, Relation]]] = {}
        self.complete_below = complete_below
        self._slice_cache: dict[int, tuple[list[tuple[str, int]], dict[tuple[str, int], int]]] = {}
        self._subquot_cache: dict[int, SubQuot] = {}
        self._group_cache: dict[int, tuple[int, list[int]]] = {}
        for rel in relations:
            self.add_relation(rel)

    # -- construction ------------------------------------------------------

    def add_relation(self, rel: Relation) -> None:
        if not rel.terms:
            raise ValueError("empty relation")
        degs = set()
        for coeff, v_exp, gid in rel.terms:
            if gid not in self.generators:
                raise ValueError(f"relation references unknown generator {gid}")
            if v_exp < 0:
                raise ValueError("negative v-exponent in relation")
            degs.add(self.generators[gid].degree + v_exp * self.ring.v_degree)
        if len(degs) != 1:
            raise ValueError(f"inhomogeneous relation: degrees {sorted(degs)} in {rel.terms}")
        self.relations.append(rel)
        base = degs.pop()
        self._relations_by_residue.setdefault(base % self.ring.v_degree, []).append((base, rel))
        # the groups of every degree the relation reaches change
        self._group_cache.clear()
        self._subquot_cache.clear()

    def term_degree(self, terms) -> int:
        degs = {self.generators[g].degree + e * self.ring.v_degree for _, e, g in terms}
        if len(degs) != 1:
            raise ValueError(f"inhomogeneous element: {terms}")
        return degs.pop()

    # -- degree slices -----------------------------------------------------

    def slice_cells(self, d: int) -> list[tuple[str, int]]:
        """The (generator, v-exponent) cells spanning the degree-d slice of the free cover."""
        return self._slice(d)[0]

    def _slice(self, d: int):
        if d not in self._slice_cache:
            vd = self.ring.v_degree
            cells = []
            for g in self.generators.values():
                rem = d - g.degree
                if rem >= 0 and rem % vd == 0:
                    cells.append((g.gid, rem // vd))
            index = {c: i for i, c in enumerate(cells)}
            self._slice_cache[d] = (cells, index)
        return self._slice_cache[d]

    def slice_relation_rows(self, d: int) -> list[list[int]]:
        """Every v-power multiple of every relation that lands in degree d."""
        cells, index = self._slice(d)
        vd = self.ring.v_degree
        rows = []
        for base, rel in self._relations_by_residue.get(d % vd, ()):
            if base > d:
                continue
            shift = (d - base) // vd
            row = [0] * len(cells)
            for coeff, v_exp, gid in rel.terms:
                row[index[(gid, v_exp + shift)]] += coeff
            if any(row):
                rows.append(row)
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
        """(free rank, sorted p-local torsion orders) of the degree-d group."""
        if d not in self._group_cache:
            cells = self.slice_cells(d)
            rows = self.slice_relation_rows(d)
            self._group_cache[d] = group_invariants(rows, len(cells), self.ring.p)
        return self._group_cache[d]

    def subquot_at(self, d: int) -> SubQuot:
        """Summand-level structure of the degree-d group, with generator vectors."""
        if d not in self._subquot_cache:
            n = len(self.slice_cells(d))
            self._subquot_cache[d] = SubQuot(self.ring.p, n, None, self.slice_relation_rows(d))
        return self._subquot_cache[d]

    def is_zero_at(self, d: int, terms) -> bool:
        return self.subquot_at(d).is_zero(self.element_vector(d, terms))

    def order_of(self, d: int, terms) -> int:
        """p-local order of a homogeneous element (0 for infinite order)."""
        sq = self.subquot_at(d)
        order = 1
        for c, o in zip(sq.express(self.element_vector(d, terms)), sq.orders):
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
        out = []
        for idx in range(len(sq.summands)):
            vec = sq.generator_vector(idx)
            pick = None
            for i, c in enumerate(vec):
                if c and c % self.ring.p != 0:
                    pick = (1, i, c)
                    break
            if pick is None:
                for i, c in enumerate(vec):
                    if c:
                        pick = (self.ring.p ** nu(self.ring.p, c), i, c)
                        break
            mult, i, _ = pick
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
        gens = [Generator(g.gid, g.degree + shift, g.label) for g in self.generators.values()]
        bound = None if self.complete_below is None else self.complete_below + shift
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
        gens = [g for part in parts for g in part.generators.values()]
        rels = [rel for part in parts for rel in part.relations]
        bounds = [part.complete_below for part in parts if part.complete_below is not None]
        return GradedModulePresentation(ring, gens, rels, min(bounds, default=None))

    def dual(self, lo: int, hi: int, prefix: str = "D") -> "GradedModulePresentation":
        """Per-degree character dual on [lo, hi]: negated degrees, transposed v-action.

        Every degree in the window must be finite.
        """
        vd = self.ring.v_degree
        summands: dict[int, list[int]] = {}
        for d in range(lo, hi + 1):
            sq = self.subquot_at(d)
            if sq.free_rank():
                raise ValueError(f"dual needs finite groups; degree {d} has free rank")
            summands[d] = [o for o, _ in sq.summands]
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
    summands of the source's `subquot_at(d)` to those of the target's
    `subquot_at(d + shift)`.  There both groups are Z_(p)^s / L_a and
    Z_(p)^t / L_b with L_a, L_b the diagonal lattices of the summand orders,
    so each answer is a tiny `SubQuot` in summand coordinates, not one over
    the whole degree slice.  That reading is a map of groups only when the
    map respects relations (`respects_relations`): the images of the source
    relations must vanish in the target.  `GradedModulePresentation.dual`
    reads the same matrix for the map v.
    """

    def __init__(self, source: GradedModulePresentation, target: GradedModulePresentation,
                 images: dict[str, tuple[Term, ...]], degree_shift: int = 0):
        self.source = source
        self.target = target
        self.images = images
        self.degree_shift = degree_shift
        self._summand_cache: dict[int, list[list]] = {}
        for gid, terms in images.items():
            if terms:
                want = source.generators[gid].degree + degree_shift
                got = target.term_degree(terms)
                if want != got:
                    raise ValueError(f"image of {gid} has degree {got}, expected {want}")

    def image_of_cell(self, gid: str, e: int) -> list[Term]:
        return [(c, e + ve, t) for c, ve, t in self.images.get(gid, ())]

    def matrix(self, d: int) -> list[list[int]]:
        """Matrix from the degree-d slice cells to the degree-(d+shift) target slice."""
        out = []
        td = d + self.degree_shift
        for gid, e in self.source.slice_cells(d):
            out.append(self.target.element_vector(td, self.image_of_cell(gid, e)))
        return out

    def respects_relations(self, degrees=None) -> bool:
        """Check the images of all source relations vanish in the target."""
        for base, rel in (pair for group in self.source._relations_by_residue.values()
                          for pair in group):
            if degrees is not None and base not in degrees:
                continue
            img: list[Term] = []
            for coeff, v_exp, gid in rel.terms:
                img.extend((coeff * c, v_exp + ve, t) for c, ve, t in self.images.get(gid, ()))
            if not img:
                continue
            td = base + self.degree_shift
            if not self.target.is_zero_at(td, img):
                return False
        return True

    def summand_matrix(self, d: int) -> list[list]:
        """The map from degree d to degree d + shift in summand coordinates.

        Row j is `target.subquot_at(d + shift).express` of the image of the
        generator of summand j of `source.subquot_at(d)`: ints mod the order
        in torsion columns, p-local Fractions in free ones.  Cached per degree.
        """
        if d not in self._summand_cache:
            td = d + self.degree_shift
            src_sq = self.source.subquot_at(d)
            tgt_sq = self.target.subquot_at(td)
            cells = self.source.slice_cells(d)
            mat = []
            for j in range(len(src_sq.summands)):
                terms: list[Term] = []
                for (gid, e), c in zip(cells, src_sq.generator_vector(j)):
                    if c:
                        terms.extend((c * a, ve, t) for a, ve, t in self.image_of_cell(gid, e))
                mat.append(tgt_sq.express(self.target.element_vector(td, terms)))
            self._summand_cache[d] = mat
        return self._summand_cache[d]

    def integral_summand_matrix(self, d: int) -> tuple[list[list[int]], list[int]]:
        """(rows, units): row j of `summand_matrix(d)` times the p-unit units[j]
        that clears its denominators.  The rows span the same Z_(p)-lattice."""
        rows, units = [], []
        for row in self.summand_matrix(d):
            u = lcm(*(x.denominator for x in row))
            rows.append([int(x * u) for x in row])
            units.append(u)
        return rows, units

    def image_subquot(self, d: int) -> SubQuot:
        """Image of the degree-d group, (span M + L_b) / L_b in the summand
        coordinates of the target's `subquot_at(d + shift)`.

        M is `integral_summand_matrix(d)` and L_b the target's order lattice;
        the map must respect relations.
        """
        rows, _ = self.integral_summand_matrix(d)
        orders = self.target.subquot_at(d + self.degree_shift).orders
        return SubQuot(self.target.ring.p, len(orders), rows, order_rows(orders))

    def injective_at(self, d: int) -> bool:
        src_sq = self.source.subquot_at(d)
        img = self.image_subquot(d)
        return (img.free_rank() == src_sq.free_rank()
                and img.total_order_exponent() == src_sq.total_order_exponent())

    def surjective_at(self, d: int) -> bool:
        tgt_sq = self.target.subquot_at(d + self.degree_shift)
        img = self.image_subquot(d)
        return (img.free_rank() == tgt_sq.free_rank()
                and img.torsion() == tgt_sq.torsion())


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
    sub = GradedModulePresentation(ring, gens, [], hi)
    inclusion = ModuleMap(sub, module, defs)
    lo = min(g.degree for g in gens)
    for d in range(lo, hi, 1):
        cells = sub.slice_cells(d)
        if not cells:
            continue
        mat = inclusion.matrix(d)
        tgt_rows = module.slice_relation_rows(d)
        n_tgt = len(module.slice_cells(d))
        stacked = mat + tgt_rows
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
            sub.add_relation(Relation(terms))
            # the new relation's degree-d slice row is `row`, so the old
            # basis plus `row` spans the lattice of the whole new slice
            basis = [[0] * n_src for _ in have[0]]
            for dense, b in zip(basis, have[0]):
                for j, x in b.items():
                    dense[j] = x
            have = row_hermite(basis + [row], n_src, ring.p)
    return sub
