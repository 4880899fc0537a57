"""Multiplicative Bockstein spectral sequence engine.

A slot's page is its cell orders with Z (cycles) and B (boundaries), both
tuples of `_intlin` rows of (column, value) pairs inside the ambient slot
group.  The zero lattice L = B + the ambient order rows always lies inside Z,
so the page is Z / L and its `SubQuot` answers every question a page
turn asks: a vector is a cycle when `express` finds coordinates, and a zero
class when they all vanish.  Differentials are supplied as explicit rules
d_r(source vector) = target vector; a page turn applies all same-page rules
simultaneously, checks them for consistency, gives each touched slot its new
page and checks that L is still inside Z (a boundary that is not a cycle
means d o d != 0).  After the last page the E_infinity slots are assembled
into one abelian group per degree, resolving filtration jumps through
declared extension instances.

Conventions: a rule on slot (d, s) has its target in slot (d - 1, s + r),
i.e. the Bockstein variable carries internal degree |v| with the slot's
internal degree d already including s * |v| (so d is the total degree of the
abutment class).  The differential on a page is the Q-linear extension of its
rules: a cycle outside the Q-span of the rule sources, or one whose image
needs a p in a denominator, is an `EngineError`, and so is a rule whose slot
or target slot is not a cell.

Each setup's E1 page is a base row tensored with a polynomial on the
Bockstein variable (base degree b at filtration s is slot (b + s * |v|, s)),
and its differentials are linear over that variable, so `_tower` places a rule
or extension stated once at its base degree wherever both its slots are cells.

Every lattice and coordinate question goes to `_intlin`: one `SmithForm`
of a slot's rules gives their consistency kernel and each cycle's image, a
page's `SubQuot` answers the d o d audit with its relation solve, and in
`assemble` one `SmithForm` per extension source and page gives every unit
ratio asked of it, so this module runs no elimination of its own.

The v-tower states no fact of its own: its cells are `closed_forms.hz_classes`
(l1, a_i, b_i), its d_(p+...+p^n) differentials are `thc.tower_rule_set`
(also what `units:naturality-closure` checks), its extensions on a_(p^k)
are `closed_forms.chain_extension`, and those on b_m are
`closed_forms.hidden_extension` (also what `verify.torsion_word_transport`
checks against the torsion modules).

The eta tower reads its cells and classes through
`thh_ko_ku(window + 1).coordinates`, the coefficient of each odd chain d1
from `closed_forms.fko_eta_missing`, the Leibniz term of each torsion d1
from `closed_forms.hidden_extension`, and its hidden 2-extensions from
`closed_forms.ko_hidden_extension` (also what `thh_ko` reads).  It states
two facts of its own: the period-operator term 2 v^(t-1) b'_m of
d1(v^t b'_m) for odd t, and the d2 shape, from v^(2j) b'_(2^n) onto the
chain class three degrees down.
"""

from math import gcd, lcm
from typing import NamedTuple

from ._intlin import (
    SmithForm,
    SubQuot,
    dense_row,
    group_invariants,
    order_rows,
    row_kernel,
    sparse_rows,
)
from .padic import PrimeContext, nu
from . import closed_forms as cf, thc


class EngineError(Exception):
    """A declared differential contradicts the current page."""


class _Ceiling(Exception):
    """An extension chain left the assembled filtration range."""


class Rule(NamedTuple):
    page: int
    slot: tuple[int, int]
    source: tuple[int, ...]
    target: tuple[int, ...]
    name: str


class Extension(NamedTuple):
    """p * (lift of the class of `source`) = next layer + sum of targets.

    Each target is (coefficient, slot, cell vector) and stands for the
    coefficient u p^c (u a p-unit) times the lift of the vector's class, so
    the target's own extensions count.  The implicit "next layer" term is
    the class of p * source in the same slot, which the assembler picks up
    on its own.
    """

    slot: tuple[int, int]
    source: tuple[int, ...]
    targets: tuple[tuple[int, tuple[int, int], tuple[int, ...]], ...]


class Page(NamedTuple):
    """A slot's cell orders, cycles Z and boundaries B; B holds no empty row."""

    orders: tuple[int, ...]
    Z: tuple[tuple[tuple[int, int], ...], ...]
    B: tuple[tuple[tuple[int, int], ...], ...]

    def zero_rows(self) -> list:
        """The boundaries and ambient order rows, as `_intlin` rows."""
        return [*self.B, *order_rows(self.orders)]


class SpectralSequence:
    """Each slot's cells are given by their ambient orders (a p-power, 0 if free).

    Pages are the only state: `pages` lists each distinct `Page` once, by
    int key, with its `SubQuot` at the same key of `_subquots`, and `key`
    maps each slot to the key of its current page.  A turn gives each slot
    it touches a new page, (orders, new Z, B) at a source and (orders, Z,
    B + images) at a target; a new page is stored only if its `SubQuot`
    finds the zero lattice inside the cycles (the d o d audit).  A v-tower
    repeats a page from filtration to filtration (76 pages serve the 90,300
    slots of the v-tower at p=2, w=1200), so the work is keyed by page
    keys: one `SubQuot` per page, one turn result per (page, source key,
    target key, rule sources and targets), and one passed rank-nullity
    audit.  Pages are tuples, so a cached answer is a function of its key
    alone; a computation that raises `EngineError` stores nothing, and the
    error ends the run.  The caches live on the instance, so a fresh
    sequence (`EngineSetup.sign_flipped`) starts cold, and `restart`, which
    puts every slot back on its E1 page, keeps them.  `turned` tells whether
    `run` has turned a page since the E1 pages.
    """

    def __init__(self, p: int, cells: dict[tuple[int, int], list[int]]):
        self.p = p
        self.cells = cells
        self._ids: dict[Page, int] = {}      # page -> key
        self.pages: list[Page] = []          # key -> page
        self._subquots: list[SubQuot] = []   # key -> the page's SubQuot
        self.restart()
        self._turns: dict[tuple, tuple | None] = {}
        self._balanced: set[tuple] = set()  # (old, new) page keys that pass rank-nullity

    def restart(self) -> None:
        """Put every slot on its E1 page: every cell a cycle, no boundaries."""
        self.key = {slot: self._store(
                        Page(tuple(cs), tuple(((i, 1),) for i in range(len(cs))), ()))
                    for slot, cs in self.cells.items()}
        self.turned = False

    def _store(self, page: Page) -> int:
        """The key of `page`; a new page is stored with its `SubQuot`, unless that raises."""
        key = self._ids.get(page)
        if key is None:
            sq = SubQuot(self.p, len(page.orders), list(page.Z), page.zero_rows())
            key = self._ids[page] = len(self.pages)
            self.pages.append(page)
            self._subquots.append(sq)
        return key

    def page(self, slot) -> Page:
        return self.pages[self.key[slot]]

    def subquot(self, slot) -> SubQuot:
        return self._subquots[self.key[slot]]

    # -- page turns ---------------------------------------------------------

    def run(self, rules: list[Rule], last_page: int) -> None:
        self.turned = True
        by_page: dict[int, list[Rule]] = {}
        for rule in rules:
            by_page.setdefault(rule.page, []).append(rule)
        for r in sorted(by_page):
            if r > last_page:
                break
            self._turn(r, by_page[r])

    def _turn(self, r: int, rules: list[Rule]) -> None:
        by_slot: dict[tuple[int, int], list[Rule]] = {}
        for rule in rules:
            if rule.slot not in self.cells:
                raise EngineError(f"{rule.name}: slot {rule.slot} is not a cell")
            by_slot.setdefault(rule.slot, []).append(rule)
        updates = []
        for slot, slot_rules in sorted(by_slot.items()):
            d, s = slot
            tgt = (d - 1, s + r)
            if tgt not in self.cells:
                raise EngineError(f"page {r} at {slot}: target slot {tgt} is not a cell")
            ask = (r, self.key[slot], self.key[tgt],
                   tuple((rule.source, rule.target) for rule in slot_rules))
            if ask not in self._turns:
                self._turns[ask] = self._slot_differential(r, slot, tgt, *ask[1:3], slot_rules)
            if self._turns[ask] is not None:
                updates.append((slot, tgt, *ask[1:3], *self._turns[ask]))
        # every turn reads the pages before any changes; a slot that is both
        # a source and a target takes its new Z and its new boundaries
        pages = {}
        for src, tgt, s_key, t_key, new_z, images in updates:
            orders, _, B = pages.get(src) or self.pages[s_key]
            pages[src] = Page(orders, new_z, B)
            orders, Z, B = pages.get(tgt) or self.pages[t_key]
            pages[tgt] = Page(orders, Z, B + images)
        for slot, page in pages.items():
            try:
                self.key[slot] = self._store(page)
            except ValueError as err:
                # a boundary that the page before maps to a nonzero class
                # is not a cycle: d o d != 0
                raise EngineError(
                    f"page {r}: a boundary at {slot} is not a cycle (d o d != 0)") from err
        sources = {u[0] for u in updates}
        targets = {u[1] for u in updates}
        for src, tgt, s_key, t_key, *_ in updates:
            if src in targets or tgt in sources:
                continue  # mixed roles: drops are not separable
            ask = (s_key, t_key, self.key[src], self.key[tgt])
            if ask in self._balanced:
                continue
            s_old, t_old, s_new, t_new = (self._subquots[k] for k in ask)
            if (s_new.free_rank() > s_old.free_rank()
                    or t_new.free_rank() > t_old.free_rank()):
                raise EngineError(f"page {r}: slice rank grew at {src}->{tgt}")
            if s_old.free_rank() == 0 and t_old.free_rank() == 0:
                s_drop = s_old.total_order_exponent() - s_new.total_order_exponent()
                t_drop = t_old.total_order_exponent() - t_new.total_order_exponent()
                if s_drop != t_drop:
                    raise EngineError(
                        f"page {r}: rank-nullity fails at {src}->{tgt}: "
                        f"source drop {s_drop}, target drop {t_drop}")
            self._balanced.add(ask)

    def _slot_differential(self, r: int, slot, tgt_slot, s_key: int, t_key: int,
                           slot_rules):
        """(new Z rows, new boundary rows of the target) of one slot's turn,
        or None when every rule is vacuous; reads only the pages of the two
        keys and the rules' sources and targets (the slots name errors)."""
        p = self.p
        source, target = self.pages[s_key], self.pages[t_key]
        dim_s, dim_t = len(source.orders), len(target.orders)
        sq_s, sq_t = self._subquots[s_key], self._subquots[t_key]

        X, Y = [], []
        for rule in slot_rules:
            src, tgt = list(rule.source), list(rule.target)
            coords = sq_s.express(src)
            if coords is None:
                raise EngineError(f"{rule.name}: source is not a cycle")
            if not any(coords[0]):
                continue  # vacuous: the source class is already zero
            if any(tgt):
                coords = sq_t.express(tgt)
                if coords is None:
                    raise EngineError(f"{rule.name}: target is not a cycle")
                if not any(coords[0]):
                    raise EngineError(f"{rule.name}: target class is already zero")
            # an all-zero target is an explicit d(x) = 0 statement; it still
            # pins the differential on the source's span
            X.append(src)
            Y.append(tgt)
        if not X:
            return None
        # the zero lattice represents the zero class, so the linear
        # differential must send it into the target's zero lattice; its rows
        # join the rules with zero image (Y stops at the rules) and can force
        # values on directions no rule names
        X = sparse_rows(X) + source.zero_rows()
        # combinations of sources that vanish must have vanishing image
        # classes, otherwise the rules are not a homomorphism
        sf = SmithForm(X, dim_s, p=p)
        for lam in sf.kernel():
            img = [sum(c * y[j] for c, y in zip(lam, Y)) for j in range(dim_t)]
            if not sq_t.is_zero(img):
                raise EngineError(
                    f"page {r} at {slot}: inconsistent differentials")
        # the differential is the Q-linear extension of the rules: each
        # cycle's image is read off its coordinates over the rule sources
        images = []
        cycles = [dense_row(z, dim_s) for z in source.Z]
        for z in cycles:
            sol = sf.coordinates(z)
            if sol is None:
                raise EngineError(
                    f"page {r} at {slot}: a cycle is outside the span of the rules")
            nums, den = sol
            img = [sum(c * y[j] for c, y in zip(nums, Y)) for j in range(dim_t)]
            g = gcd(den, *img)
            if den // g % p == 0:
                raise EngineError(
                    f"page {r} at {slot}: differential requires division by {p}")
            images.append(([v // g for v in img], den // g))
        # new cycles: z with image zero modulo the target's zero lattice
        den = lcm(*(d for _, d in images))
        w_rows = [[v * (den // d) for v in img] for img, d in images]
        scaled_lt = [[(j, den * v) for j, v in row] for row in target.zero_rows()]
        new_z = []
        for row in row_kernel(sparse_rows(w_rows) + scaled_lt, dim_t, p):
            mu = row[:len(images)]
            if any(mu):
                new_z.append([sum(m * z[j] for m, z in zip(mu, cycles)) for j in range(dim_s)])
        # an all-zero target adds no boundary
        return (tuple(map(tuple, sparse_rows(new_z))),
                tuple(tuple(row) for row in sparse_rows(Y) if row))

    # -- assembly -----------------------------------------------------------

    def assemble(self, extensions: list[Extension], hi: int,
                 smax: int) -> dict[int, tuple[int, list[int]]]:
        """(free rank, sorted torsion orders) of the abutment in each degree
        of [0, hi], from the E_infinity slots of filtration at most smax.

        Each surviving summand is one generator of its degree; each torsion
        summand contributes the relation order * g = (lift of the extensions
        declared on it), which only involves generators of the same degree.
        """
        p = self.p
        exts: dict[tuple[int, int], list[Extension]] = {}
        for ext in extensions:
            exts.setdefault(ext.slot, []).append(ext)
        sqs: dict[tuple[int, int], SubQuot] = {}
        column: dict[tuple[tuple[int, int], int], int] = {}
        ngens = dict.fromkeys(range(hi + 1), 0)
        # the Smith form of each extension source over its slot's zero rows,
        # keyed by (source, page key): a v-tower repeats it from slot to
        # slot; and each unit ratio asked of a form, keyed by (form key, vector)
        forms: dict[tuple, SmithForm] = {}
        ratios: dict[tuple, tuple[int, int] | None] = {}
        for slot in sorted(self.cells):
            d, s = slot
            if not (d <= hi and s <= smax):
                continue
            sq = self.subquot(slot)
            if sq.summands:
                sqs[slot] = sq
                for i in range(len(sq.summands)):
                    column[(slot, i)] = ngens[d]
                    ngens[d] += 1

        # a class in generator coordinates is ({generator: int}, den): the
        # ints over one positive common p-unit denominator
        def to_y(slot, vec):
            if slot not in sqs:
                if slot in self.cells and not self.subquot(slot).summands:
                    return {}, 1
                raise _Ceiling()
            coords = sqs[slot].express(vec)
            if coords is None:
                raise EngineError(f"assembly: class at {slot} escapes the cycles")
            ints, unit = coords
            return {(slot, i): c for i, c in enumerate(ints) if c}, unit

        def lift(slot, vec, k):
            if not any(vec):
                return {}, 1
            if k == 0:
                return to_y(slot, vec)
            out, den = lift(slot, [p * v for v in vec], k - 1)
            for ext in exts.get(slot, []):
                key = (ext.source, self.key[slot])
                ask = (key, tuple(vec))
                if ask not in ratios:
                    if key not in forms:
                        forms[key] = SmithForm(
                            sparse_rows([ext.source]) + self.page(slot).zero_rows(),
                            len(self.cells[slot]), p=p)
                    ratios[ask] = self._class_unit_ratio(forms[key], vec)
                if ratios[ask] is None:
                    continue
                u, u_den = ratios[ask]
                for coeff, slot2, vec2 in ext.targets:
                    c = nu(p, coeff)
                    sub, sub_den = lift(slot2, list(vec2), k - 1 + c)
                    # out / den += (u / u_den) * (coeff / p^c) * sub / sub_den
                    t = u_den * sub_den
                    new = lcm(den, t)
                    if new != den:
                        out = {gen: val * (new // den) for gen, val in out.items()}
                        den = new
                    w = u * (coeff // p**c) * (new // t)
                    for gen, val in sub.items():
                        out[gen] = out.get(gen, 0) + w * val
            return out, den

        rows: dict[int, list[list[int]]] = {d: [] for d in ngens}
        for slot, sq in sqs.items():
            d = slot[0]
            for i, order in enumerate(sq.orders):
                if order == 0:
                    continue
                try:
                    rhs, den = lift(slot, sq.generator_vector(i), nu(p, order))
                except _Ceiling:
                    continue  # the tower leaves the window: no relation
                terms = {(slot, i): order * den}
                for gen, val in rhs.items():
                    if gen[0][0] != d:
                        raise EngineError(
                            f"assembly: extension at {slot} leaves degree {d}")
                    terms[gen] = terms.get(gen, 0) - val
                # the relation is terms / den, written over its least denominator
                g = gcd(den, *terms.values())
                if den // g % p == 0:
                    raise EngineError(f"assembly: non-local relation at {slot}")
                rows[d].append([(column[gen], val // g)
                                for gen, val in terms.items() if val])
        return {d: group_invariants(rows[d], ngens[d], p) for d in ngens}

    def _class_unit_ratio(self, sf: SmithForm, veca) -> tuple[int, int] | None:
        """(num, den), p-units in lowest terms with den > 0, with [veca] =
        (num / den) * [vecb]; or None when there is no such p-adic unit.
        `sf` is the Smith form of vecb over the zero rows of the slot."""
        p = self.p
        sol = sf.coordinates(veca)
        if sol is None or sol[1] % p == 0 or sol[0][0] % p == 0:
            return None
        g = gcd(sol[0][0], sol[1])
        return sol[0][0] // g, sol[1] // g


class EngineSetup(NamedTuple):
    ss: SpectralSequence
    rules: list[Rule]
    extensions: list[Extension]
    window: int
    chain_smax: int

    def run(self) -> dict[int, tuple[int, list[int]]]:
        """The assembled table; a second run restarts the sequence from E1
        and reads its page-keyed caches, so it gives the same table."""
        if self.ss.turned:
            self.ss.restart()
        self.ss.run(self.rules, max((rule.page for rule in self.rules), default=0))
        return self.ss.assemble(self.extensions, self.window, self.chain_smax)

    def sign_flipped(self) -> "EngineSetup":
        flipped = [Rule(r.page, r.slot, r.source,
                        tuple(-t for t in r.target), r.name)
                   for r in self.rules]
        return EngineSetup(SpectralSequence(self.ss.p, self.ss.cells),
                           flipped, self.extensions, self.window, self.chain_smax)


def _tower(base: dict[int, list[int]], shift: int, height: int, top: int):
    """`cells` puts the row of base degree b in slot (b + s * shift, s) for
    each s <= height with b + s * shift <= top; `pairs(src, tgt, jump)` yields
    the (source slot, target slot) pairs of a rule from base degree src to
    base degree tgt, jump filtrations up, at each s where both are cells."""
    cells = {(b + s * shift, s): row for b, row in base.items()
             for s in range(height + 1) if b + s * shift <= top}

    def pairs(src: int, tgt: int, jump: int):
        for s in range(height + 1):
            a, b = (src + s * shift, s), (tgt + (s + jump) * shift, s + jump)
            if a in cells and b in cells:
                yield a, b

    return cells, pairs


# -- integral-coefficient sequence over the mod-p page ---------------------------


def v0_tower_setup(ctx: PrimeContext, window: int) -> EngineSetup:
    """First-variable Bockstein: exterior-times-polynomial page, p-filtration."""
    p = ctx.p
    chain_smax = 10
    by_deg: dict[int, list[tuple[int, int, int]]] = {}
    for d, e1, e2, i in cf.hfp_monomials(p, window + 1):
        by_deg.setdefault(d, []).append((e1, e2, i))
    last_page = max((nu(p, i) + 1 for mons in by_deg.values()
                     for _, _, i in mons if i), default=1)
    cells, pairs = _tower({d: [p] * len(mons) for d, mons in by_deg.items()},
                          0, chain_smax + last_page, window + 1)
    rules = []
    for d, mons in by_deg.items():
        for j, (e1, e2, i) in enumerate(mons):
            if e2 or i == 0:
                continue
            tgt_mons = by_deg.get(d - 1, [])
            if (e1, 1, i - 1) not in tgt_mons:
                continue
            page = nu(p, i) + 1
            src = tuple(1 if t == j else 0 for t in range(len(mons)))
            tgt = tuple(1 if m == (e1, 1, i - 1) else 0 for m in tgt_mons)
            rules += [Rule(page, slot, src, tgt,
                           f"d{page}({cf.monomial_label(e1, e2, i)})")
                      for slot, _ in pairs(d, d - 1, page)]
    exts = []
    for d, mons in by_deg.items():
        for j in range(len(mons)):
            vec = tuple(1 if t == j else 0 for t in range(len(mons)))
            exts += [Extension(src, vec, ((1, tgt, vec),)) for src, tgt in pairs(d, d, 1)]
    return EngineSetup(SpectralSequence(p, cells), rules, exts, window, chain_smax)


# -- second-variable sequence over the integral page -----------------------------


def v1_tower_setup(ctx: PrimeContext, window: int) -> EngineSetup:
    """v-Bockstein over the HZ answer, from the four tables the module
    docstring names; a rule (page, i, m, val) reads d_page((i - m) a_i) =
    p^val b_m, where i - m = p^(n-1) is the index step of its level."""
    p = ctx.p
    vd = 2 * p - 2
    chain_smax = window // vd + 2
    classes = cf.hz_classes(p, window + 1)
    degree = {gid: deg for gid, deg, _ in classes}
    cells, pairs = _tower({deg: [order] for _, deg, order in classes},
                          vd, chain_smax - 1, window + 1)
    rules = [Rule(page, src, (i - m,), (p**val,), f"d{page}(a{i})")
             for page, i, m, val in sorted(thc.tower_rule_set(ctx, window))
             for src, _ in pairs(degree[f"a{i}"], degree[f"b{m}"], page)]
    stated = []
    while (ext := cf.chain_extension(p, len(stated)))[0] in degree:
        stated.append(ext)
    m = 1
    while f"b{m}" in degree:
        if ext := cf.hidden_extension(p, m):
            m2, e, c = ext
            stated.append((f"b{m}", 1, f"b{m2}", e, c))
        m += 1
    exts = [Extension(src, (mult,), ((p**c, tgt, (1,)),))
            for gid, mult, target, e, c in stated
            for src, tgt in pairs(degree[gid], degree[target], e)]
    return EngineSetup(SpectralSequence(p, cells), rules, exts, window, chain_smax)


# -- eta-filtration sequence for the ko answer -----------------------------------


def eta_tower_setup(window: int) -> EngineSetup:
    """eta-Bockstein over the ku-coefficient answer `thh_ko_ku(window + 1)`,
    from the tables the module docstring names."""
    p = 2
    chain_smax = 6
    smax = chain_smax + 2
    ku = cf.thh_ko_ku(window + 1)

    def free_gen(d):
        """The unit vector of the one infinite summand in degree d."""
        orders = ku.subquot_at(d).orders
        idx = [i for i, o in enumerate(orders) if o == 0]
        if len(idx) != 1:
            raise EngineError(f"expected one infinite summand in degree {d}")
        return tuple(1 if i == idx[0] else 0 for i in range(len(orders)))

    def element(d, terms):
        """Integral summand coordinates of a class, or None when it is zero."""
        coords, _ = ku.coordinates(d, terms)
        return tuple(coords) if any(coords) else None

    rows = {deg: ku.subquot_at(deg).orders for deg in range(window + 2)}
    cells, pairs = _tower({deg: row for deg, row in rows.items() if row},
                          1, smax, window + 1 + smax)
    rules = []
    # the divided chain's odd towers drop one step, by 2 unless the eta
    # class below is missing from the ko chain
    e = 1
    while 5 + 2 * e <= window + 1:
        deg = 5 + 2 * e
        coeff = 1 if cf.fko_eta_missing((e - 1) // 2) else 2
        src = free_gen(deg)
        tgt = tuple(coeff * t for t in free_gen(deg - 2))
        rules += [Rule(1, slot, src, tgt, f"d1(z{e})") for slot, _ in pairs(deg, deg - 2, 1)]
        e += 2
    # torsion-to-torsion differentials; each class is a period-operator
    # multiple of a torsion bottom, and the odd multiples pick up an extra
    # term by the Leibniz rule because the period operator itself drops one
    # step with coefficient two.  Where b_m carries the hidden extension
    # 2 b_m = 2^c v^e b_m2, d1 also has the term 2^c v^(e-1+t) b'_m2, one v
    # lower because b'_m = v g_w.  Targets that vanish still enter the rule list as explicit d1 = 0
    # statements so the Q-linear extension cannot misassign the span of a
    # class that mixes several summands.
    m = 1
    while 8 * m + 4 <= window + 1:
        ext = cf.hidden_extension(2, m)
        t = 0
        while 8 * m + 4 + 2 * t <= window + 1:
            deg = 8 * m + 4 + 2 * t
            src = element(deg, ((1, t, cf.bprime_gid(m)),))
            if src is None:
                break
            terms = []
            if t % 2 == 1:
                terms.append((2, t - 1, cf.bprime_gid(m)))
            if ext:
                m2, e, c = ext
                terms.append((2**c, e - 1 + t, cf.bprime_gid(m2)))
            tgt = element(deg - 2, tuple(terms)) if terms else None
            tgt = tgt or tuple([0] * len(rows[deg - 2]))
            rules += [Rule(1, slot, src, tgt, f"d1(v^{t}b'{m})")
                      for slot, _ in pairs(deg, deg - 2, 1)]
            t += 1
        m += 1
    # two-step differentials out of the even multiples of the power-of-two
    # levels onto the chain; the odd multiples that survive the first page
    # are permanent
    for n in cf.ko_levels(window + 1, 0):
        j = 0
        while 8 * 2**n + 4 + 4 * j <= window + 1:
            deg = 8 * 2**n + 4 + 4 * j
            src = element(deg, ((1, 2 * j, cf.bprime_gid(2**n)),))
            if src is None:
                break
            rules += [Rule(2, slot, src, free_gen(deg - 3), f"d2(v^{2*j}b'{2**n})")
                      for slot, _ in pairs(deg, deg - 3, 2)]
            j += 1

    # hidden multiplications by 2 from the dual torsion bottoms onto eta
    # classes; the degrees grow with k, and past window + 1 no slot is a cell
    exts = []
    n = 1
    while cf.ko_hidden_extension(n, 0)[0] <= window:
        for k in range(cf.ttilde_top_degree(n) // 4 + 1):
            deg, _, e = cf.ko_hidden_extension(n, k)
            if deg > window + 1:
                break
            src = element(deg, ((1, e, cf.bprime_gid(2**n)),))
            if src is None:
                raise EngineError(f"hidden extension source vanishes in degree {deg}")
            exts.append(Extension((deg, 0), src,
                                  ((1, (deg, 1), free_gen(deg - 1)),)))
        n += 1
    return EngineSetup(SpectralSequence(p, cells), rules, exts, window, chain_smax)


# -- eta-filtration sequence for the ko coefficients -----------------------------


def ko_base_setup(window: int) -> EngineSetup:
    chain_smax = 10
    js = range(window // 2 + 2)
    cells, pairs = _tower({2 * j: [0] for j in js}, 1, chain_smax + 3, window + 1)
    rules = []
    for j in js:
        if j % 2 == 1:
            rules += [Rule(1, slot, (1,), (2,), f"d1(v^{j})")
                      for slot, _ in pairs(2 * j, 2 * j - 2, 1)]
        if j % 4 == 2:
            rules += [Rule(3, slot, (1,), (1,), f"d3(v^{j})")
                      for slot, _ in pairs(2 * j, 2 * j - 4, 3)]
    return EngineSetup(SpectralSequence(2, cells), rules, [], window, chain_smax)
