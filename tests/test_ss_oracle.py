"""An oracle for the page turn.

Random small chain complexes of p-local cells (orders 0, p and p^2) with
v-free differentials are turned once by the engine, and each slot's page is
compared with its homology computed directly: a Z-basis of the cycles from
an integer row reduction written here, the boundaries and order rows in
that basis, and the invariants of the quotient, read by `group_invariants`
and, on the shorter chains, by sympy's Smith normal form.  A metamorphic
check rescales cell generators of the v1 tower by p-units and rewrites the
rules and extensions to match; the assembled table must not change.
"""
import random
from fractions import Fraction

import pytest

from thh import _intlin, ss
from thh.padic import PrimeContext, nu


def _unit(rng, p):
    """A random p-unit, sometimes other than +-1."""
    while True:
        u = rng.randrange(1, 3 * p)
        if u % p:
            return rng.choice((1, -1)) * u


def _entry(rng, p, o_src, o_tgt):
    """A matrix entry of a homomorphism Z/o_src -> Z/o_tgt (0 means Z),
    reduced mod o_tgt so that a zero class is a zero entry."""
    if rng.random() < 0.2:
        return 0
    if o_tgt == 0:
        return 0 if o_src else _unit(rng, p) * p ** rng.randrange(3)
    b = nu(p, o_tgt)
    a = nu(p, o_src) if o_src else b
    return _unit(rng, p) * p ** rng.randint(max(0, b - a), b) % o_tgt


def _composite_vanishes(d1, d2, orders):
    for row in d1:
        for j, o in enumerate(orders):
            c = sum(x * col[j] for x, col in zip(row, d2))
            if (c % o if o else c) != 0:
                return False
    return True


def _random_chain(rng, p, length, *, dd_zero=True):
    """Cell orders per slot and the matrices of d from each slot to the next;
    with dd_zero=False the first composite is nonzero."""
    orders = [[rng.choice((0, p, p * p)) for _ in range(rng.randint(1, 2))]
              for _ in range(length)]
    maps = []
    for k in range(length - 1):
        src, tgt = orders[k], orders[k + 1]
        # prefer a nonzero map; d o d = 0 may force the zero one
        for tries in range(400):
            d = [[_entry(rng, p, o, t) for t in tgt] for o in src]
            if tries < 200 and not any(any(row) for row in d):
                continue
            if k == 0 or _composite_vanishes(maps[-1], d, tgt) == (dd_zero or k > 1):
                break
        else:
            return None
        maps.append(d)
    return orders, maps


def _slots(length):
    # a page-1 rule on (d, s) lands in (d - 1, s + 1)
    return [(length - k, k) for k in range(length)]


def _engine(p, orders, maps):
    slots = _slots(len(orders))
    seq = ss.SpectralSequence(p, dict(zip(slots, orders)))
    rules = [ss.Rule(1, slots[k], tuple(int(i == c) for c in range(len(d))), tuple(row),
                     f"d1(x{k}.{i})")
             for k, d in enumerate(maps) for i, row in enumerate(d)]
    seq.run(rules)
    return seq, slots


def _left_kernel(rows, ncols):
    """A Z-basis of {x in Z^len(rows) : x * rows = 0}, by integer row
    reduction of [rows | identity]."""
    n = len(rows)
    aug = [list(r) + [int(i == k) for k in range(n)] for i, r in enumerate(rows)]
    top = 0
    for c in range(ncols):
        while True:
            live = [i for i in range(top, n) if aug[i][c]]
            if len(live) <= 1:
                break
            piv = min(live, key=lambda i: abs(aug[i][c]))
            for i in live:
                if i != piv:
                    q = aug[i][c] // aug[piv][c]
                    aug[i] = [x - q * y for x, y in zip(aug[i], aug[piv])]
        if live:
            aug[top], aug[live[0]] = aug[live[0]], aug[top]
            top += 1
    return [row[ncols:] for row in aug[top:]]


def _coordinates(basis, v):
    """c with c * basis = v, for linearly independent rows; integral when v
    lies in their Z-span."""
    m, n = len(basis), len(v)
    sys_ = [[Fraction(basis[i][j]) for i in range(m)] + [Fraction(v[j])] for j in range(n)]
    col_of = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if sys_[i][c]), None)
        assert piv is not None, "basis rows are dependent"
        sys_[r], sys_[piv] = sys_[piv], sys_[r]
        sys_[r] = [x / sys_[r][c] for x in sys_[r]]
        for i in range(n):
            if i != r and sys_[i][c]:
                sys_[i] = [x - sys_[i][c] * y for x, y in zip(sys_[i], sys_[r])]
        col_of.append(r)
        r += 1
    assert all(row[-1] == 0 for row in sys_[r:]), "v is outside the span"
    out = [sys_[col_of[c]][-1] for c in range(m)]
    assert all(x.denominator == 1 for x in out), "v is outside the Z-span"
    return [int(x) for x in out]


def _homology_relations(orders, maps, k):
    """(number of cycle generators, boundaries and order rows in their
    coordinates) of the homology at slot k."""
    n = len(orders[k])
    cycles = [[int(i == c) for c in range(n)] for i in range(n)]
    if k < len(maps):
        tgt = orders[k + 1]
        stacked = maps[k] + [[o * int(i == j) for j in range(len(tgt))]
                             for i, o in enumerate(tgt) if o]
        # no combination of the target's order rows alone vanishes, so the
        # projection onto the source part is a Z-basis of the cycles
        cycles = [x[:n] for x in _left_kernel(stacked, len(tgt))]
    zeros = [[o * int(i == c) for c in range(n)] for i, o in enumerate(orders[k]) if o]
    if k > 0:
        zeros += [row for row in maps[k - 1] if any(row)]
    return len(cycles), [_coordinates(cycles, z) for z in zeros]


def _direct_homology(p, orders, maps, k):
    n, rels = _homology_relations(orders, maps, k)
    return _intlin.group_invariants(_intlin.sparse_rows(rels), n, p)


def _sympy_homology(p, orders, maps, k):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    n, rels = _homology_relations(orders, maps, k)
    if not rels or not n:
        return n, []
    snf = smith_normal_form(Matrix(rels), domain=ZZ)
    diag = [snf[i, i] for i in range(min(snf.shape)) if snf[i, i] != 0]
    return n - len(diag), sorted(q for q in (p ** nu(p, int(d)) for d in diag) if q > 1)


def _cases(p, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        chain = _random_chain(rng, p, rng.randint(2, 4))
        if chain is not None:
            out.append(chain)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_page_turn_matches_direct_homology(p):
    nonzero = composed = 0
    for orders, maps in _cases(p, 60, seed=p):
        seq, slots = _engine(p, orders, maps)
        for k, slot in enumerate(slots):
            sq = seq.subquot(slot)
            got = (sq.free_rank(), sq.torsion())
            assert got == _direct_homology(p, orders, maps, k), (orders, maps, k)
        live = [any(any(row) for row in d) for d in maps]
        nonzero += any(live)
        composed += any(a and b for a, b in zip(live, live[1:]))
    # most chains carry a differential, and some two composable nonzero ones
    assert nonzero >= 50 and composed >= 10


def test_direct_homology_agrees_with_sympy():
    # the second judge, on the chains of two and three slots
    for p in (2, 3):
        for orders, maps in _cases(p, 25, seed=10 + p):
            if len(orders) > 3:
                continue
            for k in range(len(orders)):
                assert (_direct_homology(p, orders, maps, k)
                        == _sympy_homology(p, orders, maps, k)), (orders, maps, k)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nonzero_composite_is_rejected(p):
    rng = random.Random(100 + p)
    chains = []
    while len(chains) < 5:
        chain = _random_chain(rng, p, 3, dd_zero=False)
        if chain is not None:
            chains.append(chain)
    for orders, maps in chains:
        with pytest.raises(ss.EngineError, match=r"d o d != 0"):
            _engine(p, orders, maps)


# -- metamorphic: a change of cell generators by p-units ---------------------------


def _rescaled(setup, units):
    """The same tower with the generator of each slot in `units` replaced by
    that unit times itself.  A vector x in the new coordinates stands for
    u * x in the old, so each rule and extension is multiplied through by
    the units of the slots it touches to stay integral."""
    def u(slot):
        return units.get(slot, 1)

    rules = []
    for r in setup.rules:
        d, s = r.slot
        tgt = (d - 1, s + r.page)
        rules.append(ss.Rule(r.page, r.slot, tuple(u(tgt) * x for x in r.source),
                             tuple(u(r.slot) * y for y in r.target), r.name))
    exts = []
    for e in setup.extensions:
        w = u(e.slot)
        for _, slot, _ in e.targets:
            w *= u(slot)
        exts.append(ss.Extension(
            e.slot, tuple(w // u(e.slot) * x for x in e.source),
            tuple((c * w // u(slot), slot, vec) for c, slot, vec in e.targets)))
    return ss.EngineSetup(ss.SpectralSequence(setup.ss.p, setup.ss.cells), rules, exts,
                          setup.window, setup.chain_smax)


def _rescaled_slots(setup, where):
    rule, ext = setup.rules[0], setup.extensions[0]
    d, s = rule.slot
    if where == "rule-source":
        return [rule.slot]
    if where == "rule-target":
        return [(d - 1, s + rule.page)]
    if where == "extension":
        return [ext.slot, ext.targets[0][1]]
    # every filtration of the rule source's base row
    shift = 2 * setup.ss.p - 2
    return [slot for slot in setup.ss.cells if slot[0] - slot[1] * shift == d - s * shift]


@pytest.mark.parametrize("p, window, unit", [(3, 160, 2), (5, 400, 3)])
@pytest.mark.parametrize("where", ["rule-source", "rule-target", "extension", "base-row"])
def test_rescaled_generators_give_the_same_table(p, window, unit, where):
    make = lambda: ss.v1_tower_setup(PrimeContext(p), window)
    plain = make().run()
    setup = make()
    slots = _rescaled_slots(setup, where)
    assert slots
    changed = _rescaled(setup, {slot: unit for slot in slots})
    assert changed.rules != setup.rules or changed.extensions != setup.extensions
    assert changed.run() == plain
