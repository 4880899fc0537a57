import hashlib
import json
import pathlib
import random

import pytest

from thh import _intlin, closed_forms as cf, ss
from thh.padic import PrimeContext


def _agree(result, reference, degrees):
    mismatches = []
    for d in degrees:
        got = result[d]
        want = reference.group_at(d)
        if (got[0], sorted(got[1])) != (want[0], sorted(want[1])):
            mismatches.append((d, got, want))
    return mismatches


def test_p_tower_engine_reproduces_integral_hz():
    for p in (2, 3):
        ctx = PrimeContext(p)
        window = 2 * p**4
        out = ss.v0_tower_setup(ctx, window).run()
        ref = cf.thh_ell_HZ(ctx, window, reduced=False)
        assert _agree(out, ref, range(window + 1)) == []


def test_v_tower_engine_reproduces_integral_answer():
    for p, window in ((2, 40), (3, 80), (5, 600), (7, 1000)):
        ctx = PrimeContext(p)
        out = ss.v1_tower_setup(ctx, window).run()
        ref = cf.thh_ell(ctx, window)
        assert list(out) == list(range(window + 1))
        assert _agree(out, ref, range(window + 1)) == []


V1_PIN = pathlib.Path(__file__).parent / "golden" / "v1-tables.json"


@pytest.mark.parametrize("p, window", [(2, 240), (3, 600)])
def test_v1_tables_are_pinned(p, window):
    # Recorded before the tower read its rules, cells and extensions from
    # the shared tables.  The p=2 pin was re-recorded when assembly began to
    # lift an extension target as p^c times the lift of its class: degrees
    # 106, 108, 214, 216, 218, 220, 234 and 236 had missed the target's own
    # hidden 2-extension, and now agree with thh_ell.
    golden = json.loads(V1_PIN.read_text())[f"p{p}-w{window}"]
    out = ss.v1_tower_setup(PrimeContext(p), window).run()
    assert {str(d): [rank, tors] for d, (rank, tors) in out.items()} == golden


def test_eta_tower_engine_reproduces_real_answer():
    out = ss.eta_tower_setup(64).run()
    ref = cf.thh_ko(64)
    assert _agree(out, ref, range(65)) == []


def test_base_engine_reproduces_ko_coefficients():
    out = ss.ko_base_setup(40).run()
    for d in range(41):
        assert out[d] == cf.ko_homotopy(d)


# -- the same answer at two windows ---------------------------------------------
# Each answer, built at windows w and w + k, must give the same table in
# every degree both trust, with no closed form to compare against.

def trusted_table(answer):
    """{degree: (free rank, sorted torsion)} on every degree `answer` trusts:
    the whole table of an engine setup, or a presentation's degrees below
    its bound."""
    if isinstance(answer, ss.EngineSetup):
        return {d: (rank, sorted(tors)) for d, (rank, tors) in answer.run().items()}
    return {d: answer.group_at(d) for d in range(answer.complete_below)}


def cross_window_mismatches(make, w, k):
    small, large = trusted_table(make(w)), trusted_table(make(w + k))
    assert len(small.keys() & large.keys()) > w
    return [(d, small[d], large[d]) for d in small if d in large and small[d] != large[d]]


CROSS_WINDOW = {
    # name: (answer at a window, least window, greatest window)
    "thh_ell-p2": (lambda w: cf.thh_ell(PrimeContext(2), w), 20, 400),
    "thh_ell-p3": (lambda w: cf.thh_ell(PrimeContext(3), w), 20, 600),
    "thh_ell-p5": (lambda w: cf.thh_ell(PrimeContext(5), w), 20, 1000),
    "thh_ell_HZ-p3": (lambda w: cf.thh_ell_HZ(PrimeContext(3), w), 20, 600),
    "thh_ell_k1-p3": (lambda w: cf.thh_ell_k1(PrimeContext(3), w), 20, 600),
    "thh_ko_ku": (cf.thh_ko_ku, 20, 300),
    "thh_ko": (cf.thh_ko, 20, 300),
    "v0-p2": (lambda w: ss.v0_tower_setup(PrimeContext(2), w), 10, 160),
    "v0-p3": (lambda w: ss.v0_tower_setup(PrimeContext(3), w), 10, 300),
    "v1-p2": (lambda w: ss.v1_tower_setup(PrimeContext(2), w), 10, 200),
    "v1-p3": (lambda w: ss.v1_tower_setup(PrimeContext(3), w), 10, 400),
    "ko-base": (ss.ko_base_setup, 10, 200),
}


def test_tables_agree_across_seeded_windows():
    rng = random.Random(7)
    for name in sorted(CROSS_WINDOW):
        make, lo, hi = CROSS_WINDOW[name]
        for _ in range(3):
            w, k = rng.randint(lo, hi), rng.randint(1, 24)
            assert cross_window_mismatches(make, w, k) == [], (name, w, k)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the eta tower gives (0, []) in "
                   "degree 120 at window 120 and (0, [2]) at window 121")
def test_eta_tower_agrees_across_windows_120_and_121():
    assert cross_window_mismatches(ss.eta_tower_setup, 120, 1) == []


@pytest.mark.parametrize("make", [lambda: ss.ko_base_setup(40),
                                  lambda: ss.v1_tower_setup(PrimeContext(3), 160)],
                         ids=["ko-base-w40", "v1-p3-w160"])
def test_second_run_gives_the_same_table(monkeypatch, make):
    # the first run turns the setup's own sequence as it stands; a second
    # one puts it back on its E1 pages and reads the page-keyed caches, so
    # it builds no SubQuot
    setup = make()
    restarts, made = [], []
    restart = ss.SpectralSequence.restart
    monkeypatch.setattr(ss.SpectralSequence, "restart",
                        lambda self: restarts.append(self) or restart(self))

    class Counting(_intlin.SubQuot):
        def __init__(self, *args, **kw):
            made.append(args)
            super().__init__(*args, **kw)

    monkeypatch.setattr(ss, "SubQuot", Counting)
    first = setup.run()
    assert restarts == [] and made
    built = len(made)
    assert setup.run() == first
    assert restarts == [setup.ss] and len(made) == built


SIGN_FLIP_TOWERS = {
    "v0-p2-w64": lambda: ss.v0_tower_setup(PrimeContext(2), 64),
    "v0-p3-w160": lambda: ss.v0_tower_setup(PrimeContext(3), 160),
    "v1-p2-w32": lambda: ss.v1_tower_setup(PrimeContext(2), 32),
    "v1-p3-w40": lambda: ss.v1_tower_setup(PrimeContext(3), 40),
    "eta-w40": lambda: ss.eta_tower_setup(40),
    "ko-base-w40": lambda: ss.ko_base_setup(40),
}


@pytest.mark.parametrize("tower", sorted(SIGN_FLIP_TOWERS))
def test_sign_flip_gives_the_same_groups(tower):
    # flipping every differential's sign cannot change the abutment
    plain = SIGN_FLIP_TOWERS[tower]().run()
    flipped = SIGN_FLIP_TOWERS[tower]().sign_flipped().run()
    assert flipped == plain


def test_non_cycle_source_is_rejected():
    setup = ss.v0_tower_setup(PrimeContext(2), 16)
    rules = list(setup.rules)
    # target a class that earlier differentials have already killed
    victim = rules[0]
    bogus = ss.Rule(victim.page + 1, victim.slot, victim.source,
                    victim.target, "bogus-repeat")
    setup.ss.run(rules, 1)
    with pytest.raises(ss.EngineError):
        setup.ss.run([bogus], bogus.page)


def test_differential_onto_a_zero_class_is_rejected():
    # doubling the first rule's target sends a live class to a dead one
    setup = ss.v1_tower_setup(PrimeContext(2), 16)
    first = setup.rules[0]
    bad = ss.Rule(first.page, first.slot, first.source,
                  tuple(2 * t for t in first.target), first.name + "-doubled")
    with pytest.raises(ss.EngineError, match="target class is already zero"):
        setup.ss.run([bad], bad.page)


def test_audit_catches_rank_nullity_failure():
    # d1(2x) = 2y reads d1(x) = y, which kills all of Z/4 at the source but
    # only the boundary 2y at the target
    seq = ss.SpectralSequence(2, {(1, 0): [4], (0, 1): [4]})
    rule = ss.Rule(1, (1, 0), (2,), (2,), "d1(2x)")
    with pytest.raises(ss.EngineError, match="rank-nullity fails"):
        seq.run([rule], 1)


def test_rule_outside_the_cells_is_rejected():
    # a rule's slot and its target slot must both be cells
    seq = ss.SpectralSequence(2, {(1, 0): [0], (0, 1): [0]})
    with pytest.raises(ss.EngineError, match=r"slot \(2, 0\) is not a cell"):
        seq.run([ss.Rule(1, (2, 0), (1,), (1,), "d1(w)")], 1)
    with pytest.raises(ss.EngineError, match=r"target slot \(0, 2\) is not a cell"):
        seq.run([ss.Rule(2, (1, 0), (1,), (1,), "d2(x)")], 2)


def test_boundary_that_is_not_a_cycle_is_rejected():
    # d(x) = y and d(y) = z on one page: y becomes a boundary that is not a
    # cycle, so d o d != 0
    cells = {(2, 0): [0], (1, 1): [0], (0, 2): [0]}
    seq = ss.SpectralSequence(2, cells)
    rules = [ss.Rule(1, (2, 0), (1,), (1,), "d1(x)"),
             ss.Rule(1, (1, 1), (1,), (1,), "d1(y)")]
    with pytest.raises(ss.EngineError, match=r"page 1: .* at \(1, 1\)"):
        seq.run(rules, 1)


def test_page_turn_keeps_the_pages_of_untouched_slots():
    # d1(x) = 2y changes the pages at (1, 0) and (0, 1) only; the slot no
    # rule touches keeps its cached SubQuot
    seq = ss.SpectralSequence(2, {(1, 0): [0], (0, 1): [0], (5, 0): [2]})
    untouched, source = seq.subquot((5, 0)), seq.subquot((1, 0))
    seq.run([ss.Rule(1, (1, 0), (1,), (2,), "d1(x)")], 1)
    assert seq.subquot((5, 0)) is untouched
    assert seq.subquot((1, 0)) is not source
    assert seq.subquot((0, 1)).orders == [2]


def test_eta_tower_past_its_range_is_rejected():
    # from window 123 on, a d1 boundary in ku degree 122 is not a d1 cycle
    with pytest.raises(ss.EngineError, match=r"page 1: .* at \(123, 1\)"):
        ss.eta_tower_setup(128).run()


def test_differential_needing_division_by_p_is_rejected():
    # d(2x) = y would force d(x) = y / 2
    seq = ss.SpectralSequence(2, {(1, 0): [0], (0, 1): [0]})
    rule = ss.Rule(1, (1, 0), (2,), (1,), "d1(2x)")
    with pytest.raises(ss.EngineError, match="division by 2"):
        seq.run([rule], 1)


def test_cycle_outside_the_rules_span_is_rejected():
    # the rules on slot (1, 0) say nothing about its second cycle
    seq = ss.SpectralSequence(2, {(1, 0): [0, 0], (0, 1): [0]})
    rule = ss.Rule(1, (1, 0), (1, 0), (1,), "d1(x)")
    with pytest.raises(ss.EngineError, match="outside the span"):
        seq.run([rule], 1)


def test_slot_reduces_its_rule_matrix_once(monkeypatch):
    # one Smith form of the rules gives the consistency kernel and the
    # images of all three cycles of slot (1, 0)
    seen = []

    class Counting(_intlin.SmithForm):
        def __init__(self, rows, ncols, **kw):
            seen.append([list(r) for r in rows])
            super().__init__(rows, ncols, **kw)

    monkeypatch.setattr(_intlin, "SmithForm", Counting)
    monkeypatch.setattr(ss, "SmithForm", Counting, raising=False)
    seq = ss.SpectralSequence(2, {(1, 0): [0, 0, 0], (0, 1): [0, 0, 0]})
    X = _intlin.sparse_rows([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    rules = [ss.Rule(1, (1, 0), (1, 0, 0), (0, 1, 0), "d1(x0)"),
             ss.Rule(1, (1, 0), (0, 1, 0), (0, 0, 1), "d1(x1)"),
             ss.Rule(1, (1, 0), (1, 0, 1), (1, 1, 0), "d1(x0+x2)")]
    seq.run(rules, 1)
    assert seen.count(X) == 1
    assert seq.page((1, 0)).Z == ()
    assert seq.assemble([], 1, 1) == {0: (0, []), 1: (0, [])}


@pytest.mark.parametrize("make, built", [
    (lambda: ss.ko_base_setup(40), 6),
    (lambda: ss.v1_tower_setup(PrimeContext(5), 360), 7),
], ids=["ko-base-w40", "v1-p5-w360"])
def test_equal_slots_share_one_subquot(monkeypatch, make, built):
    # the towers repeat a page from filtration to filtration, so SubQuots
    # are built per page: 572 and 538 when built per slot; the ko base built
    # 7 while two of its pages differed only by empty boundary rows
    made = []

    class Counting(_intlin.SubQuot):
        def __init__(self, *args, **kw):
            made.append(args)
            super().__init__(*args, **kw)

    monkeypatch.setattr(ss, "SubQuot", Counting)
    make().run()
    assert len(made) == built


@pytest.mark.parametrize("make", [lambda: ss.v1_tower_setup(PrimeContext(2), 600),
                                  lambda: ss.eta_tower_setup(64)],
                         ids=["v1-p2-w600", "eta-w64"])
def test_pages_hold_no_empty_boundary_row(make):
    # the source's zero rows, which the turn maps to zero, and an all-zero
    # rule target (an explicit d(x) = 0 in the eta tower) add no boundary row
    setup = make()
    setup.run()
    assert all(row for page in setup.ss.pages for row in page.B)


def test_rank_nullity_is_checked_per_target_content():
    # both slots hold Z/4 and read d1(2x) = (2, 0); into Z/4 + Z the free
    # summand leaves rank-nullity unchecked, but into Z/4 + Z/4 the turn
    # kills all of Z/4 at the source and only 2y at the target
    seq = ss.SpectralSequence(2, {(1, 0): [4], (0, 1): [4, 0],
                                  (3, 0): [4], (2, 1): [4, 4]})
    assert seq.key[(1, 0)] == seq.key[(3, 0)]
    assert seq.key[(0, 1)] != seq.key[(2, 1)]
    rules = [ss.Rule(1, slot, (2,), (2, 0), f"d1(2x){slot}") for slot in ((1, 0), (3, 0))]
    with pytest.raises(ss.EngineError, match=r"rank-nullity fails at \(3, 0\)->\(2, 1\)"):
        seq.run(rules, 1)
    seq = ss.SpectralSequence(2, {(1, 0): [4], (0, 1): [4, 0]})
    seq.run(rules[:1], 1)
    assert seq.subquot((1, 0)).orders == [] and seq.subquot((0, 1)).orders == [2, 0]


def test_assembly_builds_one_form_per_extension_matrix(monkeypatch):
    # lifting x of order 8 asks the unit ratio of x, 2x and 4x against the
    # source x: one Smith form of the source over the slot's zero rows
    # serves all three, a slot of the same content reuses the form and its
    # answers, and a slot with other zero rows gets its own form (x and 2x)
    built, asked = [], []

    class Counting(_intlin.SmithForm):
        def __init__(self, rows, ncols, **kw):
            built.append([list(r) for r in rows])
            super().__init__(rows, ncols, **kw)

    ratio = ss.SpectralSequence._class_unit_ratio
    monkeypatch.setattr(ss, "SmithForm", Counting)
    monkeypatch.setattr(ss.SpectralSequence, "_class_unit_ratio",
                        lambda self, sf, vec: asked.append(sf) or ratio(self, sf, vec))
    seq = ss.SpectralSequence(2, {(0, 0): [8], (0, 1): [16], (1, 0): [8], (1, 1): [16],
                                  (2, 0): [4], (2, 1): [16]})
    exts = [ss.Extension((d, 0), (1,), ((1, (d, 1), (1,)),)) for d in (0, 1, 2)]
    # 2 x = y, so 8 x = 4 y beside 16 y = 0 in degrees 0 and 1, and
    # 4 x = 2 y in degree 2
    assert seq.assemble(exts, 2, 1) == {0: (0, [4, 32]), 1: (0, [4, 32]),
                                        2: (0, [2, 32])}
    assert built == [[[(0, 1)], [(0, 8)]], [[(0, 1)], [(0, 4)]]]
    assert len(asked) == 5 and len({id(sf) for sf in asked}) == 2


@pytest.mark.parametrize("window", [50, 56, 98, 120, 194, 248])
def test_eta_extensions_stay_in_the_cells(window):
    # windows where a level's first hidden extension fits but its last does not
    setup = ss.eta_tower_setup(window)
    assert setup.extensions
    for ext in setup.extensions:
        assert ext.slot in setup.ss.cells
        assert all(slot in setup.ss.cells for _, slot, _ in ext.targets)


def test_extension_into_a_free_slot_past_the_range_drops_the_relation():
    # the target slot (0, 1) lies past smax = 0; whether its E_infinity is
    # free or torsion, the tower leaves the assembled range and 2 * g gets
    # no relation, so g stays free
    for order in (0, 4):
        seq = ss.SpectralSequence(2, {(0, 0): [2], (0, 1): [order]})
        ext = ss.Extension((0, 0), (1,), ((1, (0, 1), (1,)),))
        assert seq.assemble([ext], 0, 0) == {0: (1, [])}


def test_extension_target_carries_its_own_extension():
    # the degree-106 shape of the v1 tower, with no tower setup: 2 x = 2 y
    # and 2 y = (next layer) + z, so x's relation is 2 x = 2 y + z and the
    # group is Z/4 + Z/4; lifting the target 2 y as the cell vector (2,)
    # drops z and gives Z/2 + Z/2 + Z/4
    seq = ss.SpectralSequence(2, {(0, 0): [2], (0, 1): [4], (0, 2): [2]})
    exts = [ss.Extension((0, 0), (1,), ((2, (0, 1), (1,)),)),
            ss.Extension((0, 1), (1,), ((1, (0, 2), (1,)),))]
    assert seq.assemble(exts, 0, 2) == {0: (0, [4, 4])}


def test_assembly_keeps_the_denominator_of_a_unit_ratio():
    # at p=3, x of order 9 reads 3 * [2x] = y and 3 * [x] = y, so
    # 9 x = (1/2) * 3y + 3y = (9/2) y: Z/9 + Z/9; a ratio [x] / [2x] read as
    # 1 in place of 1/2 would give 9 x = 6 y and Z/3 + Z/27
    seq = ss.SpectralSequence(3, {(0, 0): [9], (0, 1): [9]})
    exts = [ss.Extension((0, 0), (2,), ((1, (0, 1), (1,)),)),
            ss.Extension((0, 0), (1,), ((1, (0, 1), (1,)),))]
    assert seq.assemble(exts, 0, 1) == {0: (0, [9, 9])}


PAGE_PIN = pathlib.Path(__file__).parent / "golden" / "ss-page-orders.json"
PAGE_TOWERS = {
    "v0-p2-w32": lambda: ss.v0_tower_setup(PrimeContext(2), 32),
    "v1-p3-w80": lambda: ss.v1_tower_setup(PrimeContext(3), 80),
    "eta-w40": lambda: ss.eta_tower_setup(40),
    "ko-base-w40": lambda: ss.ko_base_setup(40),
}


def page_orders(make_setup):
    """{page: {"d,s": SubQuot orders}} after running a fresh setup to each page.

    The orders do not depend on the bases the engine picks for Z and B, so
    the pin holds across rewrites of the page turn.
    """
    pages = sorted({rule.page for rule in make_setup().rules})
    out = {}
    for r in pages:
        setup = make_setup()
        setup.ss.run(setup.rules, r)
        # every stored page holds its SubQuot
        assert len(setup.ss.pages) == len(setup.ss._subquots)
        out[str(r)] = {f"{d},{s}": setup.ss.subquot((d, s)).orders
                       for d, s in sorted(setup.ss.cells)}
    return out


@pytest.mark.parametrize("tower", sorted(PAGE_TOWERS))
def test_page_orders_are_pinned(tower):
    golden = json.loads(PAGE_PIN.read_text())
    assert page_orders(PAGE_TOWERS[tower]) == golden[tower]


SETUP_PIN = pathlib.Path(__file__).parent / "golden" / "ss-setups.json"


def setup_record(setup):
    """A setup's cells, extensions and rules, as JSON."""
    return json.loads(json.dumps({
        "cells": {f"{d},{s}": orders for (d, s), orders in sorted(setup.ss.cells.items())},
        "extensions": [[e.slot, e.source, e.targets] for e in setup.extensions],
        "rules": [[r.page, r.slot, r.source, r.target, r.name] for r in setup.rules],
    }))


@pytest.mark.parametrize("tower", sorted(PAGE_TOWERS))
def test_setups_are_pinned(tower):
    # Recorded before the setups placed their cells, rules and extensions
    # through one tower layout; the pin keeps only the rules whose slot and
    # target slot are both cells, which are all the rules a setup now emits.
    golden = json.loads(SETUP_PIN.read_text())
    assert setup_record(PAGE_TOWERS[tower]()) == golden[tower]


ETA_SETUP_HASHES = pathlib.Path(__file__).parent / "golden" / "eta-setup-sha256.json"


@pytest.mark.parametrize("window", [64, 92, 122, 192, 256])
def test_eta_setups_are_pinned_by_hash(window):
    # Recorded before the eta tower read its coefficients and hidden
    # extensions from the closed-form tables; the full records run to
    # 120 KB at w=256, so only their digests are kept
    blob = json.dumps(setup_record(ss.eta_tower_setup(window)),
                      sort_keys=True, separators=(",", ":")).encode()
    golden = json.loads(ETA_SETUP_HASHES.read_text())[str(window)]
    assert hashlib.sha256(blob).hexdigest() == golden
