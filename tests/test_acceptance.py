"""Acceptance gate: twelve exact criteria, one test (and one pass/fail line
under pytest -v) per criterion.  Zero tolerance everywhere."""

from thh import closed_forms as cf, ss, thc, verify
from thh.padic import PrimeContext, nu


def factorial_valuation(p, n):
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def test_criterion_01_torsion_block_construction():
    expected = {0: [4], 2: [4], 4: [2], 6: [2], 8: [4], 10: [4]}
    t1 = cf.build_Tn(PrimeContext(2), 1)
    for d in range(12):
        assert t1.group_at(d) == (0, expected.get(d, []))
    from thh.graded import Generator, GradedModulePresentation, Relation, RingSpec
    for p in (2, 3, 5):
        t0 = cf.build_Tn(PrimeContext(p), 0)
        trunc = GradedModulePresentation(RingSpec(p, 2 * p - 2), [Generator("u", 0)],
                                         [Relation(((p, 0, "u"),)), Relation(((1, p, "u"),))])
        assert t0.isomorphic_on(trunc, range(cf.tn_top_degree(p, 0) + 2))
    for p in (2, 3):
        for n in range(4):
            tn = cf.build_Tn(PrimeContext(p), n)
            top = cf.tn_top_degree(p, n)
            for d in range(top + 1):
                assert sorted(tn.group_at(d)[1]) == sorted(tn.group_at(top - d)[1])


def test_criterion_02_dueling_reproduction():
    for p, window in ((2, 64), (3, 170)):
        ctx = PrimeContext(p)
        out = ss.v1_tower_setup(ctx, window).run()
        ref = cf.thh_ell(ctx, window)
        for d in range(window + 1):
            got, want = out[d], ref.group_at(d)
            assert (got[0], sorted(got[1])) == (want[0], sorted(want[1])), d


def test_criterion_03_p_tower_reproduction():
    for p in (2, 3):
        ctx = PrimeContext(p)
        window = 2 * p**4
        out = ss.v0_tower_setup(ctx, window).run()
        ref = cf.thh_ell_HZ(ctx, window, reduced=False)
        for d in range(window + 1):
            got, want = out[d], ref.group_at(d)
            assert (got[0], sorted(got[1])) == (want[0], sorted(want[1])), d


def test_criterion_04_cofiber_identities():
    for p, window in ((2, 64), (3, 170)):
        bad = [c for c in verify.cofiber_checks(PrimeContext(p), window)
               if not c.ok]
        assert bad == []


def test_criterion_05_lemma_suite():
    for p in (2, 3, 5):
        checks = verify.lemma_suite_section4(PrimeContext(p), 4)
        assert checks and [c for c in checks if not c.ok] == []


def test_criterion_06_gap_lemma():
    for p in (2, 3):
        checks = verify.gap_check(PrimeContext(p), 3)
        assert [c for c in checks if not c.ok] == []


def test_criterion_07_rational_ranks():
    for p, window in ((2, 64), (3, 170)):
        checks = verify.rational_rank_check(PrimeContext(p), window)
        assert checks and [c for c in checks if not c.ok] == []


def test_criterion_08_kummer_and_unit_claims():
    from thh.padic import binom_valuation
    for p in (2, 3, 5):
        fv = [factorial_valuation(p, s) for s in range(2049)]
        for s in range(2049):
            halves = range(s // 2 + 1)
            assert [binom_valuation(p, a, s - a) for a in halves] == \
                [fv[s] - fv[a] - fv[s - a] for a in halves], (p, s)
        bad = [c for c in thc.unit_check_suite(PrimeContext(p), p**4)
               if not c.ok]
        assert bad == []


def test_criterion_09_ko_chain():
    base = ss.ko_base_setup(40).run()
    for d in range(41):
        assert base[d] == cf.ko_homotopy(d)
    out = ss.eta_tower_setup(92).run()
    ref = cf.thh_ko(92)
    for d in range(93):
        got, want = out[d], ref.group_at(d)
        assert (got[0], sorted(got[1])) == (want[0], sorted(want[1])), d
    assert ref.group_at(5) == (1, [])
    assert ref.group_at(20) == (0, [2])
    assert ref.group_at(26) == (0, [4])
    checks = verify.eta_square_annihilates(cf.thh_ko(92 + 4), 92)
    assert [c for c in checks if not c.ok] == []


def test_criterion_10_ko_ku_injection():
    checks = verify.ko_ku_comparison(64)
    assert checks and [c for c in checks if not c.ok] == []


def test_criterion_11_cohomology_duality_and_caps():
    for p in (2, 3):
        ctx = PrimeContext(p)
        window = 2 * p**4
        mirror = thc.thh_ell_HZ_mirror(ctx, window)
        direct = thc.thc_ell_HZ(ctx, window)
        for d in range(window + 1):
            assert mirror.get(d, (0, [])) == direct.get(d, (0, []))
        for k in range(5):
            d = thc.dp_degree(p, p**k)
            if d <= window:
                assert direct[d] == (0, [p ** (k + 1)])
        for n in range(2, p**4 + 1):
            for k in range(1, n):
                res = thc.cap(ctx, k, "a", n)
                expect = factorial_valuation(p, n - 1) \
                    - factorial_valuation(p, k) - factorial_valuation(p, n - 1 - k)
                assert res.index == n - k
                assert res.valuation == expect


def test_criterion_12_matching_uniqueness():
    for p in (2, 3):
        rep = verify.matching_B1(PrimeContext(p), 2 * p**4)
        assert rep.ok and not rep.leftovers
    rep20 = verify.matching_B1(PrimeContext(2), 20)
    assert rep20.pairs == {"mu": ("x", 1, 0, 2),
                           "l2*mu": ("x'", 1, 0, 2),
                           "mu^2": ("x", 2, 0, 4)}
