import pytest

from thh import closed_forms as cf, verify
from thh.padic import PrimeContext


def _clean(checks):
    return [c for c in checks if not c.ok]


def test_k1_enumeration_spot_values():
    ctx = PrimeContext(2)
    assert [e[:3] for e in verify.enumerate_k1_basis(ctx, 7)] == [("x", 2, 0)]
    assert verify.enumerate_k1_basis(ctx, 8) == ()
    assert [e[:3] for e in verify.enumerate_k1_basis(ctx, 12)] == [("x'", 1, 0)]


def test_k1_dimension_budget_low_degrees():
    # the scan agrees with the closed-form k(1) module dimension per degree
    for p in (2, 3):
        ctx = PrimeContext(p)
        k1 = cf.thh_ell_k1(ctx, 40)
        for d in range(40):
            rank, tors = k1.group_at(d)
            assert len(verify.enumerate_k1_basis(ctx, d)) == rank + len(tors)


def test_lemma_suite_passes():
    for p in (2, 3, 5):
        checks = verify.lemma_suite_section4(PrimeContext(p), 2)
        assert _clean(checks) == []
        assert checks


def test_matching_window_twenty_pairs():
    rep = verify.matching_B1(PrimeContext(2), 20)
    assert rep.ok
    assert rep.pairs["mu"] == ("x", 1, 0, 2)
    assert rep.pairs["l2*mu"] == ("x'", 1, 0, 2)
    assert rep.pairs["mu^2"] == ("x", 2, 0, 4)


def test_matching_survivors_window_twelve():
    rep = verify.matching_B1(PrimeContext(2), 12)
    assert rep.ok
    # reduced convention: the unit monomial is not tracked
    assert set(rep.survivors) == {"l1", "l2", "l1*l2", "l1*mu"}


def test_matching_empty_window():
    rep = verify.matching_B1(PrimeContext(2), 0)
    assert rep.ok
    assert rep.pairs == {}


def test_cofiber_identities_short_window():
    for p in (2, 3):
        assert _clean(verify.cofiber_checks(PrimeContext(p), 30)) == []
    assert _clean(verify.cofiber_checks_ko(cf.thh_ko(30 + 4), 30)) == []


def test_cofiber_checks_build_each_shape_pairs_groups_once(monkeypatch):
    # the v maps on thh_ell and thh_ell_k1 at p=5 w=360 read 722 cokernels
    # and 704 kernels over 99 and 97 (source, target) slice-shape pairs
    from test_cli import count_calls
    calls = count_calls(monkeypatch, verify, ("kernel_subquot", "cokernel_subquot"))
    assert _clean(verify.cofiber_checks(PrimeContext(5), 360)) == []
    assert calls == {"kernel_subquot": 97, "cokernel_subquot": 99}


def test_dueling_short_window():
    for p in (2, 3):
        assert _clean(verify.dueling_comparison(PrimeContext(p), 24)) == []


def test_gap_and_rational_short():
    for p in (2, 3):
        assert _clean(verify.gap_check(PrimeContext(p), 1)) == []
        assert _clean(verify.rational_rank_check(PrimeContext(p), 40)) == []


def test_word_transport():
    for p, n_max in ((2, 6), (3, 4), (5, 3), (7, 2)):
        for n in range(n_max + 1):
            assert verify.torsion_word_transport(PrimeContext(p), n), (p, n)


def test_duality_short():
    for p in (2, 3):
        assert _clean(verify.duality_check(PrimeContext(p), 2, 40)) == []


def test_ko_comparison_short():
    assert _clean(verify.ko_ku_comparison(32)) == []
    assert _clean(verify.eta_square_annihilates(cf.thh_ko(32 + 4), 32)) == []


@pytest.mark.parametrize("suite", [verify.cofiber_checks_ko,
                                   verify.eta_square_annihilates])
def test_ko_suites_reject_an_answer_short_of_their_window(suite):
    # thh_ko(w) is complete below w + 1, and the suites read through
    # window + 4; an answer one degree short must not give rows
    window = 20
    assert cf.thh_ko(window + 3).complete_below == window + 4
    with pytest.raises(ValueError, match="complete below 25"):
        suite(cf.thh_ko(window + 3), window)
    assert _clean(suite(cf.thh_ko(window + 4), window)) == []


def test_suite_maps_respect_relations():
    # kernels, images and cokernels are read in summand coordinates, which
    # is a map of groups only when the images of the source relations vanish
    from thh.graded import variable_multiplication_map
    window = 40
    ko = cf.thh_ko(window + 4)
    maps = {"eta": cf.thh_ko_eta_map(ko), "eta^2": verify.eta_square_map(ko),
            "ko-to-ku": verify.ko_to_ku_map(window)}
    for p in (2, 3):
        ctx = PrimeContext(p)
        for name, build in (("ell", cf.thh_ell), ("k1", cf.thh_ell_k1)):
            mod = build(ctx, window + 2 * (2 * p - 2))
            maps[f"v-{name}-p{p}"] = variable_multiplication_map(mod)
    for name, mp in maps.items():
        assert mp.respects_relations(range(window + 1)), name


def test_ko_to_ku_map_reads_no_target_degree_past_its_bound():
    # the T'_n blocks put source relations past window + 4 (up to degree 62
    # at w = 36..57); each one is read in the target at its own degree
    for window in range(65):
        mp = verify.ko_to_ku_map(window)
        top = max((mp.source.term_degree(rel.terms) for rel in mp.source.relations),
                  default=0)
        assert max(top, window) < mp.target.complete_below, window
