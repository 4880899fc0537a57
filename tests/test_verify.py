import pytest

from thh import closed_forms as cf, verify
from thh.padic import (PrimeContext, lambda_degree, lambda_monomial, mu_degree,
                       r_truncation, x_degree, x_prime_degree)


def _clean(checks):
    return [c for c in checks if not c.ok]


def _scan(ctx, d):
    """The k(1) basis in degree d by exhaustive scan, as sorted (family,
    level, m, v-power) entries: the reference `enumerate_k1_basis` must meet.

    Index bounds: the level j is bounded by the generator degrees being
    monotone in j, m linearly by degree, and the v-power by the truncation
    length r(j).  The infinite tower on 1 is excluded (reduced answer).
    """
    p = ctx.p
    vd = 2 * p - 2
    found = []
    j = 1
    while x_degree(p, j, 0) <= d:
        for family, base in (("x", x_degree), ("x'", x_prime_degree)):
            m = 0
            while base(p, j, m) <= d:
                if m % p != p - 1:
                    rem = d - base(p, j, m)
                    if rem % vd == 0 and rem // vd < r_truncation(p, j):
                        found.append((family, j, m, rem // vd))
                m += 1
        j += 1
    return tuple(sorted(found))


def test_k1_enumeration_spot_values():
    ctx = PrimeContext(2)
    basis = verify.enumerate_k1_basis(ctx, [7, 8, 12])
    assert [e[:3] for e in basis[7]] == [("x", 2, 0)]
    assert basis[8] == ()
    assert [e[:3] for e in basis[12]] == [("x'", 1, 0)]


def test_k1_dimension_budget_low_degrees():
    # the basis agrees with the closed-form k(1) module dimension per degree
    for p in (2, 3):
        ctx = PrimeContext(p)
        k1 = cf.thh_ell_k1(ctx, 40)
        basis = verify.enumerate_k1_basis(ctx, range(40))
        for d in range(40):
            rank, tors = k1.group_at(d)
            assert len(basis[d]) == rank + len(tors)


@pytest.mark.parametrize("p, hi", [(2, 600), (3, 900), (5, 1500), (7, 2000)])
def test_k1_basis_equals_the_per_degree_scan(p, hi):
    ctx = PrimeContext(p)
    basis = verify.enumerate_k1_basis(ctx, range(hi + 1))
    assert list(basis) == list(range(hi + 1))
    for d in range(hi + 1):
        assert basis[d] == _scan(ctx, d), d


def test_k1_basis_in_sparse_degrees_equals_the_scan():
    # the section-4 claims at p=5 level 4 ask for 24 degrees up to 2*5^6 + 8;
    # only those get an entry
    ctx = PrimeContext(5)
    degrees = [c.index for c in verify.lemma_suite_section4(ctx, 4)]
    assert max(degrees) == 2 * 5**6 + 8
    basis = verify.enumerate_k1_basis(ctx, degrees)
    assert set(basis) == set(degrees)
    for d in degrees:
        assert basis[d] == _scan(ctx, d), d


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


def _all_pairs_matching(p, window):
    """(survivors, pairs, leftovers) of the first matching with each tower's
    killer found by a search over all generators: the reference
    `matching_B1` must meet."""
    vd = 2 * p - 2

    def degree(key):
        e1, e2, i = key
        return e1 * lambda_degree(p, 1) + e2 * lambda_degree(p, 2) + i * mu_degree(p)

    gens = {}
    j = 1
    while x_degree(p, j, 0) <= window:
        e1, e2, base = lambda_monomial(p, j)
        f1, f2, nxt = lambda_monomial(p, j + 1)
        m = 0
        while x_degree(p, j, m) <= window:
            if m % p != p - 1:
                key = (e1, e2, base + p ** (j - 1) * m)
                if degree(key) <= window:
                    gens[key] = ("x", j, m)
                key = (e1 ^ f1, e2 ^ f2, base + nxt + p ** (j - 1) * m)
                if degree(key) <= window:
                    gens[key] = ("x'", j, m)
            m += 1
        j += 1
    survivors, pairs, leftovers = {}, {}, []
    for d, e1, e2, i in cf.hfp_monomials(p, window):
        key = (e1, e2, i)
        label = cf.monomial_label(e1, e2, i)
        if key == (0, 0, 0):
            continue
        if key in gens:
            survivors[label] = gens[key]
            continue
        candidates = [gens[g] for g in gens
                      if degree(g) + vd * r_truncation(p, gens[g][1]) + 1 == d]
        if len(candidates) != 1:
            leftovers.append(label)
            continue
        family, j, m = candidates[0]
        pairs[label] = (family, j, m, r_truncation(p, j))
    return survivors, pairs, leftovers


@pytest.mark.parametrize("p, window", [(2, 600), (3, 900)])
def test_matching_equals_the_all_pairs_search(p, window):
    rep = verify.matching_B1(PrimeContext(p), window)
    survivors, pairs, leftovers = _all_pairs_matching(p, window)
    assert pairs
    assert (rep.survivors, rep.pairs, rep.leftovers) == (survivors, pairs, leftovers)


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
