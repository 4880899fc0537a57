import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from thh import closed_forms as cf
from thh.graded import (Generator, GradedModulePresentation, ModuleMap, Relation,
                        RingSpec, submodule_presentation)
from thh.padic import (PrimeContext, a_degree, all_words, b_degree,
                       lambda_degree, nu)


def test_torsion_block_one_at_two():
    # independently reduced by Smith normal form from the presentation
    expected = {0: [4], 2: [4], 4: [2], 6: [2], 8: [4], 10: [4]}
    t1 = cf.build_Tn(PrimeContext(2), 1)
    for d in range(12):
        rank, tors = t1.group_at(d)
        assert rank == 0
        assert sorted(tors) == expected.get(d, [])


@pytest.mark.parametrize("p", [11, 13])
def test_torsion_block_ids_are_distinct_past_digit_nine(p):
    words = all_words(p, 2)
    mod = cf.build_Tn(PrimeContext(p), 2)
    assert len(mod.generators) == len({w.label() for w in words}) == len(words)


def test_torsion_block_zero_is_truncated_ring():
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        t0 = cf.build_Tn(ctx, 0)
        ring = RingSpec(p, 2 * p - 2)
        trunc = GradedModulePresentation(ring, [Generator("u", 0)],
                                         [Relation(((p, 0, "u"),)), Relation(((1, p, "u"),))])
        top = cf.tn_top_degree(p, 0)
        assert t0.isomorphic_on(trunc, range(0, top + 2))


def test_torsion_blocks_are_self_dual():
    for p in (2, 3):
        for n in range(4):
            tn = cf.build_Tn(PrimeContext(p), n)
            top = cf.tn_top_degree(p, n)
            for d in range(top + 1):
                lo = tn.group_at(d)
                hi = tn.group_at(top - d)
                assert lo[0] == 0 and hi[0] == 0
                assert sorted(lo[1]) == sorted(hi[1])


def test_integral_hz_answer_orders():
    for p in (2, 3):
        ctx = PrimeContext(p)
        window = 2 * p**4
        hz = cf.thh_ell_HZ(ctx, window)
        assert hz.group_at(lambda_degree(p, 1)) == (1, [])
        i = 1
        while b_degree(p, i) <= window:
            assert hz.group_at(a_degree(p, i)) == (0, [p ** (nu(p, i) + 1)])
            assert hz.group_at(b_degree(p, i)) == (0, [p ** (nu(p, i) + 1)])
            i += 1


def test_reduced_plus_unit_tower_is_unreduced():
    for p in (2, 3):
        ctx = PrimeContext(p)
        red = cf.thh_ell(ctx, 40)
        full = cf.thh_ell(ctx, 40, reduced=False)
        for d in range(41):
            unit = 1 if d % (2 * p - 2) == 0 else 0
            assert full.group_at(d)[0] == red.group_at(d)[0] + unit
            assert sorted(full.group_at(d)[1]) == sorted(red.group_at(d)[1])


def test_mod_p_euler_characteristic_consistency():
    # dim over F_p of the mod-p answer equals dim(M (x) F_p) + dim Tor(M, F_p)
    for p in (2, 3):
        ctx = PrimeContext(p)
        k1 = cf.thh_ell_k1(ctx, 40)
        red = cf.thh_ell(ctx, 41)
        for d in range(40):
            rank, tors = red.group_at(d)
            _, tors_prev = red.group_at(d - 1) if d else (0, [])
            k1_rank, k1_tors = k1.group_at(d)
            assert k1_rank + len(k1_tors) == rank + len(tors) + len(tors_prev)


def test_ko_homotopy_bott_pattern():
    expected = [(1, []), (0, [2]), (0, [2]), (0, []), (1, []),
                (0, []), (0, []), (0, []), (1, [])]
    for d, e in enumerate(expected):
        assert cf.ko_homotopy(d) == e
    for d in range(32):
        assert cf.ko_homotopy(d + 8)[0] == cf.ko_homotopy(d)[0]


def test_reduced_thh_ko_spot_values():
    mod = cf.thh_ko(30)
    assert mod.group_at(5) == (1, [])
    assert mod.group_at(20) == (0, [2])
    assert mod.group_at(26) == (0, [4])


def test_ko_ku_bottom_classes():
    mod = cf.thh_ko_ku(30)
    assert mod.group_at(5) == (1, [])   # bottom odd class
    assert mod.group_at(7) == (1, [])   # v times the bottom class
    assert mod.group_at(8) == (0, [])   # below the first torsion block


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2), st.integers(0, 40))
def test_word_dictionary_round_trip(p, n, seed):
    ctx = PrimeContext(p)
    lo, hi = p**n, 2 * p**n
    m = lo + seed % (hi - lo)
    j_max = nu(p, m)
    j = seed % (j_max + 1)
    nn, w, jj = cf.class_to_word(ctx, m, j)
    assert jj == j
    mm, j2 = cf.word_dictionary(ctx, nn, w, jj)
    assert (mm, j2) == (m, j)


def test_torsion_block_shifts_cover_window():
    for p in (2, 3):
        shifts = list(cf.torsion_block_shifts(p, 2 * p**4))
        assert shifts == sorted(shifts, key=lambda s: s[-1]) or shifts
        # every shift lands inside the window
        for entry in shifts:
            assert entry[-1] <= 2 * p**4


PRESENTATION_PIN = pathlib.Path(__file__).parent / "golden" / "presentations.json"
# window edges: the windows just below and at the free chain's bottom
# (|lambda_1|, or 5 on the ko side) and the first torsion block
# (2 p^2 + 2(p-1), or 2^(n+3) + 4 for the ko levels n = 0 and 1); thh_ko
# also at 160 and 256, past the eta tower's degree-120 defect, recorded
# before the eta tower and thh_ko read one hidden-extension table
KO_EDGES = [4, 5, 11, 12, 19, 20]
PRESENTATIONS = {
    f"{name}-{tag}-w{w}{'' if reduced else '-unreduced'}": (make, w, reduced)
    for name, tag, make, windows in [
        ("thh_ell", "p2", lambda w, r: cf.thh_ell(PrimeContext(2), w, r), [2, 3, 9, 10, 40]),
        ("thh_ell", "p3", lambda w, r: cf.thh_ell(PrimeContext(3), w, r), [4, 5, 21, 22, 60]),
        ("thh_ell_k1", "p3", lambda w, r: cf.thh_ell_k1(PrimeContext(3), w, r), [60]),
        ("thh_ell_HZ", "p3", lambda w, r: cf.thh_ell_HZ(PrimeContext(3), w, r), [60]),
        ("thh_ko", "p2", lambda w, r: cf.thh_ko(w, r), KO_EDGES + [40, 160, 256]),
        ("thh_ko_ku", "p2", lambda w, r: cf.thh_ko_ku(w, r), KO_EDGES + [40]),
    ]
    for w in windows for reduced in (True, False)
}


def presentation_record(mod):
    """Generators (gid, degree, label) and relation terms, both in order, and
    the recorded window bound.  Summand labels follow the order of the slice
    rows, so the order is part of the pin."""
    return {
        "generators": [[g.gid, g.degree, g.label] for g in mod.generators.values()],
        "relations": [[list(t) for t in rel.terms] for rel in mod.relations],
        "complete_below": mod.complete_below,
    }


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_presentations_are_pinned(name):
    make, w, reduced = PRESENTATIONS[name]
    golden = json.loads(PRESENTATION_PIN.read_text())
    assert presentation_record(make(w, reduced)) == golden[name]


TN_PRIME_PIN = pathlib.Path(__file__).parent / "golden" / "tn-prime.json"


@pytest.mark.parametrize("n", range(7))
def test_tn_prime_presentations_are_pinned(n):
    # recorded from the slice-by-slice submodule search of T_n; the direct
    # statement must keep its terms and their order, which thh_ko_ku's
    # labels read
    golden = json.loads(TN_PRIME_PIN.read_text())[str(n)]
    record = presentation_record(cf.build_Tn_prime(n))
    assert record["generators"] == golden["generators"]
    assert record["relations"] == golden["relations"]


@pytest.mark.parametrize("n", range(6))
def test_tn_prime_is_the_submodule_of_v_multiples(n):
    # h_w -> v g_w respects the relations and is injective in every degree,
    # so T'_n is isomorphic to the submodule of T_n that the v g_w span
    tn = cf.build_Tn(PrimeContext(2), n)
    images = {cf.bprime_gid(m): ((1, 1, "T:" + w.label()),) for m, w in cf.bprime_words(n)}
    inclusion = ModuleMap(cf.build_Tn_prime(n), tn, images, degree_shift=2)
    assert inclusion.respects_relations()
    assert all(inclusion.injective_at(d) for d in range(cf.tn_top_degree(2, n) + 1))


@pytest.mark.parametrize("n", range(5))
def test_tn_prime_matches_the_submodule_search(n):
    tn = cf.build_Tn(PrimeContext(2), n, prefix="tmp:")
    picked = [(cf.bprime_gid(m), ((1, 1, "tmp:" + w.label()),), f"b'{m}")
              for m, w in cf.bprime_words(n)]
    searched = submodule_presentation(tn, picked, cf.tn_top_degree(2, n) + 3).suspend(-2)
    direct = cf.build_Tn_prime(n)
    assert list(direct.generators.values()) == list(searched.generators.values())
    assert direct.relations == searched.relations


@pytest.mark.parametrize("n", range(9))
def test_tn_prime_shape(n):
    mod = cf.build_Tn_prime(n)
    assert len(mod.generators) == 2**n
    assert len(mod.relations) == 3 * 2**n - 1
    # each parent term of a rewriting strips at least a "10" off a word of
    # length at most n + 1, and the widest relation has them all
    assert max(len(rel.terms) for rel in mod.relations) == (n + 1) // 2 + 1


WINDOW_PAIRS = {
    "thh_ell-p2": (lambda w: cf.thh_ell(PrimeContext(2), w), 40, 72),
    "thh_ell-p3": (lambda w: cf.thh_ell(PrimeContext(3), w), 60, 130),
    "thh_ell_k1-p3": (lambda w: cf.thh_ell_k1(PrimeContext(3), w), 60, 130),
    "thh_ell_HZ-p3": (lambda w: cf.thh_ell_HZ(PrimeContext(3), w), 60, 130),
    "thh_ko": (cf.thh_ko, 40, 76),
    "thh_ko_ku": (cf.thh_ko_ku, 40, 76),
}


@pytest.mark.parametrize("name", sorted(WINDOW_PAIRS))
def test_groups_do_not_depend_on_the_window(name):
    # an answer built at two windows has the same group in every degree
    # that both trust
    make, small, large = WINDOW_PAIRS[name]
    a, b = make(small), make(large)
    bound = min(a.complete_below, b.complete_below)
    assert bound == small + 1
    assert [a.group_at(d) for d in range(bound)] == [b.group_at(d) for d in range(bound)]


def _add(*groups):
    """The group of a direct sum from its summands' (free rank, torsion)."""
    return (sum(r for r, _ in groups), sorted(o for _, t in groups for o in t))


@pytest.mark.parametrize("p", [2, 3])
def test_suspension_shifts_the_groups(p):
    tn = cf.build_Tn(PrimeContext(p), 3)
    top = max(g.degree for g in tn.generators.values()) + 2 * (2 * p - 2)
    for k in (1, 2 * p):
        shifted = tn.suspend(k)
        assert [shifted.group_at(d + k) for d in range(-k, top)] == [
            tn.group_at(d) for d in range(-k, top)]


@pytest.mark.parametrize("p, window", [(2, 160), (3, 240)])
def test_direct_sum_adds_the_groups(p, window):
    # thh_ell is the chain and the suspended torsion blocks side by side
    ctx = PrimeContext(p)
    ell = cf.thh_ell(ctx, window)
    chain = cf._divided_chain(
        cf.ell_ring(p), "F:phi{}", "phi{}*l1",
        lambda k: 2 * p - 1 + 2 * (p - 1) * cf.staircase_sum(p, k), window)
    blocks = [cf.build_Tn(ctx, n).suspend(shift)
              for n, _, shift in cf.torsion_block_shifts(p, window)]
    assert len(blocks) > 1
    for d in range(window + 1):
        assert ell.group_at(d) == _add(*(part.group_at(d) for part in [chain] + blocks))
