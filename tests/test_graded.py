import json
import pathlib
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from thh._intlin import (SubQuot, dense_row, group_invariants, row_kernel,
                         sparse_rows)
from thh.closed_forms import (_divided_chain, build_Tn, ell_ring, thh_ell, thh_ell_HZ,
                              thh_ell_k1, thh_ko, thh_ko_ku, thh_ko_eta_map, tn_top_degree,
                              torsion_block_shifts)
from thh.graded import (Generator, GradedModulePresentation, ModuleMap,
                        Relation, RingSpec, WindowError, submodule_presentation,
                        variable_multiplication_map)
from thh.padic import PrimeContext, staircase_sum
from thh.verify import (_through_cofiber, cokernel_subquot, eta_square_map,
                        kernel_subquot, ko_to_ku_map)

from test_cli import count_calls
from test_closed_forms import PRESENTATIONS

R2 = RingSpec(2, 2)
R3 = RingSpec(3, 4)


def cyclic(ring, order_exp, degree=0, gid="t", v_exp=None):
    """Z_(p)[v] / (p^order_exp) on one generator, and / (v^v_exp) too if given."""
    rels = [Relation(((ring.p**order_exp, 0, gid),))]
    if v_exp is not None:
        rels.append(Relation(((1, v_exp, gid),)))
    return GradedModulePresentation(ring, [Generator(gid, degree)], rels)


def test_free_module_groups():
    m = GradedModulePresentation(R2, [Generator("x", 3)], [])
    assert m.group_at(3) == (1, [])
    assert m.group_at(5) == (1, [])  # v x
    assert m.group_at(4) == (0, [])
    assert m.group_at(2) == (0, [])


def test_cyclic_with_v_truncation():
    # Z_(2)[v]/(4, v^3) on one degree-0 generator
    m = cyclic(R2, 2, v_exp=3)
    assert m.group_at(0) == (0, [4])
    assert m.group_at(2) == (0, [4])
    assert m.group_at(4) == (0, [4])
    assert m.group_at(6) == (0, [])


def test_a_relation_at_construction_gives_other_groups():
    # Z<g>, read first, must not answer for Z/4<g>, built with 4g = 0
    m = GradedModulePresentation(R2, [Generator("g", 0)], [])
    assert m.group_at(0) == (1, [])
    assert m.subquot_at(0).orders == [0]
    m = GradedModulePresentation(R2, [Generator("g", 0)], [Relation(((4, 0, "g"),))])
    assert m.group_at(0) == (0, [4])
    assert m.subquot_at(0).orders == [4]


def test_inhomogeneous_relation_rejected():
    with pytest.raises(ValueError):
        GradedModulePresentation(R2, [Generator("a", 0), Generator("b", 1)],
                                 [Relation(((1, 0, "a"), (1, 0, "b")))])


@pytest.mark.parametrize("gens, rels, message", [
    ([("a", 0)], [()], "empty relation"),
    ([("a", 0)], [((1, 0, "a"),), ((1, 0, "z"),)],
     "relation references unknown generator z"),
    ([("a", 0)], [((2, 1, "a"), (1, -1, "a"))], "negative v-exponent in relation"),
    ([("a", 0), ("b", 1)], [((1, 0, "a"), (1, 0, "b"))],
     "inhomogeneous relation: degrees [0, 1] in ((1, 0, 'a'), (1, 0, 'b'))"),
    ([("a", 0), ("b", 2), ("a", 4)], [], "duplicate generator id a"),
], ids=["empty", "unknown-generator", "negative-v-exponent", "inhomogeneous",
        "duplicate-generator"])
def test_constructor_rejects_a_malformed_presentation(gens, rels, message):
    with pytest.raises(ValueError) as err:
        GradedModulePresentation(R2, [Generator(*g) for g in gens],
                                 [Relation(terms) for terms in rels])
    assert str(err.value) == message


def test_mixed_extension_relation():
    # 2a = v b with |a| = 2, |b| = 0: degree-2 group is Z/4 generated by a
    m = GradedModulePresentation(R2, [Generator("a", 2), Generator("b", 0)],
                                 [Relation(((4, 0, "b"),)),
                                  Relation(((2, 0, "a"), (-1, 1, "b")))])
    assert m.group_at(0) == (0, [4])
    assert m.group_at(2) == (0, [8])


def test_suspend_shifts_every_degree():
    m = cyclic(R3, 1, degree=2)
    s = m.suspend(5)
    for d in range(0, 16):
        assert s.group_at(d + 5) == m.group_at(d)


def test_direct_sum_adds_groups():
    a = cyclic(R2, 1, gid="a")
    b = cyclic(R2, 2, degree=2, gid="b")
    s = GradedModulePresentation.direct_sum([a, b])
    assert s.group_at(0) == (0, [2])
    assert s.group_at(2) == (0, [2, 4])


@pytest.mark.parametrize("p, window", [(2, 256), (3, 600)])
def test_direct_sum_slices_are_the_parts_slices_in_part_order(p, window):
    # the printed labels read a slice's cells in order and the pivot
    # sequence reads its rows in order, so in each degree a sum's slice is
    # its parts' own cells and rows in part order, each part's columns
    # offset by the cells of the parts before it; thh_ell is such a sum
    ctx = PrimeContext(p)
    ring = ell_ring(p)
    unit = GradedModulePresentation(ring, [Generator("iota", 0, "iota")], [])
    chain = _divided_chain(ring, "F:phi{}", "phi{}*l1",
                           lambda k: 2 * p - 1 + 2 * (p - 1) * staircase_sum(p, k), window)
    blocks = [build_Tn(ctx, n, prefix=f"T[{n},{k}]:").suspend(shift)
              for n, k, shift in torsion_block_shifts(p, window)]
    parts = [unit, chain] + blocks
    total = GradedModulePresentation.direct_sum(parts)
    ell = thh_ell(ctx, window, False)
    shared = 0
    for d in range(-1, window + 1):
        cells, rows, offset = [], [], 0
        for part in parts:
            rows += [[(offset + j, c) for j, c in row] for row in part.slice_relation_rows(d)]
            part_cells = part.slice_cells(d)
            cells += part_cells
            offset += len(part_cells)
        shared += sum(1 for part in parts if part.slice_cells(d)) > 1
        assert total.slice_cells(d) == ell.slice_cells(d) == cells, d
        assert total.slice_relation_rows(d) == ell.slice_relation_rows(d) == rows, d
    assert shared > window // 4


def test_direct_sum_refuses_a_duplicate_generator_id():
    a = cyclic(R2, 1, gid="a")
    with pytest.raises(ValueError, match="duplicate generator id a"):
        GradedModulePresentation.direct_sum([a, cyclic(R2, 2, degree=2, gid="a")])
    with pytest.raises(ValueError, match="duplicate generator id a"):
        GradedModulePresentation.direct_sum([a, a.suspend(2)])
    with pytest.raises(ValueError, match="different rings"):
        GradedModulePresentation.direct_sum([a, cyclic(R3, 1, gid="b")])


def test_order_of_and_is_zero_at():
    m = cyclic(R2, 3)
    assert m.order_of(0, [(1, 0, "t")]) == 8
    assert m.order_of(0, [(4, 0, "t")]) == 2
    assert m.is_zero_at(0, [(8, 0, "t")])


def test_order_of_reads_large_orders():
    # the order comes from the summand coordinates, not from trying p-powers
    m = cyclic(R2, 62)
    assert m.order_of(0, [(1, 0, "t")]) == 2**62
    assert m.order_of(0, [(6, 0, "t")]) == 2**61
    free = GradedModulePresentation(R2, [Generator("x", 0)], [])
    assert free.order_of(0, [(3, 0, "x")]) == 0
    assert free.order_of(0, [(0, 0, "x")]) == 1


def test_readers_refuse_degrees_past_the_window():
    m = thh_ell(PrimeContext(2), 64)
    assert m.complete_below == 65
    assert m.group_at(64) == data(m.subquot_at(64))
    for d in (65, 100):
        for read in (m.group_at, m.subquot_at, m.vstep_at):
            with pytest.raises(WindowError):
                read(d)
    # a map refuses a degree whose image lands past the target's window,
    # even when an answer of the same shape pair is cached: v on Z/4[v],
    # complete below 10, reads the pair of degrees (8, 10) as that of (2, 4)
    z4 = GradedModulePresentation(R2, [Generator("t", 0)],
                                  [Relation(((4, 0, "t"),))], 10)
    vmap = variable_multiplication_map(z4)
    assert vmap.image_subquot(2).torsion() == [4]
    with pytest.raises(WindowError):
        vmap.image_subquot(8)
    # a dual has no bound and answers at negative degrees
    dual = build_Tn(PrimeContext(3), 2).dual(0, tn_top_degree(3, 2))
    assert dual.complete_below is None
    assert dual.group_at(-4) == data(dual.subquot_at(-4)) != (0, [])


def test_dual_reverses_degrees_and_keeps_orders():
    m = cyclic(R2, 1, v_exp=2)  # Z/2 in degrees 0, 2
    d = m.dual(0, 3)
    assert d.group_at(0) == (0, [2])
    assert d.group_at(-2) == (0, [2])


def test_action_matrix_p_respects_orders():
    m = cyclic(R2, 2)
    mat = m.action_matrix(0, "p")
    assert mat == [[2]]


def test_module_map_respects_relations_and_kernel():
    src = cyclic(R2, 1, gid="s")  # Z/2[v]
    tgt = cyclic(R2, 2, gid="t")  # Z/4[v]
    ok = ModuleMap(src, tgt, {"s": ((2, 0, "t"),)})
    assert ok.respects_relations()
    bad = ModuleMap(src, tgt, {"s": ((1, 0, "t"),)})
    assert not bad.respects_relations()
    assert ok.injective_at(0)
    assert not ok.surjective_at(0)
    # s -> t has the kernel 4Z, which does not hold the relation 2s
    with pytest.raises(ValueError):
        kernel_subquot(bad, 0)


def test_module_map_image_subquot():
    src = GradedModulePresentation(R2, [Generator("s", 0)], [])
    tgt = cyclic(R2, 3, gid="t")
    mp = ModuleMap(src, tgt, {"s": ((2, 0, "t"),)})
    img = mp.image_subquot(0)
    assert img.free_rank() == 0
    assert img.torsion() == [4]


@pytest.mark.parametrize("side", ["source", "target"])
def test_module_map_reads_a_relation_given_at_construction(side):
    # the map's groups are cached by slice-shape pair, and one more relation
    # on either side gives other shapes: 2: Z -> Z/8, read first, must not
    # answer for Z/4 -> Z/8 or for Z -> Z/2
    src = GradedModulePresentation(R2, [Generator("s", 0)], [])
    tgt = cyclic(R2, 3, gid="t")
    mp = ModuleMap(src, tgt, {"s": ((2, 0, "t"),)})
    assert mp.summand_matrix(0) == [[2]]
    assert not mp.injective_at(0) and mp.image_subquot(2).torsion() == [4]
    if side == "source":
        src = cyclic(R2, 2, gid="s")
    else:
        tgt = GradedModulePresentation(R2, [Generator("t", 0)],
                                       tgt.relations + (Relation(((2, 0, "t"),)),))
    mp = ModuleMap(src, tgt, {"s": ((2, 0, "t"),)})
    assert mp.respects_relations()
    if side == "source":
        assert mp.summand_matrix(0) == [[2]]
        assert mp.injective_at(0) and mp.image_subquot(2).torsion() == [4]
    else:
        assert mp.summand_matrix(0) == [[0]]
        assert mp.image_subquot(2).torsion() == []
    assert_map_groups_match_cells(mp, range(4))


def test_submodule_presentation_matches_by_hand():
    m = cyclic(R2, 3)  # Z/8[v]
    sub = submodule_presentation(m, [("u", ((2, 0, "t"),), "u")], hi=6)
    for d in (0, 2, 4):
        assert sub.group_at(d) == (0, [4])


@settings(max_examples=30)
@given(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(0, 4))
def test_isomorphic_on_self(p, e, deg):
    m = cyclic(RingSpec(p, 2), e, degree=deg)
    assert m.isomorphic_on(m, range(0, 11))


def test_invariant_checks_survive_optimized_mode():
    # python -O strips assert statements; these checks must still raise
    import os
    import pathlib
    import subprocess
    import sys
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "from thh.graded import Generator, GradedModulePresentation, RingSpec\n"
        "m = GradedModulePresentation(RingSpec(2, 2),\n"
        "                             [Generator('a', 0), Generator('b', 1)], [])\n"
        "for call in (lambda: m.term_degree([(1, 0, 'a'), (1, 0, 'b')]),\n"
        "             lambda: GradedModulePresentation.direct_sum([])):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        print('raised')\n"
        "    else:\n"
        "        print('silent')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 2


EXPRESS_PIN = pathlib.Path(__file__).parent / "golden" / "subquot-express.json"


def express_coordinates(sq, got):
    """The coordinates of express's (ints, unit) one by one: torsion ones as
    ints mod their order, free ones as Fractions."""
    ints, unit = got
    assert unit > 0 and all(type(x) is int for x in ints)
    out = []
    for x, o in zip(ints, sq.orders):
        assert x % unit == 0 or not o
        out.append(x // unit if o else Fraction(x, unit))
    # unit is the least denominator of the free coordinates
    assert lcm(*(c.denominator for c in out if isinstance(c, Fraction))) == unit
    return out


def express_table(module, window):
    """{degree: subquot_at(d).express of each unit vector, each slice relation
    row and their sum}, with free coordinates as Fraction strings."""
    out = {}
    for d in range(window + 1):
        n = len(module.slice_cells(d))
        if not n:
            continue
        rels = [dense_row(r, n) for r in module.slice_relation_rows(d)]
        vecs = [[int(i == j) for j in range(n)] for i in range(n)]
        vecs += rels + [[sum(c) for c in zip(*rels)] if rels else [0] * n]
        sq = module.subquot_at(d)
        out[str(d)] = [None if e is None else
                       [str(c) if isinstance(c, Fraction) else c
                        for c in express_coordinates(sq, e)]
                       for e in map(sq.express, vecs)]
    return out


def test_subquot_express_is_pinned():
    # the torsion coordinates of express read the column transform Q and the
    # inverse of its unit denominators, at orders up to 3^4 and 2^5 where
    # units other than +-1 show; the CLI pins barely reach express
    want = json.loads(EXPRESS_PIN.read_text())
    assert express_table(thh_ell(PrimeContext(3), 120), 120) == want["ell-p3-w120"]
    assert express_table(thh_ko(64), 64) == want["ko-w64"]


# -- maps in summand coordinates against the slice-cell computation ------------
# The cell_* functions compute image, kernel and cokernel over whole degree
# slices, independently of summand coordinates; they are the reference.


def cell_image_subquot(mp, d):
    """The image of degree d as a subquotient of the whole target slice."""
    td = d + mp.degree_shift
    n_tgt = len(mp.target.slice_cells(td))
    src_sq = mp.source.subquot_at(d)
    mat = mp.matrix(d)
    gen_rows = []
    for idx in range(len(src_sq.summands)):
        row = [0] * n_tgt
        for i, c in enumerate(src_sq.generator_vector(idx)):
            if c:
                for t, m in enumerate(mat[i]):
                    row[t] += c * m
        gen_rows.append(row)
    rels = mp.target.slice_relation_rows(td)
    return SubQuot(mp.target.ring.p, n_tgt, sparse_rows(gen_rows) + rels, rels)


def cell_kernel_subquot(mp, d):
    """The kernel of degree d as a subquotient of the whole source slice."""
    p = mp.source.ring.p
    mat = mp.matrix(d)
    n_src = len(mat)
    tgt_rels = mp.target.slice_relation_rows(d + mp.degree_shift)
    n_tgt = len(mp.target.slice_cells(d + mp.degree_shift))
    src_rels = mp.source.slice_relation_rows(d)
    rows = (None if n_tgt == 0 else
            sparse_rows([k[:n_src] for k in
                         row_kernel(sparse_rows(mat) + tgt_rels, n_tgt, p)]) + src_rels)
    return SubQuot(p, n_src, rows, src_rels)


def cell_cokernel_subquot(mp, d):
    """The cokernel at degree d + shift as a quotient of the whole target slice."""
    td = d + mp.degree_shift
    return SubQuot(mp.target.ring.p, len(mp.target.slice_cells(td)), None,
                   mp.target.slice_relation_rows(td) + sparse_rows(mp.matrix(d)))


def data(sq):
    return sq.free_rank(), sq.torsion()


def whole_slice_subquot(module, d):
    """The degree-d group as a `SubQuot` of the whole slice, built afresh."""
    return SubQuot(module.ring.p, len(module.slice_cells(d)), None,
                   module.slice_relation_rows(d))


def assert_map_rows_respect_orders(mp, d):
    """Each row of `summand_matrix(d)` times the order of its source summand
    vanishes in the target, with both orders read off the whole slices."""
    rows = mp.summand_matrix(d)
    src = whole_slice_subquot(mp.source, d).orders
    tgt = whole_slice_subquot(mp.target, d + mp.degree_shift).orders
    assert len(rows) == len(src), d
    for j, (row, a) in enumerate(zip(rows, src)):
        assert len(row) == len(tgt), (d, j)
        for k, (x, b) in enumerate(zip(row, tgt)):
            if a:
                assert (a * x) % b == 0 if b else x == 0, (d, j, k)


def assert_map_groups_match_cells(mp, degrees):
    for d in degrees:
        kernel = kernel_subquot(mp, d)
        assert data(mp.image_subquot(d)) == data(cell_image_subquot(mp, d)), d
        assert data(kernel) == data(cell_kernel_subquot(mp, d)), d
        assert data(cokernel_subquot(mp, d)) == data(cell_cokernel_subquot(mp, d)), d
        assert_map_rows_respect_orders(mp, d)
        # each kernel generator maps into the target's order lattice: the
        # rows are the map times one p-unit, so x maps into L_b exactly when
        # sum_j x_j rows[j] lies in L_b
        rows = mp.summand_matrix(d)
        orders = whole_slice_subquot(mp.target, d + mp.degree_shift).orders
        for idx in range(len(kernel.summands)):
            x = kernel.generator_vector(idx)
            for k, o in enumerate(orders):
                y = sum(c * row[k] for c, row in zip(x, rows))
                assert (y % o == 0) if o else (y == 0), (d, idx, k)


@pytest.mark.parametrize("name", ["eta", "eta^2", "v-ell", "v-k1", "ko-to-ku"])
def test_map_groups_match_slice_cells(name):
    if name in ("eta", "eta^2"):
        # eta^2 reads the target at d + 2, up to 41, past thh_ko(40)'s window
        ko = thh_ko(42)
        mp = thh_ko_eta_map(ko) if name == "eta" else eta_square_map(ko)
        degrees = range(40)
    elif name == "ko-to-ku":
        mp, degrees = ko_to_ku_map(32), range(33)
    else:
        build = thh_ell if name == "v-ell" else thh_ell_k1
        mp = variable_multiplication_map(build(PrimeContext(3), 60))
        degrees = range(61 - mp.degree_shift)
    assert_map_groups_match_cells(mp, degrees)


def test_map_groups_with_unit_denominators():
    # Z^2 / (2a - 3vb) is free of rank one in degree 2, and in the v-step
    # only the summand coordinate of vb carries the 2-unit denominator 3
    tgt = GradedModulePresentation(R2, [Generator("a", 2), Generator("b", 0)],
                                   [Relation(((2, 0, "a"), (-3, 1, "b")))])
    src = GradedModulePresentation(R2, [Generator("s", 2), Generator("r", 0)], [])
    mp = ModuleMap(src, tgt, {"s": ((1, 0, "a"),), "r": ((1, 0, "b"),)})
    # r and s map to vb = -2/3 and a = -1, over the common unit 3
    assert mp.summand_matrix(2) == [[-2], [-3]]
    # the degree-2 element 2s + vr
    assert mp.image_of(((2, 0, "s"), (1, 1, "r"))) == [(2, 0, "a"), (1, 1, "b")]
    assert_map_groups_match_cells(mp, range(6))
    assert kernel_subquot(mp, 2).free_rank() == 1


@st.composite
def presented_maps(draw):
    """A map between two small presentations over Z_(p)[v], |v| = 2: cyclic
    generators cut by p-powers and v-powers, glued by extensions p*g = u*v^k*h
    with u a p-unit; units other than +-1 give p-local fractional coordinates."""
    p = draw(st.sampled_from([2, 3]))
    ring = RingSpec(p, 2)

    def presentation(prefix):
        gens = [Generator(f"{prefix}{i}", draw(st.sampled_from([0, 2, 4])))
                for i in range(draw(st.integers(1, 3)))]
        rels = []
        for g in gens:
            a, r = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            if a:
                rels.append(Relation(((p**a, 0, g.gid),)))
            if r:
                rels.append(Relation(((1, r, g.gid),)))
        for g in gens:
            for h in gens:
                gap = g.degree - h.degree
                if g is not h and gap >= 0 and gap % 2 == 0 and draw(st.booleans()):
                    u = draw(st.sampled_from([1, -1, p + 1]))
                    rels.append(Relation(((p, 0, g.gid), (-u, gap // 2, h.gid))))
        return GradedModulePresentation(ring, gens, rels)

    src, tgt = presentation("s"), presentation("t")
    shift = draw(st.sampled_from([0, 2]))
    images = {}
    for g in src.generators.values():
        terms = []
        for h in tgt.generators.values():
            gap = g.degree + shift - h.degree
            if gap >= 0 and gap % 2 == 0:
                c = draw(st.sampled_from([1, -1, 2, p, p * p, 0]))
                if c:
                    terms.append((c, gap // 2, h.gid))
        images[g.gid] = tuple(terms)
    return ModuleMap(src, tgt, images, degree_shift=shift)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(presented_maps())
def test_random_map_groups_match_slice_cells(mp):
    # the summand-coordinate reading is a map of groups only when the map
    # respects relations
    assume(mp.respects_relations())
    assert_map_groups_match_cells(mp, range(12))


# -- slice rows against the dense builder they replace --------------------------


def dense_slice(module, d):
    """(cells, relation rows) of the degree-d slice as dense lists: cells by
    a scan of every generator, rows by adding each term's coefficient into a
    zero row and dropping the rows that vanish.  The builder the kernel took
    before it took (column, value) rows, read from public attributes."""
    vd = module.ring.v_degree
    cells = []
    for g in module.generators.values():
        rem = d - g.degree
        if rem >= 0 and rem % vd == 0:
            cells.append((g.gid, rem // vd))
    index = {c: i for i, c in enumerate(cells)}
    rows = []
    for rel in module.relations:
        base = module.term_degree(rel.terms)
        if base > d or (d - base) % vd:
            continue
        shift = (d - base) // vd
        row = [0] * len(cells)
        for coeff, v_exp, gid in rel.terms:
            row[index[(gid, v_exp + shift)]] += coeff
        if any(row):
            rows.append(row)
    return cells, rows


def assert_slices_match_dense_builder(module, degrees):
    for d in degrees:
        cells, rows = dense_slice(module, d)
        assert module.slice_cells(d) == cells, d
        got = module.slice_relation_rows(d)
        for row in got:
            cols = [j for j, _ in row]
            assert len(set(cols)) == len(cols) and all(x for _, x in row), d
        assert [dense_row(r, len(cells)) for r in got] == rows, d


@pytest.mark.parametrize("name", sorted(PRESENTATIONS) + ["thh_ell-p2-w256", "thh_ko-w164"])
def test_slice_rows_match_the_dense_builder(name):
    if name == "thh_ell-p2-w256":
        module, w = thh_ell(PrimeContext(2), 256), 256
    elif name == "thh_ko-w164":
        module, w = thh_ko(164), 164
    else:
        make, w, reduced = PRESENTATIONS[name]
        module = make(w, reduced)
    assert_slices_match_dense_builder(module, range(w + 1))


def test_slice_rows_merge_repeated_terms_and_drop_cancelled_ones():
    gens = [Generator("a", 0), Generator("b", 2), Generator("c", 2)]
    rels = [Relation(((3, 1, "a"), (2, 0, "b"), (5, 1, "a"))),   # 8 v a + 2 b
            Relation(((1, 0, "c"), (-1, 0, "c"))),                # cancels
            Relation(((2, 1, "a"), (1, 0, "c"), (-2, 1, "a"))),   # c
            Relation(((4, 0, "a"),))]
    m = GradedModulePresentation(R2, gens, rels)
    # the relations are kept as given; only the slice rows merge their terms
    assert m.relations == tuple(rels)
    assert m.slice_relation_rows(2) == [[(0, 8), (1, 2)], [(2, 1)], [(0, 4)]]
    assert m.slice_relation_rows(4) == [[(0, 8), (1, 2)], [(2, 1)], [(0, 4)]]
    assert_slices_match_dense_builder(m, range(7))
    assert m.group_at(2) == (0, [2, 4])


class DegreeKeyed(GradedModulePresentation):
    """The same presentation with every degree its own slice shape, so each
    degree's slice is reduced on its own."""

    def slice_shape(self, d):
        return (d,)


def assert_shape_keyed_answers(module, degrees):
    """Every shape-keyed answer of `module` at `degrees`, visited in that
    order, equals the one computed from the degree's own slice."""
    oracle = DegreeKeyed(module.ring, list(module.generators.values()),
                         module.relations, module.complete_below)
    vmap = variable_multiplication_map(module)
    vd = module.ring.v_degree
    top = max(degrees)
    for d in degrees:
        cells = module.slice_cells(d)
        rows = module.slice_relation_rows(d)
        want = SubQuot(module.ring.p, len(cells), None, rows)
        assert module.group_at(d) == group_invariants(rows, len(cells), module.ring.p), d
        got = module.subquot_at(d)
        assert got.orders == want.orders, d
        assert [got.generator_vector(i) for i in range(len(got.orders))] == \
            [want.generator_vector(i) for i in range(len(want.orders))], d
        assert module.summand_labels(d) == oracle.summand_labels(d), d
        for gid, e in cells:
            terms = ((1, e, gid),)
            assert module.coordinates(d, terms) == oracle.coordinates(d, terms), (d, gid)
        if d + vd <= top:
            # the map's summand coordinates are those of the v-step, not of
            # the whole slice, so only basis-free answers can be compared
            assert_map_groups_match_whole_slices(vmap, d)


SHAPE_KEYED = {
    "thh_ell-p2-w128": (lambda: thh_ell(PrimeContext(2), 128), 128),
    "thh_ell-p3-w160": (lambda: thh_ell(PrimeContext(3), 160), 160),
    "build_Tn-p5-n2": (lambda: build_Tn(PrimeContext(5), 2), tn_top_degree(5, 2)),
    "thh_ko-w64": (lambda: thh_ko(64), 64),
    "thh_ko_ku-w64": (lambda: thh_ko_ku(64), 64),
}


@pytest.mark.parametrize("name", sorted(SHAPE_KEYED))
def test_shape_keyed_answers_match_each_degree(name):
    make, top = SHAPE_KEYED[name]
    module = make()
    shapes = {module.slice_shape(d) for d in range(top + 1)}
    assert len(shapes) < top + 1   # some slices repeat
    assert_shape_keyed_answers(module, range(top, -1, -1))
    degrees = list(range(top + 1))
    random.Random(name).shuffle(degrees)
    assert_shape_keyed_answers(make(), degrees)


def assert_map_groups_match_whole_slices(mp, d):
    """The image, kernel and cokernel `mp` caches by slice-shape pair, as
    (free rank, torsion), equal those computed over the whole degree-d
    slices, and the summand-matrix rows respect the summand orders."""
    assert data(mp.image_subquot(d)) == data(cell_image_subquot(mp, d)), d
    assert data(mp.induced(d, kernel_subquot)) == data(cell_kernel_subquot(mp, d)), d
    assert data(mp.induced(d, cokernel_subquot)) == data(cell_cokernel_subquot(mp, d)), d
    assert_map_rows_respect_orders(mp, d)


def cell_cofiber(mp, n):
    """(free rank, order exponent) in degree n of the map's cofiber, from the
    whole slices: the cokernel landing in degree n plus the kernel below."""
    d = n - mp.degree_shift
    ck = cell_cokernel_subquot(mp, d)
    kr = cell_kernel_subquot(mp, d - 1) if d >= 1 else None
    return (ck.free_rank() + (kr.free_rank() if kr else 0),
            ck.total_order_exponent() + (kr.total_order_exponent() if kr else 0))


def assert_map_groups_keyed_by_shape(mp, degrees):
    """Every group `mp` caches by slice-shape pair, visited in `degrees`
    order, equals the one computed over the whole slices of its degree."""
    for d in degrees:
        assert_map_groups_match_whole_slices(mp, d)
        n = d + mp.degree_shift
        assert _through_cofiber(mp, n) == cell_cofiber(mp, n), d


SHAPE_KEYED_MAPS = {
    "v-thh_ell-p3-w160": (
        lambda: variable_multiplication_map(thh_ell(PrimeContext(3), 160)), 160 - 4),
    "v-thh_ell_k1-p5-w400": (
        lambda: variable_multiplication_map(thh_ell_k1(PrimeContext(5), 400)), 400 - 8),
    "eta-thh_ko-w68": (lambda: thh_ko_eta_map(thh_ko(68)), 68 - 1),
}


@pytest.mark.parametrize("name", sorted(SHAPE_KEYED_MAPS))
def test_map_groups_keyed_by_shape_match_each_degree(name):
    make, top = SHAPE_KEYED_MAPS[name]
    mp = make()
    pairs = {(mp.source.slice_shape(d), mp.target.slice_shape(d + mp.degree_shift))
             for d in range(top + 1)}
    assert len(pairs) < top + 1   # some shape pairs repeat
    degrees = list(range(top + 1))
    assert_map_groups_keyed_by_shape(mp, degrees)
    assert_map_groups_keyed_by_shape(make(), degrees[::-1])
    random.Random(name).shuffle(degrees)
    assert_map_groups_keyed_by_shape(make(), degrees)


def test_slice_shape_counts_the_steps_of_the_residue():
    # residue 0 steps at 0 (a), 4 (b) and 6 (4 v b); the cancelled relation
    # at 2 is no step
    m = GradedModulePresentation(R2, [Generator("a", 0), Generator("b", 4),
                                      Generator("c", 1)],
                                 [Relation(((4, 1, "b"),)),
                                  Relation(((1, 1, "a"), (-1, 1, "a")))])
    assert [m.slice_shape(d) for d in range(9)] == [
        (0, 1), (1, 1), (0, 1), (1, 1), (0, 2), (1, 1), (0, 3), (1, 1), (0, 3)]


def with_relation_between_two_steps(module, top, where=lambda base: True):
    """(base, `module` built with one more relation p v^e g = 0): the first
    generator g and base < top of g's residue strictly between two step
    degrees of that residue, with `where(base)`."""
    vd = module.ring.v_degree
    steps = sorted({g.degree for g in module.generators.values()}
                   | {module.term_degree(rel.terms) for rel in module.relations})
    g, base = next((g, b) for g in module.generators.values()
                   for b in range(g.degree + vd, top, vd)
                   if b not in steps and any(s > b and (s - b) % vd == 0 for s in steps)
                   and where(b))
    rel = Relation(((module.ring.p, (base - g.degree) // vd, g.gid),))
    return base, GradedModulePresentation(module.ring, list(module.generators.values()),
                                          module.relations + (rel,), module.complete_below)


@pytest.mark.parametrize("make", [
    lambda: GradedModulePresentation(R2, [Generator("a", 0), Generator("b", 6)],
                                     [Relation(((8, 0, "a"),))]),
    lambda: thh_ell(PrimeContext(2), 128),
], ids=["by-hand", "thh_ell-p2-w128"])
def test_relation_between_two_steps_gives_other_shapes(make):
    module = make()
    top = 40
    assert_shape_keyed_answers(module, range(top, -1, -1))
    # a relation p v^e g = 0 at a base strictly between two step degrees of
    # its residue: the shapes from the base on name other slices
    base, extra = with_relation_between_two_steps(module, top)
    assert extra.slice_shape(base) != module.slice_shape(base)
    before = [module.group_at(d) for d in range(top + 1)]
    after = [extra.group_at(d) for d in range(top + 1)]
    assert after[base] != before[base]
    assert_shape_keyed_answers(extra, range(top, -1, -1))


# -- the v-step reduction against whole-slice Smith forms ------------------------


def whole_slice_order(sq, vec):
    """p-local order of a slice vector in the whole-slice `SubQuot` sq."""
    ints, _ = sq.express(vec)
    order = 1
    for c, o in zip(ints, sq.orders):
        if not o:
            if c:
                return 0
        else:
            order = max(order, o // gcd(c, o))
    return order


def assert_vstep_matches_whole_slices(module, degrees):
    """At the first degree of each slice shape in `degrees`: the v-step's
    orders are the whole slice's, `is_zero_at` and `order_of` agree with the
    whole slice on every cell, on p times it and on the sum of two
    neighbouring cells, every slice relation is zero, and each v-step
    summand generator has its own order in the whole slice."""
    vd = module.ring.v_degree
    seen = set()
    for d in degrees:
        shape = module.slice_shape(d)
        if shape in seen:
            continue
        seen.add(shape)
        step = module.vstep_at(d)
        sq = whole_slice_subquot(module, d)
        assert step.orders == sq.orders, d
        cells = module.slice_cells(d)
        elements = ([((c, e, gid),) for gid, e in cells for c in (1, module.ring.p)]
                    + [((1, e, gid), (1, f, hid))
                       for (gid, e), (hid, f) in zip(cells, cells[1:])])
        for terms in elements:
            vec = module.element_vector(d, terms)
            assert module.is_zero_at(d, terms) == sq.is_zero(vec), (d, terms)
            assert module.order_of(d, terms) == whole_slice_order(sq, vec), (d, terms)
        for row in module.slice_relation_rows(d):
            assert module.is_zero_at(d, [(x, cells[j][1], cells[j][0]) for j, x in row]), d
        for k, gen in enumerate(step.gens):
            terms = [(c, (d - module.generators[gid].degree) // vd, gid)
                     for gid, c in gen.items()]
            vec = module.element_vector(d, terms)
            assert whole_slice_order(sq, vec) == step.orders[k], (d, k)
    return seen


VSTEP_MODULES = {
    # b's coordinate in degree 2 is 2/3 of the summand's: the 2-unit 3 must
    # divide it in every later step, where 3 v^2 b - 2 v a is already zero
    "units-by-hand-p2": (lambda: GradedModulePresentation(
        R2, [Generator("b", 0), Generator("a", 2), Generator("c", 4)],
        [Relation(((2, 0, "a"), (-3, 1, "b"))), Relation(((3, 2, "b"), (-2, 1, "a"))),
         Relation(((4, 0, "c"), (-5, 2, "b")))]), range(9)),
    "thh_ell-p2-w256": (lambda: thh_ell(PrimeContext(2), 256), range(257)),
    "thh_ell-p3-w600": (lambda: thh_ell(PrimeContext(3), 600), range(601)),
    "thh_ell-p5-w1500": (lambda: thh_ell(PrimeContext(5), 1500), range(1501)),
    "thh_ell_k1-p3-w600": (lambda: thh_ell_k1(PrimeContext(3), 600), range(601)),
    "thh_ell_HZ-p3-w600": (lambda: thh_ell_HZ(PrimeContext(3), 600), range(601)),
    "thh_ko-w256": (lambda: thh_ko(256), range(257)),
    "thh_ko_ku-w256": (lambda: thh_ko_ku(256), range(257)),
    "build_Tn-p5-n2": (lambda: build_Tn(PrimeContext(5), 2),
                       range(tn_top_degree(5, 2) + 1)),
    # generators in degrees -top..0: a walk from degree 0 would miss them all
    "dual-build_Tn-p3-n2": (lambda: build_Tn(PrimeContext(3), 2).dual(
        0, tn_top_degree(3, 2)), range(-tn_top_degree(3, 2) - 4, 1)),
}


@pytest.mark.parametrize("name", sorted(VSTEP_MODULES))
def test_vstep_matches_whole_slices_at_every_shape(name):
    make, degrees = VSTEP_MODULES[name]
    module = make()
    seen = assert_vstep_matches_whole_slices(module, degrees)
    assert len(seen) < len(degrees)   # some slices repeat
    if name.startswith("dual"):
        assert any(module.group_at(d) != (0, []) for d in degrees if d < 0)


def test_vstep_of_a_relation_between_two_steps():
    # read every v-step, then build the module again with p v^e g = 0 at a
    # base strictly between two step degrees of its residue, where the
    # first module's groups do not hold
    module = thh_ell(PrimeContext(2), 128)
    top = 60
    assert_vstep_matches_whole_slices(module, range(top + 1))
    before = [module.vstep_at(d).orders for d in range(top + 1)]
    base, extra = with_relation_between_two_steps(module, top,
                                                  lambda b: module.group_at(b)[0])
    assert extra.vstep_at(base).orders != before[base]
    assert_vstep_matches_whole_slices(extra, range(top + 1))


@pytest.mark.parametrize("make, top", [
    (lambda: thh_ko_ku(256), 256),
    (lambda: thh_ell(PrimeContext(5), 1500), 1500),
], ids=["thh_ko_ku-w256", "thh_ell-p5-w1500"])
def test_group_at_builds_no_whole_slice(monkeypatch, make, top):
    # group_at reads the v-step alone; the v-step oracle above checks its
    # values against the whole slices
    module = make()
    calls = count_calls(monkeypatch, GradedModulePresentation,
                        ("slice_relation_rows", "subquot_at"))
    groups = [module.group_at(d) for d in range(top + 1)]
    assert any(g != (0, []) for g in groups)
    assert calls == {"slice_relation_rows": 0, "subquot_at": 0}
