import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thh.closed_forms import thh_ell, thh_ko
from thh.graded import (Generator, GradedModulePresentation, ModuleMap,
                        Relation, RingSpec, submodule_presentation)
from thh.padic import PrimeContext

R2 = RingSpec(2, 2)
R3 = RingSpec(3, 4)


def cyclic(ring, order_exp, degree=0, gid="t"):
    m = GradedModulePresentation(ring, [Generator(gid, degree)], [])
    m.add_relation(Relation(((ring.p**order_exp, 0, gid),)))
    return m


def test_free_module_groups():
    m = GradedModulePresentation(R2, [Generator("x", 3)], [])
    assert m.group_at(3) == (1, [])
    assert m.group_at(5) == (1, [])  # v x
    assert m.group_at(4) == (0, [])
    assert m.group_at(2) == (0, [])


def test_cyclic_with_v_truncation():
    # Z_(2)[v]/(4, v^3) on one degree-0 generator
    m = cyclic(R2, 2)
    m.add_relation(Relation(((1, 3, "t"),)))
    assert m.group_at(0) == (0, [4])
    assert m.group_at(2) == (0, [4])
    assert m.group_at(4) == (0, [4])
    assert m.group_at(6) == (0, [])


def test_inhomogeneous_relation_rejected():
    m = GradedModulePresentation(R2, [Generator("a", 0), Generator("b", 1)], [])
    with pytest.raises(ValueError):
        m.add_relation(Relation(((1, 0, "a"), (1, 0, "b"))))


def test_mixed_extension_relation():
    # 2a = v b with |a| = 2, |b| = 0: degree-2 group is Z/4 generated by a
    m = GradedModulePresentation(R2, [Generator("a", 2), Generator("b", 0)], [])
    m.add_relation(Relation(((4, 0, "b"),)))
    m.add_relation(Relation(((2, 0, "a"), (-1, 1, "b"))))
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


def test_dual_reverses_degrees_and_keeps_orders():
    m = cyclic(R2, 1)
    m.add_relation(Relation(((1, 2, "t"),)))  # Z/2 in degrees 0, 2
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


def test_module_map_image_subquot():
    src = GradedModulePresentation(R2, [Generator("s", 0)], [])
    tgt = cyclic(R2, 3, gid="t")
    mp = ModuleMap(src, tgt, {"s": ((2, 0, "t"),)})
    img = mp.image_subquot(0)
    assert img.free_rank() == 0
    assert img.torsion() == [4]


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


def express_table(module, window):
    """{degree: subquot_at(d).express of each unit vector, each slice relation
    row and their sum}, with free coordinates as Fraction strings."""
    out = {}
    for d in range(window + 1):
        n = len(module.slice_cells(d))
        if not n:
            continue
        rels = module.slice_relation_rows(d)
        vecs = [[int(i == j) for j in range(n)] for i in range(n)]
        vecs += rels + [[sum(c) for c in zip(*rels)] if rels else [0] * n]
        sq = module.subquot_at(d)
        out[str(d)] = [None if e is None else
                       [str(c) if isinstance(c, Fraction) else c for c in e]
                       for e in map(sq.express, vecs)]
    return out


def test_subquot_express_is_pinned():
    # the torsion coordinates of express read the column transform Q and the
    # inverse of its unit denominators, at orders up to 3^4 and 2^5 where
    # units other than +-1 show; the CLI pins barely reach express
    want = json.loads(EXPRESS_PIN.read_text())
    assert express_table(thh_ell(PrimeContext(3), 120), 120) == want["ell-p3-w120"]
    assert express_table(thh_ko(64), 64) == want["ko-w64"]
