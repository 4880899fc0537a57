"""The `_intlin` intern: every shared answer equals a fresh one, and each
distinct matrix is reduced once per process."""
import pytest

from thh import _intlin, cli, graded, ss, verify  # noqa: F401 (bound before any patch)
from thh._intlin import SmithForm, SubQuot

# (suite, prime, window, level) of the runs whose keys are checked
RUNS = [("ko", 2, 160, 0), ("all", 5, 360, 2)]


def unit_vectors(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def answer(sq):
    """Everything a caller reads of a `SubQuot`: orders, generator vectors
    and the summand coordinates of each unit vector."""
    return (sq.orders, [sq.generator_vector(i) for i in range(len(sq.orders))],
            [sq.express(e) for e in unit_vectors(sq.n)])


def rows(key_rows):
    return [list(row) for row in key_rows]


@pytest.mark.parametrize("suite,p,window,level", RUNS)
def test_every_interned_answer_equals_a_fresh_one(monkeypatch, suite, p, window, level):
    monkeypatch.setattr(_intlin, "_INTERN", {})
    assert all(check.ok for check in cli.run_suite(suite, p, window, level))
    interned = _intlin._INTERN
    assert any(len(key) == 4 for key in interned) and any(len(key) == 3 for key in interned)
    for key, got in interned.items():
        if len(key) == 4:
            q, n, gens, rels = key
            fresh = SubQuot(q, n, None if gens is None else rows(gens), rows(rels))
            assert answer(got) == answer(fresh), key
        else:
            q, n, matrix = key
            assert [list(r) for r in got] == SmithForm(rows(matrix), n, p=q).kernel(), key


def test_each_distinct_key_is_built_once(monkeypatch):
    # at w=160 the ko suite asks the intern for 686 `SubQuot`s over 113
    # distinct keys
    monkeypatch.setattr(_intlin, "_INTERN", {})
    built = []

    class Counting(SubQuot):
        def __init__(self, p, n, gen_rows, rel_rows):
            built.append((p, n, None if gen_rows is None else _intlin._rows_key(gen_rows),
                          _intlin._rows_key(rel_rows)))
            super().__init__(p, n, gen_rows, rel_rows)

    # only the intern reads `_intlin.SubQuot` at call time; graded and ss
    # bound the class when they were imported
    monkeypatch.setattr(_intlin, "SubQuot", Counting)
    assert all(check.ok for check in cli.run_suite("ko", 2, 160, 0))
    assert len(built) == len(set(built))
    assert set(built) == {key for key in _intlin._INTERN if len(key) == 4}


def test_row_kernel_hands_out_fresh_lists(monkeypatch):
    monkeypatch.setattr(_intlin, "_INTERN", {})
    matrix = [[(0, 2), (1, 4)], [(0, 1), (1, 2)]]
    first = _intlin.row_kernel(matrix, 2, 2)
    first[0][0] += 7
    assert _intlin.row_kernel(matrix, 2, 2) == SmithForm(matrix, 2, p=2).kernel()
    assert len(_intlin._INTERN) == 1
