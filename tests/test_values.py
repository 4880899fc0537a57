"""The value types are NamedTuples: frozen, validated on construction, with
the repr and hash the frozen dataclasses they replace had."""
import pytest

from thh import charts, cli, ss, thc
from thh.graded import Generator, Relation, RingSpec
from thh.padic import PrimeContext, TorsionWord
from thh.verify import MatchingReport

VALUES = [
    PrimeContext(3),
    TorsionWord((1, 0, 2), 3),
    RingSpec(2, 2),
    Generator("g", 4),
    Relation(((1, 0, "g"), (-2, 1, "h"))),
    ss.Rule(1, (3, 0), (1,), (0, 2), "d1"),
    ss.Extension((3, 0), (1,), ((1, (3, 1), (0, 1)),)),
    thc.CapResult("a", 3, 1),
    charts.ChartSpec("v1-page", 3, 0, 40),
]
VALUE_TYPES = tuple(type(x) for x in VALUES) + (ss.EngineSetup,)


@pytest.mark.parametrize("make, message", [
    (lambda: PrimeContext(4), "p must be prime, got 4"),
    (lambda: TorsionWord((3,), 3), "digits must lie in [0, 3): (3,)"),
    (lambda: TorsionWord((0, -1), 2), "digits must lie in [0, 2): (0, -1)"),
    (lambda: RingSpec(2, 0),
     "v_degree must be positive (degree-0 bookkeeping lives in filtrations)"),
])
def test_construction_validates(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("value", VALUES, ids=lambda x: type(x).__name__)
def test_fields_are_read_only(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("value", VALUES, ids=lambda x: type(x).__name__)
def test_hash_is_the_hash_of_the_fields(value):
    fields = tuple(getattr(value, f) for f in value._fields)
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields)


def test_repr_is_the_dataclass_text():
    assert repr(PrimeContext(3)) == "PrimeContext(p=3)"
    assert repr(Generator("g", 4)) == "Generator(gid='g', degree=4, label='')"
    assert repr(TorsionWord((1, 2), 3)) == "TorsionWord(digits=(1, 2), p=3)"
    assert repr(charts.ChartSpec("torsion", 2, 0, 8)) == (
        "ChartSpec(kind='torsion', prime=2, lo=0, hi=8, paper_style=False)")


def test_torsion_word_length_counts_digits():
    assert len(TorsionWord((1, 0, 2), 3)) == 3
    assert len(TorsionWord((), 5)) == 0
    assert TorsionWord((1, 0, 2), 3).digits == (1, 0, 2)


def test_matching_reports_share_no_state():
    a, b = MatchingReport(8), MatchingReport(8)
    a.survivors["x"] = ("x", 1, 0)
    a.pairs["y"] = ("x", 1, 0, 2)
    a.leftovers.append("z")
    assert (b.survivors, b.pairs, b.leftovers) == ({}, {}, [])
    assert b.ok and not a.ok


def _holds_value(x) -> bool:
    if isinstance(x, VALUE_TYPES):
        return True
    if isinstance(x, (tuple, list)):
        return any(_holds_value(y) for y in x)
    if isinstance(x, dict):
        return any(_holds_value(k) or _holds_value(v) for k, v in x.items())
    return False


def test_printed_rows_and_chart_data_hold_no_value_type():
    # `cli._format_verify` writes a tuple index as a JSON list and `thh chart
    # --format json` passes the chart data to json.dumps; both would take a
    # value type for a plain tuple
    for p, window in ((2, 64), (3, 120)):
        rows = cli.run_suite("all", p, window, 2)
        assert not any(_holds_value(r.index) or _holds_value(r.detail) for r in rows)
    for kind, p in (("eta-page", 2), ("ko-answer", 2), ("v1-page", 3), ("k1-page", 3)):
        assert not _holds_value(charts.chart_data(charts.ChartSpec(kind, p, 0, 64)))
