import json

import pytest

from thh import cli, verify


def run(argv):
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_group_json_schema_and_key_order():
    code, out = run(["group", "--prime", "2", "--target", "ell",
                     "--degree", "18", "--reduced", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert list(rec) == ["prime", "target", "coefficients", "degree",
                         "free_rank", "torsion", "generators"]
    assert rec["degree"] == 18
    assert rec["free_rank"] == 0
    assert rec["torsion"] == [4]
    assert all(set(g) == {"label", "order"} for g in rec["generators"])


def test_group_json_round_trips_bytes():
    code, out = run(["group", "--prime", "3", "--degree", "22",
                     "--format", "json"])
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_group_torsion_sorted_ascending():
    code, out = run(["group", "--prime", "2", "--max-degree", "40",
                     "--format", "json"])
    assert code == 0
    for rec in json.loads(out):
        assert rec["torsion"] == sorted(rec["torsion"])


def test_table_and_json_numeric_agreement():
    code_j, out_j = run(["group", "--prime", "2", "--max-degree", "24",
                         "--format", "json"])
    code_t, out_t = run(["group", "--prime", "2", "--max-degree", "24"])
    assert code_j == code_t == 0
    rows = out_t.strip().splitlines()[1:]
    for rec, row in zip(json.loads(out_j), rows):
        deg, free = row.split()[:2]
        assert int(deg) == rec["degree"]
        assert int(free) == rec["free_rank"]


def test_ko_target_spot_value():
    code, out = run(["group", "--prime", "2", "--target", "ko",
                     "--degree", "5", "--reduced", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert (rec["free_rank"], rec["torsion"]) == (1, [])


def test_ko_requires_prime_two():
    code, _ = run(["group", "--prime", "3", "--target", "ko", "--degree", "5"])
    assert code == 2


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "--suite", "bogus"])
    assert cli.main(["verify", "--suite", "bogus"]) == 2


def test_composite_prime_is_usage_error():
    for argv in (["group", "--prime", "6", "--degree", "0"],
                 ["verify", "--suite", "section4", "--prime", "6"],
                 ["chart", "torsion", "--prime", "6", "--max-degree", "10"]):
        code, _ = run(argv)
        assert code == 2, argv


def test_unavailable_format_is_usage_error(capsys):
    for argv in (["group", "--degree", "0", "--format", "xml"],
                 ["verify", "--suite", "section4", "--format", "csv"],
                 ["chart", "torsion", "--max-degree", "10", "--format", "csv"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--format" in captured.err


def test_negative_max_degree_is_usage_error(capsys):
    for argv in (["group", "--max-degree", "-1"],
                 ["verify", "--suite", "section4", "--max-degree", "-1"]):
        assert cli.main(argv) == 2, argv
        assert "--max-degree: must be >= 0, got -1" in capsys.readouterr().err


def test_negative_degree_is_usage_error(capsys):
    for argv in (["group", "--degree", "-1"],
                 ["chart", "torsion", "--degree", "-1", "--max-degree", "3"]):
        assert cli.main(argv) == 2, argv
        assert "--degree: must be >= 0, got -1" in capsys.readouterr().err


def test_negative_level_is_usage_error(capsys):
    assert cli.main(["verify", "--suite", "section4", "--level", "-1"]) == 2
    assert "--level: must be >= 0, got -1" in capsys.readouterr().err


UNWRITABLE_OUT = pytest.mark.parametrize("target", ["missing-dir/x.out", "."])
OUT_COMMANDS = pytest.mark.parametrize(
    "argv", [["group", "--degree", "3"],
             ["verify", "--suite", "matching", "--max-degree", "10"],
             ["chart", "torsion", "--max-degree", "10"]])


def assert_out_rejected(capsys, tmp_path, argv, target):
    # exit 1 would read as a failed check
    out = str(tmp_path / target)
    assert cli.main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {out}: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@OUT_COMMANDS
@UNWRITABLE_OUT
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, target):
    assert_out_rejected(capsys, tmp_path, argv, target)


@OUT_COMMANDS
@UNWRITABLE_OUT
def test_unwritable_out_is_rejected_before_computing(monkeypatch, capsys, tmp_path,
                                                     argv, target):
    # a directory or a missing parent is caught before the computation starts
    def computed(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    for owner, name in ((cli, "run_suite"), (cli, "group_records"),
                        (cli.charts, "chart_data")):
        monkeypatch.setattr(owner, name, computed)
    assert_out_rejected(capsys, tmp_path, argv, target)


def test_all_suite_runs_mod_eta_rows_once():
    code, out = run(["verify", "--suite", "all", "--prime", "2",
                     "--max-degree", "16", "--level", "1", "--format", "json"])
    assert code == 0
    tags = [r["check"] for r in json.loads(out) if r["check"].endswith(":mod-eta")]
    assert tags == ["cofiber:mod-eta"] * 17


@pytest.mark.parametrize("prime, window", [
    ("2", "600"), ("5", "600"), ("7", "1000"),
    pytest.param("3", "600", marks=pytest.mark.xfail(
        strict=True, reason="the row units:extension-valuation @ (2, 10) fails at p=3 "
                            "(ROADMAP item 1)")),
])
def test_all_suite_passes_at_level_2(prime, window):
    code, out = run(["verify", "--suite", "all", "--prime", prime,
                     "--max-degree", window, "--level", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows
    assert [r["check"] for r in rows if not r["ok"]] == []


def test_hfp_group_json_is_pinned():
    # the mod-p answer at p = 3: one class in each degree of
    # E(l1, l2) (x) P(mu) with |l1| = 5, |l2| = 17, |mu| = 18
    code, out = run(["group", "--prime", "3", "--coefficients", "HFp",
                     "--max-degree", "40", "--format", "json"])
    assert code == 0
    dims = dict.fromkeys((0, 5, 17, 18, 22, 23, 35, 36, 40), 1)
    want = [{"prime": 3, "target": "ell", "coefficients": "HFp", "degree": d,
             "free_rank": 0, "torsion": [3] * dims.get(d, 0),
             "generators": [{"label": f"x{i}", "order": 3}
                            for i in range(dims.get(d, 0))]}
            for d in range(41)]
    assert out == json.dumps(want, indent=2) + "\n"


def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys):
    for argv in (["verify", "--suite", "all", "--target", "ko"],
                 ["verify", "--suite", "section4", "--coefficients", "HZ"],
                 ["verify", "--suite", "section4", "--degree", "3"],
                 ["verify", "--suite", "section4", "--reduced"],
                 ["verify", "--suite", "section4", "--paper-style"],
                 ["chart", "torsion", "--target", "ko"],
                 ["chart", "torsion", "--coefficients", "HZ"],
                 ["chart", "torsion", "--reduced"],
                 ["group", "--degree", "4", "--paper-style"]):
        assert cli.main(argv) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_group_degree_and_max_degree_are_exclusive(capsys):
    assert cli.main(["group", "--degree", "5", "--max-degree", "3"]) == 2
    assert "not allowed with argument --degree" in capsys.readouterr().err


def count_calls(monkeypatch, module, names) -> dict[str, int]:
    """Count the calls of the named functions of `module` through every
    binding in the `thh` package, or of the named methods when `module` is
    a class; the dict fills as they are called."""
    import sys
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(module, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        if isinstance(module, type):
            monkeypatch.setattr(module, name, counted)
        for key, mod in list(sys.modules.items()):
            if mod is not None and (key == "thh" or key.startswith("thh.")):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, counted)
    return calls


def test_group_table_runs_no_lattice_solves(monkeypatch):
    # every slice of a group table is a subquotient of all of Z^n, so it
    # needs no echelon basis and no membership solve
    from thh import _intlin
    calls = count_calls(monkeypatch, _intlin, ("row_hermite", "solve_in_lattice"))
    code, out = run(["group", "--prime", "2", "--max-degree", "64",
                     "--format", "json"])
    assert code == 0 and len(json.loads(out)) == 65
    assert calls == {"row_hermite": 0, "solve_in_lattice": 0}


def test_group_table_reduces_each_slice_shape_once(monkeypatch):
    # thh_ell(p=2, 256) has 71 distinct slice shapes in its 257 degrees, one
    # of them the empty slice, which needs no Smith form
    from thh import _intlin
    calls = count_calls(monkeypatch, _intlin, ("SmithForm",))
    code, out = run(["group", "--prime", "2", "--max-degree", "256",
                     "--format", "json"])
    assert code == 0 and len(json.loads(out)) == 257
    assert calls == {"SmithForm": 70}


def test_ko_suite_reads_no_whole_slice_subquot(monkeypatch):
    # the mod-eta cofiber, the ko-to-ku map and eta squared read their
    # groups off the v-step reduction; only labels, `coordinates` and the
    # eta tower need the whole-slice `subquot_at` (1,471 calls here when the
    # maps read it)
    from thh.graded import GradedModulePresentation
    calls = count_calls(monkeypatch, GradedModulePresentation, ("subquot_at",))
    code, _ = run(["verify", "--suite", "ko", "--prime", "2", "--max-degree", "160"])
    assert code == 0
    assert calls == {"subquot_at": 0}


@pytest.mark.parametrize("argv", [
    ["--suite", "ko"],
    ["--suite", "cofiber", "--prime", "2"],
    ["--suite", "all", "--prime", "2", "--max-degree", "16", "--level", "1"],
])
def test_verify_builds_the_ko_answer_once(monkeypatch, argv):
    # the mod-eta and eta-squared rows share one reduced ko answer
    from thh import closed_forms
    calls = count_calls(monkeypatch, closed_forms, ("thh_ko",))
    code, _ = run(["verify", *argv])
    assert code == 0
    assert calls == {"thh_ko": 1}


def test_verify_exit_zero_on_clean_suite():
    code, out = run(["verify", "--suite", "section4", "--prime", "2",
                     "--level", "2"])
    assert code == 0
    assert "0 failures" in out


def test_duality_suite_runs_at_prime_eleven():
    # the words (10,) and (1, 0) need distinct generator ids
    code, out = run(["verify", "--suite", "duality", "--prime", "11",
                     "--max-degree", "0", "--level", "2"])
    assert code == 0
    assert "0 failures" in out


def test_chart_svg_deterministic(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for path in (a, b):
        code, _ = run(["chart", "torsion", "--prime", "2", "--degree", "18",
                       "--max-degree", "40", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


def test_chart_empty_range_is_usage_error():
    code, _ = run(["chart", "torsion", "--prime", "2", "--degree", "10",
                   "--max-degree", "4"])
    assert code == 2


def test_chart_json_dots():
    code, out = run(["chart", "ko-answer", "--prime", "2", "--max-degree",
                     "20", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"dots", "lines"}
    assert [5, 0, "free"] in data["dots"]


def test_ku_group_json_is_pinned():
    # the ku-coefficient labels come from the summand generators of each
    # slice and from the kernel rows behind the submodule presentation, so
    # they pin choices of the elimination kernel that no group invariant shows
    import pathlib
    golden = pathlib.Path(__file__).parent / "golden" / "group-ko-ku-p2-w64.json"
    code, out = run(["group", "--prime", "2", "--target", "ko",
                     "--coefficients", "ku", "--max-degree", "64",
                     "--format", "json"])
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("argv, name", [
    (["--prime", "3", "--target", "ell", "--max-degree", "120"],
     "group-ell-p3-w120.json"),
    # the ko labels go through the dual of the ku presentation, so through
    # SubQuot.express and generator_vector
    (["--prime", "2", "--target", "ko", "--max-degree", "64"],
     "group-ko-p2-w64.json"),
    (["--prime", "3", "--coefficients", "k1", "--max-degree", "120"],
     "group-k1-p3-w120.json"),
    (["--prime", "3", "--coefficients", "HZ", "--max-degree", "120"],
     "group-HZ-p3-w120.json"),
])
def test_group_json_labels_are_pinned(argv, name):
    import pathlib
    golden = pathlib.Path(__file__).parent / "golden" / name
    code, out = run(["group", *argv, "--format", "json"])
    assert code == 0
    assert out == golden.read_text()


def labelled_cells(mod, d):
    """The index in `slice_cells(d)` of the cell that each printed label of
    degree d names."""
    cells = {}
    for i, (gid, e) in enumerate(mod.slice_cells(d)):
        name = mod.generators[gid].display()
        cells.setdefault(name if e == 0 else f"v^{e} {name}", []).append(i)
    out = []
    for label in mod.summand_labels(d):
        # "<p-power> <cell>" names a cell whose coefficient is not a unit
        idx = cells.get(label) or cells[label.split(" ", 1)[1]]
        assert len(idx) == 1, (d, label)
        out.append(idx[0])
    return out


def invertible_mod(rows, p):
    a = [[x % p for x in row] for row in rows]
    for t in range(len(a)):
        k = next((i for i in range(t, len(a)) if a[i][t]), None)
        if k is None:
            return False
        a[t], a[k] = a[k], a[t]
        inv = pow(a[t][t], -1, p)
        for i in range(t + 1, len(a)):
            f = a[i][t] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[t])]
    return True


@pytest.mark.parametrize("p, target, window, failing", [
    (2, "ell", 1024, [86, 88, 170, 172, 174, 176, 342, 344, 346, 348, 430, 432,
                      598, 600, 614, 616, 618, 620, 682, 684, 686, 688, 690, 692,
                      706, 708, 710, 712, 714, 716, 718, 720, 818, 820, 822, 824,
                      854, 856, 858, 860, 918, 920]),
    (3, "ell", 1500, [1096, 1100, 1104, 1108, 1112, 1116]),
    (5, "ell", 1500, []),
    (2, "ko", 512, []),
])
def test_labelled_cells_generate_the_group(p, target, window, failing):
    # By Nakayama's lemma the labelled cells generate the degree-d group
    # exactly when their summand coordinates, read mod p, form an invertible
    # matrix.  The failures are an open defect (ROADMAP item 12): two
    # summands print the same cell.  A label rule that meets the contract
    # changes this pin knowingly.  The labels read the rows of Qinv.
    mod = cli._module_for(p, target, target, window, False)
    bad = []
    for d in range(window + 1):
        sq = mod.subquot_at(d)
        coords = []
        for i in labelled_cells(mod, d):
            cell = [0] * sq.n
            cell[i] = 1
            coords.append(sq.express(cell)[0])
        if not invertible_mod(coords, p):
            bad.append(d)
    assert bad == failing


@pytest.mark.parametrize("argv, name", [
    # the detail fields carry the kernel and cokernel data of eta and of v,
    # read in summand coordinates
    (["--suite", "ko", "--prime", "2", "--max-degree", "64"],
     "verify-ko-p2-w64.json"),
    (["--suite", "cofiber", "--prime", "3", "--max-degree", "60"],
     "verify-cofiber-p3-w60.json"),
    # every units row name, the naturality closure last
    (["--suite", "units", "--prime", "3", "--max-degree", "300"],
     "verify-units-p3-w300.json"),
    (["--suite", "section4", "--prime", "2", "--level", "3"],
     "verify-section4-p2-l3.json"),
    (["--suite", "matching", "--prime", "2", "--max-degree", "40"],
     "verify-matching-p2-w40.json"),
])
def test_verify_json_is_pinned(argv, name):
    import pathlib
    golden = pathlib.Path(__file__).parent / "golden" / name
    code, out = run(["verify", *argv, "--format", "json"])
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("p, window", [(2, 40), (3, 60), (5, 80)])
def test_verify_json_is_what_json_dumps_writes(p, window):
    # `all` is the one run whose output holds several suites; at p=2 its
    # mod-eta rows print under `cofiber`
    suites = [s for s in cli.SUITES if p == 2 or s != "ko"]
    made_up = [("made-up", [verify.Check("\u03b7 \"row\"", (), False, ("\u03b7 \"quoted\"", ())),
                            verify.Check("\u03b7 \"row\"", -1, True, ())])]
    runs = [[], [("empty", [])], made_up] + [cli.run_suite(s, p, window, 2) for s in suites]
    for groups in runs:
        payload = [{"check": f"{tag}:{n}", "index": d, "ok": ok,
                    "detail": list(map(str, det))}
                   for tag, rows in groups for n, d, ok, det in rows]
        assert cli._format_verify(groups, "json") == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("p", [2, 3])
def test_run_suite_hands_back_each_suites_own_rows(monkeypatch, p):
    tags = [tag for tag, _ in cli.run_suite("all", p, 16, 1)]
    assert tags == [s for s in cli.SUITES if s != "all" and (p == 2 or s != "ko")]
    # the rows are the list the suite returned, not a copy made per row
    sentinel = [verify.Check("sentinel", 0, True, ())]
    monkeypatch.setattr(verify, "dueling_comparison", lambda ctx, window: sentinel)
    for suite in ("dueling", "all"):
        assert dict(cli.run_suite(suite, p, 16, 1))["dueling"] is sentinel


@pytest.mark.parametrize("argv, table", [
    # the v1 tower failed at degrees 106 and 108 until assembly lifted each
    # extension target as p^c times the lift of its class
    (["--suite", "dueling", "--prime", "2", "--max-degree", "128"],
     "258 checks, 0 failures\n"),
    (["--suite", "units", "--prime", "3", "--max-degree", "600"],
     "147 checks, 1 failures\n"
     "FAIL units:extension-valuation @ (2, 10): (0, 1)\n"),
])
def test_verify_table_pins_known_failures(argv, table):
    # the p=3 failure is an open defect (ROADMAP item 1): an
    # extension-valuation claim that the binomial does not give; a fix
    # changes this pin knowingly.  A run exits 1 exactly when a row fails.
    code = 1 if "\nFAIL " in table else 0
    assert run(["verify", *argv]) == (code, table)


def test_dueling_agrees_at_p2_through_240():
    # degrees 106 to 108 and 214 to 236 carry a target's own extension
    code, out = run(["verify", "--suite", "dueling", "--prime", "2",
                     "--max-degree", "240"])
    assert (code, out) == (0, "482 checks, 0 failures\n")


def test_cli_module_runs_from_the_source_tree():
    import os
    import pathlib
    import subprocess
    import sys
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "thh.cli", "verify", "--suite", "ko", "--prime", "2",
         "--max-degree", "24"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("0 failures")


HEAVY_MODULES = ("dataclasses", "inspect", "csv", "fractions", "decimal", "json")


def _fresh_process(body: str) -> list[str]:
    """stdout lines of `python -E -s` running body after `from thh import
    cli`; -E drops PYTHONPATH, so the child puts the source tree on sys.path
    itself.  The first line is the path cli was imported from."""
    import pathlib
    import subprocess
    import sys
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); from thh import cli; "
            f"print(cli.__file__)\n{body}")
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    assert lines[0].startswith(src)
    return lines[1:]


def test_cli_import_loads_no_heavy_modules():
    # in a fresh interpreter, since pytest itself loads dataclasses
    loaded = _fresh_process(f"print(' '.join(m for m in {HEAVY_MODULES + ('thh.ss',)!r} "
                            "if m in sys.modules))")
    assert loaded[0] == ""


@pytest.mark.parametrize("argv", [
    ["group", "--prime", "2", "--max-degree", "40", "--format", "json"],
    ["verify", "--suite", "all", "--prime", "5", "--max-degree", "100",
     "--level", "2", "--format", "json"],
], ids=["group-p2-w40", "verify-all-p5-w100"])
def test_cli_run_loads_no_fractions_decimal_or_json(argv):
    # the child counts the calls of SubQuot.express and of the assembly's
    # unit ratios, which the verify run reaches (from w=100 at p=5)
    body = ("import contextlib, io\n"
            "from thh import _intlin, ss\n"
            "calls = []\n"
            "def counted(cls, name):\n"
            "    f = getattr(cls, name)\n"
            "    setattr(cls, name, lambda *a: calls.append(name) or f(*a))\n"
            "counted(_intlin.SubQuot, 'express')\n"
            "counted(ss.SpectralSequence, '_class_unit_ratio')\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = cli.main({argv!r})\n"
            "print(rc, sorted(set(calls)))\n"
            "print(' '.join(m for m in ('fractions', 'decimal', 'json') "
            "if m in sys.modules))")
    rc_calls, loaded = _fresh_process(body)[:2]
    if argv[0] == "verify":
        assert rc_calls == "0 ['_class_unit_ratio', 'express']"
    else:
        assert rc_calls.startswith("0 ")
    assert loaded == ""


def test_cli_encoder_is_the_json_one():
    # the C function json.encoder re-exports, so the bytes are json's
    import json.encoder
    assert cli._enc is json.encoder.encode_basestring_ascii


@pytest.mark.parametrize("p, target, coefficients", [
    (p, "ell", c) for p in (2, 3) for c in cli._ELL_COEFFS] + [
    (2, "ko", c) for c in cli._KO_COEFFS])
def test_group_json_is_what_json_dumps_writes(p, target, coefficients):
    window = 24 if p == 2 else 60
    for reduced in (False, True):
        records = cli.group_records(p, target, coefficients, range(window + 1), reduced)
        for payload in (records, records[window // 2]):
            recs = payload if isinstance(payload, list) else [payload]
            assert (cli._format_group(recs, "json")
                    == json.dumps(payload, indent=2) + "\n")
    made_up = [{"prime": 2, "target": "ell", "coefficients": "ell", "degree": d,
                "free_rank": d, "torsion": [2] * d,
                "generators": [{"label": lbl, "order": 2} for lbl in labels]}
               for d, labels in enumerate([[], ['"q"', "a\\b"], ["η v^2", "é\ttab"]])]
    for payload in (made_up, made_up[1]):
        recs = payload if isinstance(payload, list) else [payload]
        assert cli._format_group(recs, "json") == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    "group --prime 2 --max-degree 512 --format json",
    "group --target ko --max-degree 256 --format json",
])
def test_group_json_past_the_bench_windows_is_pinned(argv):
    # recorded before the kernel took (column, value) rows; these windows
    # are past the benchmark goldens' w <= 259
    import hashlib
    pin, = [p for p in pin_table() if p["argv"] == argv]
    code, out = run(argv.split())
    assert code == pin["exit"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]


def pin_table() -> list[dict]:
    import cli_pins
    return json.loads(cli_pins.PINS.read_text())


def test_cli_pin_table_is_well_formed():
    # read without running any command
    import re
    pins = pin_table()
    assert len({p["argv"] for p in pins}) == len(pins)
    parser = cli.build_parser()
    for p in pins:
        assert set(p) == {"argv", "exit", "sha256", "why"}
        parser.parse_args(p["argv"].split())
        assert re.fullmatch("[0-9a-f]{64}", p["sha256"]), p["argv"]
        assert p["exit"] in (0, 1), p["argv"]


def test_cli_pin_runner_names_each_mismatch():
    import cli_pins
    pin, = [p for p in pin_table() if p["argv"].endswith("--format csv")]
    altered = dict(pin, sha256=pin["sha256"][::-1])
    wrong_exit = dict(pin, exit=1)
    held, digest, code = (cli_pins.mismatches([p]) for p in (pin, altered, wrong_exit))
    assert held == []
    ran = f"thh {pin['argv']}: sha256 {pin['sha256']} exit 0,"
    assert digest == [f"{ran} pinned {altered['sha256']} exit 0"]
    assert code == [f"{ran} pinned {pin['sha256']} exit 1"]


def readme_commands() -> list[str]:
    """The distinct `thh` command lines of README.md's fenced blocks, in order."""
    import pathlib
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    found, fenced = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("thh ") and line not in found:
            found.append(line)
    return found


def test_readme_has_nine_commands():
    assert len(readme_commands()) == 9


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_exits_zero(tmp_path, command):
    # each in a fresh process and a temporary directory, where the charts
    # write their files
    import os
    import pathlib
    import shlex
    import subprocess
    import sys
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = shlex.split(command)[1:]
    proc = subprocess.run([sys.executable, "-m", "thh.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for i, arg in enumerate(argv[:-1]):
        if arg == "--out":
            assert (tmp_path / argv[i + 1]).stat().st_size > 0
