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


def test_negative_level_is_usage_error(capsys):
    assert cli.main(["verify", "--suite", "section4", "--level", "-1"]) == 2
    assert "--level: must be >= 0, got -1" in capsys.readouterr().err


def test_all_suite_runs_mod_eta_rows_once():
    code, out = run(["verify", "--suite", "all", "--prime", "2",
                     "--max-degree", "16", "--level", "1", "--format", "json"])
    assert code == 0
    tags = [r["check"] for r in json.loads(out) if r["check"].endswith(":mod-eta")]
    assert tags == ["cofiber:mod-eta"] * 17


@pytest.mark.parametrize("prime, window", [("5", "600"), ("7", "1000")])
def test_all_suite_passes_at_odd_primes(prime, window):
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
    binding in the `thh` package; the dict fills as they are called."""
    import sys
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(module, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

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
    suites = [s for s in cli.SUITES if s != "all" and (p == 2 or s != "ko")]
    made_up = [verify.Check("made-up", (), False, ("\u03b7 \"quoted\"", ())),
               verify.Check("made-up", -1, True, ())]
    for rows in [[], made_up] + [cli.run_suite(s, p, window, 2) for s in suites]:
        payload = [{"check": n, "index": d, "ok": ok, "detail": list(map(str, det))}
                   for n, d, ok, det in rows]
        assert cli._format_verify(rows, "json") == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("argv, table", [
    (["--suite", "dueling", "--prime", "2", "--max-degree", "128"],
     "258 checks, 2 failures\n"
     "FAIL dueling:assembled-vs-closed @ 106: ((0, [2, 2, 4]), (0, [4, 4]))\n"
     "FAIL dueling:assembled-vs-closed @ 108: ((0, [2, 2, 4]), (0, [4, 4]))\n"),
    (["--suite", "units", "--prime", "3", "--max-degree", "600"],
     "147 checks, 1 failures\n"
     "FAIL units:extension-valuation @ (2, 10): (0, 1)\n"),
])
def test_verify_table_pins_known_failures(argv, table):
    # both failures are open defects (ROADMAP item 1): the v1 tower at p=2
    # from degree 106, and an extension-valuation claim at p=3 that the
    # binomial does not give; a fix changes this pin knowingly
    assert run(["verify", *argv]) == (1, table)


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
