"""Command-line front end: group queries, verification suites, chart emission.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import charts, closed_forms as cf, thc, verify
from .padic import PrimeContext

SUITES = ("section4", "matching", "cofiber", "dueling", "duality",
          "ko", "units", "all")

_ELL_COEFFS = ("ell", "HZ", "k1", "HFp")
_KO_COEFFS = ("ko", "ku")


class UsageError(Exception):
    pass


def default_window(p: int) -> int:
    return 64 if p == 2 else 2 * p**4 + 2 * p**2


# -- group queries ---------------------------------------------------------------


def _module_for(p: int, target: str, coefficients: str, window: int,
                reduced: bool):
    ctx = PrimeContext(p)
    if target == "ko":
        if p != 2:
            raise UsageError("target ko requires --prime 2")
        if coefficients == "ko":
            return cf.thh_ko(window, reduced=reduced)
        if coefficients == "ku":
            return cf.thh_ko_ku(window, reduced=reduced)
        raise UsageError(f"target ko takes coefficients in {_KO_COEFFS}")
    if coefficients == "ell":
        return cf.thh_ell(ctx, window, reduced=reduced)
    if coefficients == "HZ":
        return cf.thh_ell_HZ(ctx, window, reduced=reduced)
    if coefficients == "k1":
        return cf.thh_ell_k1(ctx, window, reduced=reduced)
    if coefficients == "HFp":
        return None  # handled as plain dimensions
    raise UsageError(f"target ell takes coefficients in {_ELL_COEFFS}")


def group_records(p: int, target: str, coefficients: str, degrees,
                  reduced: bool) -> list[dict]:
    window = max(degrees)
    mod = _module_for(p, target, coefficients, window, reduced)
    if mod is None:
        hfp = cf.thh_ell_HFp(PrimeContext(p), window)
    records = []
    for d in degrees:
        if mod is None:
            dim = hfp.get(d, 0)
            if reduced and d == 0:
                dim -= 1
            rank, torsion = 0, [p] * dim
            gens = [{"label": f"x{i}", "order": p} for i in range(dim)]
        else:
            sq = mod.subquot_at(d)
            rank, torsion = sq.free_rank(), sq.torsion()
            labels = mod.summand_labels(d)
            gens = [{"label": lbl, "order": o}
                    for lbl, (o, _) in zip(labels, sq.summands)]
        records.append({
            "prime": p,
            "target": target,
            "coefficients": coefficients,
            "degree": d,
            "free_rank": rank,
            "torsion": torsion,
            "generators": gens,
        })
    return records


def _format_group(records: list[dict], fmt: str) -> str:
    if fmt == "json":
        payload = records[0] if len(records) == 1 else records
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["prime", "target", "coefficients", "degree",
                    "free_rank", "torsion", "generators"])
        for r in records:
            w.writerow([r["prime"], r["target"], r["coefficients"],
                        r["degree"], r["free_rank"],
                        " ".join(map(str, r["torsion"])),
                        " ".join(g["label"] for g in r["generators"])])
        return buf.getvalue()
    lines = [f"{'deg':>5}  {'free':>4}  {'torsion':<16} generators"]
    for r in records:
        tors = ",".join(map(str, r["torsion"])) or "-"
        gens = ", ".join(f"{g['label']}" + ("" if g["order"] == 0
                                            else f" (order {g['order']})")
                         for g in r["generators"]) or "-"
        lines.append(f"{r['degree']:>5}  {r['free_rank']:>4}  {tors:<16} {gens}")
    return "\n".join(lines) + "\n"


# -- verification suites ---------------------------------------------------------


def _ko_answer_checks(suite: str,
                      window: int) -> tuple[list[verify.Check], list[verify.Check]]:
    """(mod-eta rows, eta-squared rows), the rows that read the reduced ko
    answer; the eta-squared rows are empty when only the cofiber suite runs.
    The answer is built once and is released on return, before the ko suite
    builds its other answers."""
    ko = cf.thh_ko(window + 4)
    return (verify.cofiber_checks_ko(ko, window),
            [] if suite == "cofiber" else verify.eta_square_annihilates(ko, window))


def run_suite(suite: str, p: int, window: int, level: int) -> list[verify.Check]:
    """The suite's `verify.Check` rows, each name prefixed by its suite."""
    ctx = PrimeContext(p)
    rows = []

    def take(checks, tag):
        rows.extend(c._replace(name=f"{tag}:{c.name}") for c in checks)

    mod_eta, eta_squared = (_ko_answer_checks(suite, window)
                            if p == 2 and suite in ("cofiber", "ko", "all")
                            else ([], []))
    if suite in ("section4", "all"):
        take(verify.lemma_suite_section4(ctx, level), "section4")
    if suite in ("matching", "all"):
        take([verify.matching_B1(ctx, window).check()], "matching")
    if suite in ("cofiber", "all"):
        take(verify.cofiber_checks(ctx, window) + mod_eta, "cofiber")
    if suite in ("dueling", "all"):
        take(verify.dueling_comparison(ctx, window), "dueling")
    if suite in ("duality", "all"):
        take(verify.duality_check(ctx, level, window), "duality")
    if suite in ("ko", "all"):
        if p != 2:
            if suite == "ko":
                raise UsageError("the ko suite requires --prime 2")
        else:
            # under "all" the cofiber suite already ran the mod-eta rows
            take((mod_eta if suite == "ko" else [])
                 + verify.ko_ku_comparison(min(window, 64))
                 + eta_squared
                 + verify.ko_base_homotopy(min(window, 40)), "ko")
    if suite in ("units", "all"):
        take(thc.unit_check_suite(ctx, window), "units")
    return rows


def _json_list(items: list[str], indent: str) -> str:
    """Encoded items as a JSON list laid out as json.dumps(indent=2) lays it
    out, `indent` being the list's own indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(indent + "  " + x for x in items) + "\n" + indent + "]"


def _format_verify(rows: list[verify.Check], fmt: str) -> str:
    if fmt == "json":
        # the rows have one fixed shape, written here directly: json.dumps
        # with an indent takes the pure-Python encoder, for the same bytes
        enc = json.encoder.encode_basestring_ascii
        objects = []
        for n, d, ok, det in rows:
            index = _json_list(list(map(str, d)), "    ") if isinstance(d, tuple) else str(d)
            detail = _json_list([enc(str(x)) for x in det], "    ")
            objects.append(f'{{\n    "check": {enc(n)},\n    "index": {index},\n'
                           f'    "ok": {"true" if ok else "false"},\n    "detail": {detail}\n  }}')
        return _json_list(objects, "") + "\n"
    failures = [r for r in rows if not r[2]]
    lines = [f"{len(rows)} checks, {len(failures)} failures"]
    for n, d, ok, det in failures:
        lines.append(f"FAIL {n} @ {d}: {det}")
    return "\n".join(lines) + "\n"


# -- argument parsing ------------------------------------------------------------


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the flags that command reads."""
    ap = argparse.ArgumentParser(prog="thh")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, formats):
        sp.add_argument("--prime", type=int, default=2)
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", default=None)

    g = sub.add_parser("group")
    common(g, ("table", "json", "csv"))
    g.add_argument("--target", choices=("ell", "ko"), default="ell")
    g.add_argument("--coefficients", default=None)
    g.add_argument("--reduced", action="store_true")
    span = g.add_mutually_exclusive_group()
    span.add_argument("--degree", type=int, default=None)
    span.add_argument("--max-degree", type=_nonnegative, default=None)

    v = sub.add_parser("verify")
    common(v, ("table", "json"))
    v.add_argument("--max-degree", type=_nonnegative, default=None)
    v.add_argument("--suite", choices=SUITES, required=True)
    v.add_argument("--level", type=_nonnegative, default=3)

    c = sub.add_parser("chart")
    c.add_argument("kind", choices=charts.CHART_KINDS)
    common(c, ("svg", "json"))
    c.add_argument("--degree", type=int, default=None)
    c.add_argument("--max-degree", type=_nonnegative, default=None)
    c.add_argument("--paper-style", action="store_true")
    return ap


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        p = PrimeContext(args.prime).p
        if args.command == "group":
            coeffs = args.coefficients or args.target
            if args.degree is not None:
                degrees = [args.degree]
            else:
                degrees = list(range((args.max_degree
                                      if args.max_degree is not None
                                      else default_window(p)) + 1))
            recs = group_records(p, args.target, coeffs, degrees, args.reduced)
            _emit(_format_group(recs, args.format), args.out)
            return 0
        if args.command == "verify":
            window = (args.max_degree if args.max_degree is not None
                      else default_window(p))
            rows = run_suite(args.suite, p, window, args.level)
            _emit(_format_verify(rows, args.format), args.out)
            return 0 if all(r.ok for r in rows) else 1
        # chart
        lo = args.degree if args.degree is not None else 0
        hi = (args.max_degree if args.max_degree is not None
              else default_window(p))
        spec = charts.ChartSpec(args.kind, p, lo, hi, args.paper_style)
        if args.format == "json":
            dots, lines = charts.chart_data(spec)
            _emit(json.dumps({"dots": sorted(dots),
                              "lines": sorted(lines)}) + "\n", args.out)
        else:
            _emit(charts.render_svg(spec), args.out)
        return 0
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
