"""Span tracer for the benchmark's traced run.

`install` wraps the public entry points of each `thh` module from outside the
program, at every place the entry point is bound, and records one span per
call in memory: name, start, end and parent.  `layer_metrics` folds the spans
into per-layer counts and self times when the job ends.

`padic` and the small leaves of `_intlin` and `thc` (`xgcd`, `p_part`,
`cap`, ...) get no span: they are called once per element, and a wrapper
would cost more than the function body.  Their time shows up in the self time
of their callers.
"""
from __future__ import annotations

import functools
import math
import sys
import time

# Names that must read the same in every traced run of one workload and seed.
DETERMINISTIC = (
    "intlin.smith.calls", "intlin.smith_t.calls", "intlin.smith.max_cells",
    "intlin.smith.nnz", "intlin.smith.density", "intlin.subquot.calls",
    "intlin.express.calls", "intlin.hermite.calls", "intlin.solve.calls",
    "intlin.solve.found_ratio", "intlin.row_kernel.calls",
    "intlin.lattice_coordinates.calls", "graded.group_at.calls",
    "graded.group_at.hit_ratio", "graded.subquot_at.calls", "ss.rules",
    "ss.assembled.generators", "ss.assembled.relations",
    "closed_forms.calls", "closed_forms.generators",
    "closed_forms.relations", "trace.spans",
)

SUITES = ("lemma_suite_section4", "matching_B1", "cofiber_checks",
          "cofiber_checks_ko", "dueling_comparison", "duality_check",
          "ko_ku_comparison", "eta_square_annihilates")

LAYERS = ("intlin", "graded", "ss", "closed_forms", "verify", "thc", "cli")


class Tracer:
    """In-memory span list; each span is [name, start, end, parent, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        """`fn` recording a span per call; `note(args, kwargs, result)`
        attaches call data to the span once the call has returned."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced


def _smith_note(args, kwargs, _result):
    rows, ncols = args[1], args[2]
    transforms = kwargs.get("transforms", args[3] if len(args) > 3 else True)
    nnz = sum(1 for row in rows for x in row if x)
    return len(rows), ncols, nnz, bool(transforms)


def _presentation_note(_args, _kwargs, result):
    gens = getattr(result, "generators", None)
    rels = getattr(result, "relations", None)
    if gens is None or rels is None:
        return None
    return len(gens), len(rels)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the already-importable `thh` package."""
    from thh import _intlin, cli, closed_forms, graded, ss, thc, verify

    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "thh" or k.startswith("thh."))]

    def function(module, attr, name, note=None):
        orig = getattr(module, attr)
        wrapped = tracer.wrap(name, orig, note)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def method(cls, attr, name, note=None):
        orig = cls.__dict__[attr]
        if isinstance(orig, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, orig.__func__, note)))
        else:
            setattr(cls, attr, tracer.wrap(name, orig, note))

    method(_intlin.SmithForm, "__init__", "intlin.smith", _smith_note)
    method(_intlin.SubQuot, "__init__", "intlin.subquot")
    for attr in ("express", "generator_vector", "is_zero"):
        method(_intlin.SubQuot, attr, f"intlin.{attr}")
    function(_intlin, "row_hermite", "intlin.hermite")
    function(_intlin, "solve_in_lattice", "intlin.solve",
             lambda a, k, r: r is not None)
    for attr in ("row_kernel", "lattice_coordinates", "group_invariants"):
        function(_intlin, attr, f"intlin.{attr}")

    gmp = graded.GradedModulePresentation
    method(gmp, "group_at", "graded.group_at", lambda a, k, r: a[1])
    for attr in ("subquot_at", "summand_labels", "slice_relation_rows",
                 "is_zero_at", "order_of", "action_matrix", "suspend",
                 "direct_sum", "dual", "isomorphic_on"):
        method(gmp, attr, f"graded.{attr}")
    for attr in ("matrix", "image_subquot", "injective_at", "surjective_at",
                 "respects_relations"):
        method(graded.ModuleMap, attr, f"graded.module_map.{attr}")
    function(graded, "submodule_presentation", "graded.submodule_presentation")

    for attr in ("v0_tower_setup", "v1_tower_setup", "eta_tower_setup",
                 "ko_base_setup"):
        function(ss, attr, "ss.setup", lambda a, k, r: len(r.rules))
    method(ss.SpectralSequence, "run", "ss.run")
    method(ss.SpectralSequence, "assemble", "ss.assemble", _presentation_note)

    for attr in ("thh_ell", "thh_ell_HZ", "thh_ell_k1", "thh_ell_HFp",
                 "thh_ko", "thh_ko_ku", "thh_ko_eta_map", "ko_homotopy",
                 "build_Tn"):
        function(closed_forms, attr, f"closed_forms.{attr}", _presentation_note)

    for attr in SUITES + ("enumerate_k1_basis", "kernel_subquot",
                          "cokernel_subquot", "variable_multiplication_map",
                          "ko_to_ku_map", "gap_check", "rational_rank_check",
                          "torsion_word_transport"):
        function(verify, attr, f"verify.{attr}")
    for attr in ("unit_check_suite", "naturality_closure", "thh_ell_HZ_mirror",
                 "thc_ell_HZ", "thc_ell_HFp_dims", "tower_rule_set",
                 "cap_associativity_defect"):
        function(thc, attr, f"thc.{attr}")

    for attr in ("main", "group_records", "run_suite", "_format_group",
                 "_format_verify"):
        function(cli, attr, f"cli.{attr.lstrip('_')}")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 with fewer than 2 points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(spans: list[list], wall_s: float, window: int) -> dict[str, float]:
    """Per-layer metrics of one traced job whose `cli.main` took `wall_s`."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    reaches = [False] * n  # some descendant span is in _intlin
    for i in range(n - 1, -1, -1):  # a child's index is above its parent's
        par = spans[i][3]
        if par >= 0:
            child[par] += dur[i]
            if reaches[i] or spans[i][0].startswith("intlin."):
                reaches[par] = True
    under_cf = [False] * n  # some ancestor span is in closed_forms
    for i in range(n):
        par = spans[i][3]
        if par >= 0:
            under_cf[i] = under_cf[par] or spans[par][0].startswith("closed_forms.")

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    smith = {False: [0, 0.0], True: [0, 0.0]}
    max_cells = nnz = cells = 0
    solve_found = 0
    rules = assembled_gens = assembled_rels = 0
    cf_calls = cf_gens = cf_rels = 0
    cf_s = 0.0
    group_at_ms: list[float] = []
    group_at_hits = 0
    per_degree: dict[int, float] = {}
    module_map_self = 0.0

    for i, (name, _start, _end, _par, note) in enumerate(spans):
        own = dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        incl_s[name] = incl_s.get(name, 0.0) + dur[i]
        layer_self[name.split(".", 1)[0]] += own
        if name == "intlin.smith":
            m, ncols, k, transforms = note
            smith[transforms][0] += 1
            smith[transforms][1] += own
            max_cells = max(max_cells, m * ncols)
            nnz += k
            cells += m * ncols
        elif name == "intlin.solve":
            solve_found += bool(note)
        elif name == "graded.group_at":
            per_degree[note] = per_degree.get(note, 0.0) + dur[i]
            if reaches[i]:
                group_at_ms.append(dur[i] * 1e3)
            else:
                group_at_hits += 1
        elif name.startswith("graded.module_map."):
            module_map_self += own
        elif name == "ss.setup":
            rules += note
        elif name == "ss.assemble" and note:
            assembled_gens += note[0]
            assembled_rels += note[1]
        elif name.startswith("closed_forms.") and not under_cf[i]:
            cf_calls += 1
            cf_s += dur[i]
            if note:
                cf_gens += note[0]
                cf_rels += note[1]

    def c(key):
        return calls.get(key, 0)

    def own(key):
        return self_s.get(key, 0.0)

    group_at_ms.sort()
    n_group_at = c("graded.group_at")
    upper = [(d, t) for d, t in per_degree.items() if window / 2 <= d <= window]
    out = {
        "intlin.smith.calls": smith[False][0],
        "intlin.smith.self_s": smith[False][1],
        "intlin.smith_t.calls": smith[True][0],
        "intlin.smith_t.self_s": smith[True][1],
        "intlin.smith.max_cells": max_cells,
        "intlin.smith.nnz": nnz,
        "intlin.smith.density": nnz / cells if cells else 0.0,
        "intlin.subquot.calls": c("intlin.subquot"),
        "intlin.subquot.self_s": own("intlin.subquot"),
        "intlin.express.calls": c("intlin.express"),
        "intlin.express.self_s": own("intlin.express"),
        "intlin.hermite.calls": c("intlin.hermite"),
        "intlin.hermite.self_s": own("intlin.hermite"),
        "intlin.solve.calls": c("intlin.solve"),
        "intlin.solve.self_s": own("intlin.solve"),
        "intlin.solve.found_ratio": (solve_found / c("intlin.solve")
                                     if c("intlin.solve") else 0.0),
        "intlin.row_kernel.calls": c("intlin.row_kernel"),
        "intlin.row_kernel.self_s": own("intlin.row_kernel"),
        "intlin.lattice_coordinates.calls": c("intlin.lattice_coordinates"),
        "intlin.lattice_coordinates.self_s": own("intlin.lattice_coordinates"),
        "intlin.share": layer_self["intlin"] / wall_s,
        "graded.group_at.calls": n_group_at,
        "graded.group_at.self_s": own("graded.group_at"),
        "graded.group_at.p50_ms": _percentile(group_at_ms, 0.50),
        "graded.group_at.p95_ms": _percentile(group_at_ms, 0.95),
        "graded.group_at.hit_ratio": (group_at_hits / n_group_at
                                      if n_group_at else 0.0),
        "graded.subquot_at.calls": c("graded.subquot_at"),
        "graded.subquot_at.self_s": own("graded.subquot_at"),
        "graded.summand_labels.self_s": own("graded.summand_labels"),
        "graded.module_map.self_s": module_map_self,
        "graded.scaling_exp": _slope(upper),
        "ss.setup.s": incl_s.get("ss.setup", 0.0),
        "ss.rules": rules,
        "ss.run.s": incl_s.get("ss.run", 0.0),
        "ss.assemble.s": incl_s.get("ss.assemble", 0.0),
        "ss.assembled.generators": assembled_gens,
        "ss.assembled.relations": assembled_rels,
        "closed_forms.calls": cf_calls,
        "closed_forms.s": cf_s,
        "closed_forms.generators": cf_gens,
        "closed_forms.relations": cf_rels,
    }
    for suite in SUITES:
        out[f"verify.{suite}.s"] = incl_s.get(f"verify.{suite}", 0.0)
    out["verify.kernel_subquot.self_s"] = own("verify.kernel_subquot")
    out["verify.cokernel_subquot.self_s"] = own("verify.cokernel_subquot")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.spans"] = n
    return out
