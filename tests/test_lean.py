"""`src/thh` keeps only what a `thh` command runs.

Every function, method and class defined in `src/thh` must be referenced by
name somewhere in `src/thh`: as a name, as an attribute, or as an import
alias.  Dunders, the names in `thh.__all__` and `cli.main` are exempt.  The
definitions that no `src` code references are exactly `BENCH_NAMED`: each
stays only because `bench/spans.py` wraps it by name, and the ROADMAP item
beside it retires it.  A helper that only tests call belongs in the tests.

The scan matches names, not bindings, so it cannot see:
- a function that only calls itself;
- a definition reached only from a listed name, such as `thc.dp_multiply`,
  which only `cap_associativity_defect` calls;
- a definition whose name some other object also uses, such as a method
  named like a function that is called elsewhere.
"""

import ast
import pathlib

import thh

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "thh"

# (module, name): the ROADMAP items that retire it from src
BENCH_NAMED = {
    ("_intlin", "lattice_coordinates"): "items 4 and 8",
    ("graded", "submodule_presentation"): "items 4 and 8",
    ("graded", "order_of"): "items 4 and 13",
    ("graded", "action_matrix"): "items 4 and 13",
    ("graded", "isomorphic_on"): "items 4 and 13",
    ("graded", "surjective_at"): "items 4 and 13",
    ("verify", "gap_check"): "items 4 and 13",
    ("verify", "rational_rank_check"): "items 4 and 13",
    ("verify", "torsion_word_transport"): "items 4 and 13",
    ("thc", "thc_ell_HFp_dims"): "items 4 and 13",
    ("thc", "cap_associativity_defect"): "items 4 and 13",
}

EXEMPT = {("cli", "main")}


def unreferenced_definitions() -> set[tuple[str, str]]:
    """(module, name) of each definition in `src/thh` that no `src/thh`
    code references by name."""
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name)
    return {(module, name) for module, name in defined
            if name not in referenced
            and not (name.startswith("__") and name.endswith("__"))
            and name not in thh.__all__
            and (module, name) not in EXEMPT}


def test_src_defines_only_what_src_references():
    found = unreferenced_definitions()
    unlisted = [f"src/thh/{module}.py: {name} has no reference in src"
                for module, name in sorted(found - BENCH_NAMED.keys())]
    stale = [f"src/thh/{module}.py: {name} is referenced in src; drop it from BENCH_NAMED"
             for module, name in sorted(BENCH_NAMED.keys() - found)]
    assert not unlisted + stale, "\n".join(unlisted + stale)


def test_each_listed_name_is_wrapped_by_the_bench():
    spans = (ROOT / "bench" / "spans.py").read_text()
    assert [name for _, name in BENCH_NAMED
            if f'"{name}"' not in spans] == []
