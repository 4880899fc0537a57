"""Oracles and cross-checks for the assembled answers.

The cofiber identities compare orders computed on both sides of a short
exact sequence, and the dueling rows set the assembled v-tower against the
closed form.  The k(1) basis and the first matching are read off the one
statement of the x and x' generators, `closed_forms.k1_generators`; the
tests keep a per-degree scan of the same formulas as their reference.
Every suite returns a list of `Check` rows; a `thh verify` run is these
lists grouped by tag, each row printed as `tag:name`, encoded once per run.

Most suites build the answers they check from a window.  The two that read
the reduced ko answer, `cofiber_checks_ko` and `eta_square_annihilates`,
take it as an argument instead, and raise `ValueError` unless it is trusted
through window + 4; `cli.run_suite` builds `thh_ko(window + 4)` once per run
and hands it to both.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple

from ._intlin import SubQuot, order_rows, row_kernel, shared_subquot, sparse_rows
from . import closed_forms as cf
from .graded import (GradedModulePresentation, ModuleMap,
                     variable_multiplication_map)
from .padic import PrimeContext, lambda_monomial, nu, r_truncation


def truncation(p: int, n: int) -> int:
    """r(n) extended by r(0) = 0, the length the recursion r(2) = p^2 implies."""
    return 0 if n == 0 else r_truncation(p, n)


class Check(NamedTuple):
    """One row of `thh verify`: the claim's name, where it was checked (a
    degree, a level or a parameter tuple), whether it held, and the data
    printed with it."""

    name: str
    index: int | tuple
    ok: bool
    detail: tuple


def agree(name: str, index: int | tuple, lhs, rhs) -> Check:
    """The row claiming lhs == rhs, with (lhs, rhs) as its detail."""
    return Check(name, index, lhs == rhs, (lhs, rhs))


# -- the k(1) basis --------------------------------------------------------------


def enumerate_k1_basis(ctx: PrimeContext, degrees: Iterable[int]
                       ) -> dict[int, tuple[tuple[str, int, int, int], ...]]:
    """The x and x' generators times v-powers in each requested degree, as
    sorted (family, level, m, v-power) entries: one pass over
    `closed_forms.k1_generators`, where a generator in degree g times v^k,
    k < r(n), lies in degree g + |v| k.  Only requested degrees get an
    entry.  The infinite tower on 1 is excluded (reduced answer)."""
    p = ctx.p
    vd = 2 * p - 2
    found: dict[int, list] = {d: [] for d in degrees}
    lanes: dict[int, list[int]] = {}  # requested degrees by residue mod |v|
    for d in sorted(found):
        lanes.setdefault(d % vd, []).append(d)
    for family, n, m, g, r in cf.k1_generators(p, max(found, default=-1)):
        lane = lanes.get(g % vd, [])
        for d in lane[bisect_left(lane, g):bisect_left(lane, g + vd * r)]:
            found[d].append((family, n, m, (d - g) // vd))
    return {d: tuple(sorted(entries)) for d, entries in found.items()}


def lemma_suite_section4(ctx: PrimeContext, n_max: int) -> list[Check]:
    """The single-generator and vanishing claims feeding the tower arguments.

    For each level n the k(1) basis must hold exactly the named witness (or
    nothing in the vanishing degrees).
    """
    p = ctx.p
    claims = []
    for n in range(n_max + 1):
        if n >= 1:
            claims.append(("even-cyclic-low", 2 * p ** (n + 2) - 2 * p,
                           (("x'", 1, p**n - 2, p - 1),)))
        for d in (2 * p ** (n + 2) - 2, 2 * p ** (n + 2)):
            claims.append(("even-zero", d, ()))
        claims += [("even-cyclic-high", 2 * p ** (n + 2) + 2 * p - 2,
                    (("x'", n + 1, 0, 0),)),
                   ("odd-free", 2 * p ** (n + 2) - 1,
                    (("x", n + 2, 0, truncation(p, n)),)),
                   ("odd-free-next", 2 * p ** (n + 2) + 2 * p - 3,
                    (("x", n + 2, 0, truncation(p, n) + 1),))]
    basis = enumerate_k1_basis(ctx, [d for _, d, _ in claims])
    return [agree(name, d, expected, basis[d]) for name, d, expected in claims]


# -- reconstruction of the first matching ----------------------------------------


class MatchingReport:
    """A differential pattern on the exterior-times-polynomial basis.

    Each monomial in the window is either a named module generator, the unit,
    or the unique source killing one truncated tower; leftovers collect the
    monomials for which no pairing (or more than one) exists.
    """

    def __init__(self, window: int):
        self.window = window
        self.survivors: dict[str, tuple[str, int, int]] = {}
        self.pairs: dict[str, tuple[str, int, int, int]] = {}
        self.leftovers: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.leftovers

    def check(self) -> Check:
        return Check("pairing", self.window, self.ok,
                     (len(self.pairs), len(self.leftovers)))


def matching_B1(ctx: PrimeContext, window: int) -> MatchingReport:
    p = ctx.p
    vd = 2 * p - 2
    report = MatchingReport(window)
    # each generator as a monomial: x_{n,m} = lambda_n mu^(p^(n-1) m) and
    # x'_{n,m} = x_{n,m} lambda_{n+1}, in the degree k1_generators gives it
    # (lambda_n and lambda_{n+1} differ in parity, so their exterior parts
    # never cancel); a source in degree d kills the tower on a generator in
    # degree d - |v| r - 1 < d, so the window bounds both sides
    gens: dict[tuple[int, int, int], tuple[str, int, int]] = {}
    killers: dict[int, list[tuple[str, int, int, int]]] = {}
    for family, n, m, d, r in cf.k1_generators(p, window):
        e1, e2, i = lambda_monomial(p, n)
        if family == "x'":
            f1, f2, nxt = lambda_monomial(p, n + 1)
            e1, e2, i = e1 ^ f1, e2 ^ f2, i + nxt
        gens[(e1, e2, i + p ** (n - 1) * m)] = (family, n, m)
        killers.setdefault(d + vd * r + 1, []).append((family, n, m, r))

    for d, e1, e2, i in cf.hfp_monomials(p, window):
        key = (e1, e2, i)
        label = cf.monomial_label(e1, e2, i)
        if key == (0, 0, 0):
            continue
        if key in gens:
            report.survivors[label] = gens[key]
            continue
        candidates = killers.get(d, [])
        if len(candidates) != 1:
            report.leftovers.append(label)
            continue
        report.pairs[label] = candidates[0]
    return report


# -- kernel and cokernel of a graded map -----------------------------------------


def kernel_subquot(mp: ModuleMap, d: int) -> SubQuot:
    """Kernel of the induced map on degree-d classes, K / L_a in the summand
    coordinates of the source's `vstep_at(d)`.

    K is the set of x with x * M in L_b, for M the rows of the map's
    `summand_matrix(d)` and L_a, L_b the source and target order
    lattices; M is the map times a p-unit, which leaves K as it is.
    Raises ValueError when the map does not respect relations (L_a is not in K).
    """
    p = mp.source.ring.p
    src = mp.source.vstep_at(d).orders
    tgt = mp.target.vstep_at(d + mp.degree_shift).orders
    kernel = None  # a zero target: the whole source
    if tgt:
        stacked = sparse_rows(mp.summand_matrix(d)) + order_rows(tgt)
        # the first len(src) coordinates, dropping those of L_b
        kernel = sparse_rows([k[:len(src)] for k in row_kernel(stacked, len(tgt), p)])
    return shared_subquot(p, len(src), kernel, order_rows(src))


def cokernel_subquot(mp: ModuleMap, d: int) -> SubQuot:
    """Cokernel at target degree d + shift, Z^t / (L_b + span M) in the
    summand coordinates of the target's `vstep_at(d + shift)`.

    M is the rows of the map's `summand_matrix(d)` and L_b the target order
    lattice; the map must respect relations.
    """
    p = mp.target.ring.p
    tgt = mp.target.vstep_at(d + mp.degree_shift).orders
    return shared_subquot(p, len(tgt), None, order_rows(tgt) + sparse_rows(mp.summand_matrix(d)))


def _cokernel_data(mp: ModuleMap, d: int) -> tuple[int, int]:
    """(free rank, order exponent) of `cokernel_subquot(mp, d)`."""
    sq = cokernel_subquot(mp, d)
    return sq.free_rank(), sq.total_order_exponent()


def _kernel_data(mp: ModuleMap, d: int) -> tuple[int, int]:
    """(free rank, order exponent) of `kernel_subquot(mp, d)`."""
    sq = kernel_subquot(mp, d)
    return sq.free_rank(), sq.total_order_exponent()


# -- cofiber (universal-coefficient) identities ----------------------------------


def _mod_p_dim(mod: GradedModulePresentation, d: int) -> int:
    """dim of the mod-p answer in degree d: the free rank plus the torsion
    summands in degree d, plus Tor from degree d - 1."""
    rank, tors = mod.group_at(d)
    return rank + len(tors) + (len(mod.group_at(d - 1)[1]) if d >= 1 else 0)


def _through_cofiber(mp: ModuleMap, n: int) -> tuple[int, int]:
    """(free rank, order exponent) in degree n of the map's cofiber: the
    cokernel landing in degree n plus the kernel one degree below.  Each
    map caches only these pairs by its slice-shape pair, not the groups:
    reading the pairs off cached groups at every call made `verify --suite
    cofiber --prime 5 --max-degree 3000` 15% to 27% slower."""
    d = n - mp.degree_shift
    ck = mp.induced(d, _cokernel_data)
    kr = mp.induced(d - 1, _kernel_data) if d >= 1 else (0, 0)
    return ck[0] + kr[0], ck[1] + kr[1]


def cofiber_checks(ctx: PrimeContext, window: int) -> list[Check]:
    """Order identities from the coefficient cofiber sequences, both sides
    computed independently (reduced answers throughout)."""
    p = ctx.p
    pad = window + 2 * (2 * p - 2)
    ell = cf.thh_ell(ctx, pad)
    k1 = cf.thh_ell_k1(ctx, pad)
    hz = cf.thh_ell_HZ(ctx, pad)
    hfp = cf.thh_ell_HFp(ctx, pad)
    hfp[0] -= 1  # reduced answers throughout
    v_ell = variable_multiplication_map(ell)
    v_k1 = variable_multiplication_map(k1)
    out = []
    for n in range(window + 1):
        # mod-p coefficients on the integral answer
        rank, tors = k1.group_at(n)
        out.append(agree("mod-p", n, (rank + len(tors),), (_mod_p_dim(ell, n),)))
        # killing v on the integral answer gives the HZ answer
        rank, tors = hz.group_at(n)
        out.append(agree("mod-v", n, (rank, sum(nu(p, t) for t in tors)),
                         _through_cofiber(v_ell, n)))
        # killing v on the k(1) answer gives the mod-(p, v) answer
        out.append(agree("mod-pv-from-k1", n, (hfp.get(n, 0),),
                         (sum(_through_cofiber(v_k1, n)),)))
        # killing p on the HZ answer also gives the mod-(p, v) answer
        out.append(agree("mod-pv-from-hz", n, (hfp.get(n, 0),),
                         (_mod_p_dim(hz, n),)))
    return out


def _require_complete(mod: GradedModulePresentation, window: int) -> None:
    """Reject an answer not trusted through window + 4, the degrees the ko
    suites read: `thh_ko(window + 4)` is complete below window + 5."""
    need = window + 5
    if mod.complete_below is not None and mod.complete_below < need:
        raise ValueError(f"the ko checks to degree {window} need an answer "
                         f"complete below {need}, got {mod.complete_below}")


def cofiber_checks_ko(ko: GradedModulePresentation, window: int) -> list[Check]:
    """The 2-primary analogue: killing eta on THH(ko) gives the ku-coefficient
    answer, through the short exact sequence of the eta-cofiber.

    ko is the reduced answer `thh_ko(window + 4)`, or one trusted further."""
    _require_complete(ko, window)
    eta = cf.thh_ko_eta_map(ko)
    koku = cf.thh_ko_ku(window + 4)
    out = []
    for n in range(window + 1):
        rank, tors = koku.group_at(n)
        out.append(agree("mod-eta", n, (rank, sum(nu(2, t) for t in tors)),
                         _through_cofiber(eta, n)))
    return out


# -- the two towers must tell the same story -------------------------------------


def dueling_comparison(ctx: PrimeContext, window: int) -> list[Check]:
    """Cross-checks between the two Bockstein routes to the integral answer:
    the assembled divided-tower output against the closed form, and (the
    scan-budget row) the k(1) basis, `closed_forms.k1_generators` with its
    truncations, counted directly against `thh_ell`'s mod-p dimension.  The
    cofiber `mod-p` row checks `graded`'s reduction of `thh_ell_k1` against
    that same dimension."""
    from .ss import v1_tower_setup
    ell = cf.thh_ell(ctx, window)
    assembled = v1_tower_setup(ctx, window).run()
    basis = enumerate_k1_basis(ctx, range(window + 1))
    out = []
    for n in range(window + 1):
        out.append(agree("assembled-vs-closed", n, assembled[n], ell.group_at(n)))
        out.append(agree("scan-budget", n, (len(basis[n]),), (_mod_p_dim(ell, n),)))
    return out


# -- gaps and rational ranks -----------------------------------------------------


def gap_check(ctx: PrimeContext, n_max: int) -> list[Check]:
    """Even reduced homotopy vanishes strictly between the torsion blocks."""
    p = ctx.p
    top = 2 * p * p ** (n_max + 2) + 2 * p - 3
    ell = cf.thh_ell(ctx, top + 1)
    out = []
    for n in range(n_max + 1):
        for k in range(2, p + 1):
            lo = 2 * k * p ** (n + 2) - 2 * p + 1
            hi = 2 * k * p ** (n + 2) + 2 * p - 3
            for d in range(lo + 1, hi):
                if d % 2 == 0:
                    out.append(agree("even-gap", d, ell.group_at(d), (0, [])))
    return out


def rational_rank_check(ctx: PrimeContext, window: int) -> list[Check]:
    """Free ranks match the rational answer: one class in each degree
    2(p-1)e and 2p-1+2(p-1)e, nothing else."""
    p = ctx.p
    ell = cf.thh_ell(ctx, window, reduced=False)
    out = []
    for d in range(window + 1):
        expected = 0
        if d % (2 * p - 2) == 0:
            expected += 1
        if d >= 2 * p - 1 and (d - 2 * p + 1) % (2 * p - 2) == 0:
            expected += 1
        out.append(agree("rational-rank", d, (ell.group_at(d)[0],), (expected,)))
    return out


# -- transporting the extension dictionary ---------------------------------------


def torsion_word_transport(ctx: PrimeContext, n: int) -> bool:
    """The hidden-extension formulas on the classes b_m, rewritten through the
    word dictionary, must be exactly the level-n module's p-relations."""
    from .padic import TorsionWord

    p = ctx.p
    have = set()
    for rel in cf.build_Tn(ctx, n).relations:
        if rel.terms[0][0] == p and rel.terms[0][1] == 0:
            have.add(rel.terms)

    def word_gid(stripped: TorsionWord, zeros: int) -> str:
        full = TorsionWord(stripped.digits + (0,) * zeros, p)
        return "T:" + full.label()

    built = set()
    for m in range(p**n, 2 * p**n):
        k = nu(p, m)
        for j in range(k + 1):
            _, w, _ = cf.class_to_word(ctx, m, j)
            terms = [(p, 0, word_gid(w, j))]
            if j < k:
                terms.append((-1, 0, word_gid(w, j + 1)))
            ext = cf.hidden_extension(p, m) if j == 0 else None
            if ext:
                m2, e, c = ext
                _, w2, _ = cf.class_to_word(ctx, m2, 0)
                terms.append((-1, e, word_gid(w2, c)))
            built.add(tuple(terms))
    return built == have


# -- the ko-to-ku comparison map -------------------------------------------------


def ko_to_ku_map(window: int) -> ModuleMap:
    """The comparison sending the real-coefficient answer into the complex one:
    the bottom free class goes to v times the bottom free class, higher
    staircase generators map across, and torsion words land on v times the
    corresponding word classes.  The target is trusted in every degree of a
    source relation, which the T'_n blocks put past window + 4."""
    src = cf.thh_ko_ku(window)
    top = max((src.term_degree(rel.terms) for rel in src.relations), default=0)
    tgt = cf.thh_ell(PrimeContext(2), max(window + 4, top))
    images = {}
    k = 0
    while f"F':phi{k}" in src.generators:
        images[f"F':phi{k}"] = ((1, 0, f"F:phi{k}"),) if k else ((1, 1, "F:phi0"),)
        k += 1
    for n in cf.ko_levels(window, 0):
        for m, w in cf.bprime_words(n):
            images[cf.bprime_gid(m)] = ((1, 1, f"T[{n},1]:{w.label()}"),)
    return ModuleMap(src, tgt, images)


def ko_ku_comparison(window: int) -> list[Check]:
    mp = ko_to_ku_map(window)
    return ([agree("respects-relations", -1, (mp.respects_relations(),), (True,))]
            + [agree("injective", d, (mp.injective_at(d),), (True,))
               for d in range(window + 1)])


def eta_square_map(ko: GradedModulePresentation) -> ModuleMap:
    """Multiplication by eta twice on the reduced ko answer, a map of degree 2."""
    eta = cf.thh_ko_eta_map(ko)
    images = {gid: tuple(eta.image_of(terms)) for gid, terms in eta.images.items()}
    return ModuleMap(ko, ko, images, degree_shift=2)


def eta_square_annihilates(ko: GradedModulePresentation,
                           window: int) -> list[Check]:
    """Composing multiplication by eta with itself is zero on the reduced
    ko answer in every degree.

    ko is the reduced answer `thh_ko(window + 4)`, or one trusted further."""
    _require_complete(ko, window)
    eta2 = eta_square_map(ko)
    out = []
    for d in range(window + 1):
        img = eta2.image_subquot(d)
        out.append(agree("eta-squared", d, (img.free_rank(), img.torsion()), (0, [])))
    return out


def ko_base_homotopy(window: int) -> list[Check]:
    """The ko base tower abuts to the homotopy of ko in every degree."""
    from .ss import ko_base_setup
    base = ko_base_setup(window).run()
    return [Check("base-homotopy", n, base[n] == cf.ko_homotopy(n), ())
            for n in range(window + 1)]


# -- duality of the torsion blocks and the dual-algebra mirror -------------------


def duality_check(ctx: PrimeContext, n_max: int, window: int) -> list[Check]:
    """Order symmetry of each torsion block about its top degree, plus the
    Hom/Ext mirror between the divided-power answer and the integral one."""
    from . import thc

    out = []
    for n in range(n_max + 1):
        tn = cf.build_Tn(ctx, n)
        top = cf.tn_top_degree(ctx.p, n)
        name = f"block-{n}-self-dual"
        for d in range(top + 1):
            out.append(agree(name, d, tn.group_at(d), tn.group_at(top - d)))
    mirror = thc.thh_ell_HZ_mirror(ctx, window)
    direct = thc.thc_ell_HZ(ctx, window)
    for d in range(window + 1):
        out.append(agree("hom-ext-mirror", d, direct.get(d, (0, [])),
                         mirror.get(d, (0, []))))
    return out
