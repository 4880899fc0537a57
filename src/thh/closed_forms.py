"""Constructors for the named torsion modules and the six assembled answers.

Everything is a GradedModulePresentation over Z_(p)[v] (|v| = 2p-2 on the
2-primary connective-ku side, |v| = 4 = |v_1^2| on the ko side), built in
one call from its generator and relation lists.  Each answer is the paper's
direct sum of suspended pieces.  Windows are explicit: generators are only
laid down up to the requested top degree, and complete_below records how far
the presentation can be trusted.  None means every degree, as for the finite
pieces T_n, Ttilde and their duals; a direct sum takes the least bound among
its parts, so an answer's bound is that of its truncated free chain.  The
bound is recorded but not yet enforced: nothing reads it.
"""
from __future__ import annotations

from .graded import (GradedModulePresentation, Generator, ModuleMap, Relation,
                     RingSpec, submodule_presentation)
from .padic import (PrimeContext, TorsionWord, a_degree, all_words, b_degree,
                    g_word_degree, lambda_degree, mu_degree, nu, r_truncation,
                    staircase_sum, x_degree, x_prime_degree)


def ell_ring(p: int) -> RingSpec:
    return RingSpec(p, 2 * p - 2)


def ko_ring() -> RingSpec:
    """ko-side ring: the acting variable is v_1^2 in degree 4."""
    return RingSpec(2, 4)


# -- torsion modules T_n ---------------------------------------------------------


def _word_gid(prefix: str, w: TorsionWord) -> str:
    return prefix + w.label()


def kill_exponent(p: int, n: int, length: int) -> int:
    """v-power annihilating g_w in T_n for |w| = length: p^(n-|w|+1) + ... + p."""
    return staircase_sum(p, n - length + 1)


def build_Tn(ctx: PrimeContext, n: int, prefix: str = "T:") -> GradedModulePresentation:
    """The level-n torsion module on word generators g_w, |w| <= n."""
    if n < 0:
        raise ValueError("level must be >= 0")
    p = ctx.p
    words = all_words(p, n)
    gens = [Generator(_word_gid(prefix, w), g_word_degree(p, n, w), w.label()) for w in words]
    rels = []
    have = {w.digits for w in words}
    for w in words:
        k = len(w)
        # p * g_w
        terms: list[tuple[int, int, str]] = [(p, 0, _word_gid(prefix, w))]
        child = w.digits + (0,)
        if child in have:
            terms.append((-1, 0, _word_gid(prefix, TorsionWord(child, p))))
        if k >= 1 and w.digits[-1] == p - 1:
            parent = TorsionWord(w.digits[:-1], p)
            terms.append((-1, p ** (n - k + 2), _word_gid(prefix, parent)))
        rels.append(Relation(tuple(terms)))
        # v-power annihilation
        rels.append(Relation(((1, kill_exponent(p, n, k), _word_gid(prefix, w)),)))
    return GradedModulePresentation(ell_ring(p), gens, rels)


def tn_top_degree(p: int, n: int) -> int:
    """Largest degree in which T_n is nonzero."""
    word = TorsionWord((p - 1,) * n, p)
    return g_word_degree(p, n, word) + (2 * p - 2) * (kill_exponent(p, n, n) - 1)


# -- the torsion-free chain F ----------------------------------------------------


def phi_degree(p: int, k: int) -> int:
    return 2 * (p - 1) * staircase_sum(p, k)


def chain_extension(p: int, k: int) -> tuple[str, int, str, int, int]:
    """F's relation p phi_(k+1) = v^(p^(k+1)) phi_k on the v-tower's classes.

    a_(p^k), of order p^(k+1), carries phi_(k+1) suspended by l1, so the
    relation reads p * (p^k a_(p^k)) = p^c v^e t; returned as
    (a_(p^k), p^k, t, e, c) with t = a_(p^(k-1)), or l1 for k = 0.
    """
    if k == 0:
        return "a1", 1, "l1", p, 0
    return f"a{p**k}", p**k, f"a{p ** (k - 1)}", p ** (k + 1), k - 1


def build_F(ctx: PrimeContext, window: int) -> GradedModulePresentation:
    """Divided v-power chain: Z in each degree 2(p-1)e, generated by phi_k."""
    p = ctx.p
    gens = []
    k = 0
    while phi_degree(p, k) <= window:
        gens.append(Generator(f"F:phi{k}", phi_degree(p, k), f"phi{k}"))
        k += 1
    rels = [Relation(((p, 0, f"F:phi{j}"), (-1, p**j, f"F:phi{j - 1}"))) for j in range(1, k)]
    return GradedModulePresentation(ell_ring(p), gens, rels, window + 1)


# -- THH(l) ----------------------------------------------------------------------


def torsion_block_shifts(p: int, window: int):
    """(n, k, shift) for every torsion block with shift 2 k p^(n+2) + 2(p-1) <= window."""
    out = []
    n = 0
    while 2 * p ** (n + 2) + 2 * (p - 1) <= window:
        for k in range(1, p):
            shift = 2 * k * p ** (n + 2) + 2 * (p - 1)
            if shift <= window:
                out.append((n, k, shift))
        n += 1
    return out


def thh_ell(ctx: PrimeContext, window: int,
            reduced: bool = True) -> GradedModulePresentation:
    """Integral answer for l: free chain suspended by |lambda_1| plus torsion blocks."""
    p = ctx.p
    parts = []
    if not reduced:
        parts.append(GradedModulePresentation(ell_ring(p), [Generator("iota", 0, "iota")], []))
    parts.append(_relabel(build_F(ctx, window - (2 * p - 1)).suspend(2 * p - 1),
                          lambda lab: lab + "*l1"))
    for n, k, shift in torsion_block_shifts(p, window):
        parts.append(build_Tn(ctx, n, prefix=f"T[{n},{k}]:").suspend(shift))
    return GradedModulePresentation.direct_sum(parts)


def _relabel(mod: GradedModulePresentation, fn) -> GradedModulePresentation:
    gens = [Generator(g.gid, g.degree, fn(g.display())) for g in mod.generators.values()]
    return GradedModulePresentation(mod.ring, gens, mod.relations, mod.complete_below)


# -- THH(l; HF_p) ---------------------------------------------------------------


def hfp_monomials(p: int, window: int):
    """Monomials e(l1)^a e(l2)^b mu^i of E(l1, l2) (x) P(mu), by total degree."""
    out = []
    i = 0
    while mu_degree(p) * i <= window:
        for e1 in (0, 1):
            for e2 in (0, 1):
                d = e1 * lambda_degree(p, 1) + e2 * lambda_degree(p, 2) + i * mu_degree(p)
                if d <= window:
                    out.append((d, e1, e2, i))
        i += 1
    out.sort()
    return out


def monomial_label(e1: int, e2: int, i: int) -> str:
    """Printable name of the monomial e(l1)^e1 e(l2)^e2 mu^i."""
    parts = [s for s, e in (("l1", e1), ("l2", e2)) if e]
    if i:
        parts.append(f"mu^{i}" if i > 1 else "mu")
    return "*".join(parts) or "1"


def thh_ell_HFp(ctx: PrimeContext, window: int) -> dict[int, int]:
    """Per-degree F_p-dimensions of the mod-p answer."""
    dims: dict[int, int] = {}
    for d, *_ in hfp_monomials(ctx.p, window):
        dims[d] = dims.get(d, 0) + 1
    return dims


# -- THH(l; k(1)) ----------------------------------------------------------------


def k1_generators(p: int, window: int):
    """(gid, degree, truncation length, label) for the k(1)-answer's module generators."""
    out = []
    n = 1
    while x_degree(p, n, 0) <= window:
        m = 0
        while x_degree(p, n, m) <= window or x_prime_degree(p, n, m) <= window:
            if m % p != p - 1:
                if x_degree(p, n, m) <= window:
                    out.append((f"x[{n},{m}]", x_degree(p, n, m), r_truncation(p, n), f"x({n},{m})"))
                if x_prime_degree(p, n, m) <= window:
                    out.append((f"x'[{n},{m}]", x_prime_degree(p, n, m), r_truncation(p, n), f"x'({n},{m})"))
            m += 1
        n += 1
    return out


def thh_ell_k1(ctx: PrimeContext, window: int, reduced: bool = True) -> GradedModulePresentation:
    """F_p[v]-module answer with coefficients in the first connective Morava theory."""
    p = ctx.p
    gens = []
    if not reduced:
        gens.append(Generator("one", 0, "1"))
    entries = k1_generators(p, window)
    gens.extend(Generator(gid, d, lab) for gid, d, _, lab in entries)
    rels = [Relation(((p, 0, g.gid),)) for g in gens]
    rels += [Relation(((1, trunc, gid),)) for gid, _, trunc, _ in entries]
    return GradedModulePresentation(ell_ring(p), gens, rels, window + 1)


# -- THH(l; HZ) ------------------------------------------------------------------


def hz_classes(p: int, top: int) -> list[tuple[str, int, int]]:
    """(gid, degree, order) of l1 (free, order 0) and of a_i, b_i up to degree
    top (order p^(nu_p(i)+1)): the HZ answer's generators, in its order, and
    the cells of the v-tower's first page."""
    out = [("l1", 2 * p - 1, 0)]
    i = 1
    while a_degree(p, i) <= top:
        order = p ** (nu(p, i) + 1)
        out.append((f"a{i}", a_degree(p, i), order))
        if b_degree(p, i) <= top:
            out.append((f"b{i}", b_degree(p, i), order))
        i += 1
    return out


def thh_ell_HZ(ctx: PrimeContext, window: int, reduced: bool = True) -> GradedModulePresentation:
    """Integral-coefficient answer: a lambda_1 tower plus v-trivial a/b torsion."""
    p = ctx.p
    gens = []
    rels = []
    if not reduced:
        gens.append(Generator("unit", 0, "1"))
        rels.append(Relation(((1, 1, "unit"),)))
    for gid, d, order in hz_classes(p, window):
        gens.append(Generator(gid, d, gid))
        if order:
            rels.append(Relation(((order, 0, gid),)))
        rels.append(Relation(((1, 1, gid),)))
    return GradedModulePresentation(ell_ring(p), gens, rels, window + 1)


# -- ko side ---------------------------------------------------------------------


KU_RING = RingSpec(2, 2)


def bprime_gid(m: int) -> str:
    """Generator id of b'_m = v g_w in T'_n, for the level-n word w of m."""
    n, w, _ = class_to_word(PrimeContext(2), m, 0)
    return f"T'[{n}]:h_{''.join(map(str, w.digits)) or 'e'}"


def bprime_words(n: int) -> list[tuple[int, TorsionWord]]:
    """(m, w) for each b'_m = v g_w of T'_n: the level-n words w with no
    trailing zero, and their b-class indices m from the word dictionary."""
    ctx = PrimeContext(2)
    return [(word_dictionary(ctx, n, w, 0)[0], w) for w in all_words(2, n)
            if w.digits[-1:] != (0,)]


def build_Tn_prime(n: int) -> GradedModulePresentation:
    """Submodule of the desuspended level-n torsion module spanned by v-multiples.

    Generators h_w = v * g_w for words with no trailing zero; h_w is relabeled
    b'_m through the word dictionary.
    """
    tn = build_Tn(PrimeContext(2), n, prefix="tmp:")
    picked = [(bprime_gid(m), ((1, 1, "tmp:" + w.label()),), f"b'{m}")
              for m, w in bprime_words(n)]
    sub = submodule_presentation(tn, picked, tn_top_degree(2, n) + 3)
    sub = sub.suspend(-2)
    sub.complete_below = None
    return sub


def phi_prime_degree(k: int) -> int:
    return 0 if k == 0 else 2 * (2 ** (k + 1) - 3)


def build_F_prime(window: int) -> GradedModulePresentation:
    """ko-side divided chain: Z in each even degree, staircase indexed by 2^(k+1)-3."""
    gens = []
    k = 0
    while phi_prime_degree(k) <= window:
        gens.append(Generator(f"F':phi{k}", phi_prime_degree(k), f"phi'{k}"))
        k += 1
    rels = []
    for j in range(1, k):
        step = (phi_prime_degree(j) - phi_prime_degree(j - 1)) // 2
        rels.append(Relation(((2, 0, f"F':phi{j}"), (-1, step, f"F':phi{j - 1}"))))
    return GradedModulePresentation(KU_RING, gens, rels, window + 1)


def thh_ko_ku(window: int, reduced: bool = True) -> GradedModulePresentation:
    """Integral answer for ko with connective-ku coefficients (2-local)."""
    parts = []
    if not reduced:
        parts.append(GradedModulePresentation(KU_RING, [Generator("iota", 0, "iota")], []))
    parts.append(_relabel(build_F_prime(window - 5).suspend(5), lambda lab: lab + "*l1'"))
    n = 0
    while 2 ** (n + 3) + 4 <= window:
        parts.append(build_Tn_prime(n).suspend(2 ** (n + 3) + 4))
        n += 1
    return GradedModulePresentation.direct_sum(parts)


# -- ko torsion pieces -----------------------------------------------------------


def build_Ttilde(n: int, prefix: str = "Tt:") -> GradedModulePresentation:
    """Truncated divided 2-power polynomial piece on one generator in degree 0.

    Z[v]/(2^(n-j) v^(2^j - 1) : j = 0..n) with v of degree 4.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    gid = prefix + "t"
    rels = [Relation(((2 ** (n - j), 2**j - 1, gid),)) for j in range(n + 1)]
    return GradedModulePresentation(ko_ring(), [Generator(gid, 0, prefix + "1")], rels)


def ttilde_top_degree(n: int) -> int:
    return 4 * (2**n - 2)


def build_D_dual_Ttilde(n: int, prefix: str = "DTt:") -> GradedModulePresentation:
    """Degreewise dual of build_Ttilde(n), placed with its top class in degree 0."""
    tt = build_Ttilde(n)
    return tt.dual(0, ttilde_top_degree(n), prefix=prefix.rstrip(":"))


def build_Tnko(n: int) -> GradedModulePresentation:
    """Level-n ko torsion block: nested truncated pieces and their duals."""
    if n < 1:
        raise ValueError("level must be >= 1")
    prefix = f"ko{n}:"
    parts = []
    top = 2 ** (n + 3) - 10
    for k in range(1, 2 ** (n - 1)):
        m = nu(2, k) + 1
        parts.append(build_Ttilde(m, prefix=f"{prefix}k{k}.").suspend(16 * k))
        parts.append(build_D_dual_Ttilde(m, prefix=f"{prefix}k{k}.D").suspend(top - 16 * k))
    parts.append(build_Ttilde(n, prefix=f"{prefix}main."))
    parts.append(build_D_dual_Ttilde(n, prefix=f"{prefix}main.D").suspend(top))
    return GradedModulePresentation.direct_sum(parts)


def fko_eta_missing(i: int) -> bool:
    """ηu_i is absent exactly when i = 2^m - 2 for some m >= 1."""
    m = i + 2
    return i >= 0 and m & (m - 1) == 0


def build_Fko(window: int) -> GradedModulePresentation:
    """Torsion-free ko part: Z on u_i (degree 4i) and Z/2 on eta*u_i (degree 4i+1)."""
    gens = []
    imax = window // 4
    for i in range(imax + 1):
        gens.append(Generator(f"Fko:u{i}", 4 * i, f"u{i}"))
        if not fko_eta_missing(i) and 4 * i + 1 <= window:
            gens.append(Generator(f"Fko:eu{i}", 4 * i + 1, f"eta*u{i}"))
    rels = []
    for i in range(imax + 1):
        if i + 1 <= imax:
            mult = 2 if fko_eta_missing(i) else 1
            rels.append(Relation(((1, 1, f"Fko:u{i}"), (-mult, 0, f"Fko:u{i + 1}"))))
        if not fko_eta_missing(i) and 4 * i + 1 <= window:
            rels.append(Relation(((2, 0, f"Fko:eu{i}"),)))
            if 4 * (i + 1) + 1 <= window:
                if fko_eta_missing(i + 1):
                    rels.append(Relation(((1, 1, f"Fko:eu{i}"),)))
                else:
                    rels.append(Relation(((1, 1, f"Fko:eu{i}"), (-1, 0, f"Fko:eu{i + 1}"))))
    return GradedModulePresentation(ko_ring(), gens, rels, window + 1)


def thh_ko(window: int, reduced: bool = True) -> GradedModulePresentation:
    """Integral 2-local answer for ko, with the hidden multiplications by 2.

    In the level-n block's top dual piece the order relations are not zero but
    land on the eta classes of the suspended torsion-free part.
    """
    parts = []
    if not reduced:
        parts.append(_ko_coefficients(window))
    parts.append(build_Fko(window - 5).suspend(5))
    levels = []
    n = 1
    while 2 ** (n + 3) + 4 <= window:
        parts.append(build_Tnko(n).suspend(2 ** (n + 3) + 4))
        levels.append(n)
        n += 1
    merged = GradedModulePresentation.direct_sum(parts)
    # replace the pure order relations of each main dual piece with hidden
    # extensions: 2 * (v^k * bottom dual class) = eta*u_(3*2^n - 1 + k)
    hidden = {}
    for n in levels:
        top = ttilde_top_degree(n)
        for d in range(0, top + 1, 4):
            hidden[f"ko{n}:main.D[{d},0]"] = f"Fko:eu{3 * 2**n - 1 + (top - d) // 4}"
    rels, orders = [], {}
    for rel in merged.relations:
        (order, e, gid), *rest = rel.terms
        if not rest and e == 0 and gid in hidden:
            orders[gid] = order
        else:
            rels.append(rel)
    for gid, target in hidden.items():
        onto = ((-1, 0, target),) if target in merged.generators else ()
        rels.append(Relation(((orders[gid], 0, gid),) + onto))
    return GradedModulePresentation(merged.ring, list(merged.generators.values()), rels,
                                    merged.complete_below)


def _ko_coefficients(window: int) -> GradedModulePresentation:
    """ko coefficients as a module over Z_(2)[v_1^2]: Bott chain plus eta classes."""
    gens = [Generator("ko:b0", 0, "1")]
    rels = []
    k = 1
    while 8 * k <= window:
        gens.append(Generator(f"ko:b{k}", 8 * k, f"beta{k}"))
        rels.append(Relation(((1, 2, f"ko:b{k - 1}"), (-4, 0, f"ko:b{k}"))))
        k += 1
    j = 0
    while 8 * j + 1 <= window:
        for tag, off in (("e", 1), ("ee", 2)):
            if 8 * j + off <= window:
                gid = f"ko:{tag}{j}"
                gens.append(Generator(gid, 8 * j + off, f"eta^{off}*beta{j}"))
                rels.append(Relation(((2, 0, gid),)))
                rels.append(Relation(((1, 1, gid),)))
        j += 1
    return GradedModulePresentation(ko_ring(), gens, rels, window + 1)


def thh_ko_eta_map(mod: GradedModulePresentation) -> ModuleMap:
    """Multiplication by eta on the assembled ko answer (zero off the u-chain)."""
    images = {}
    i = 0
    while f"Fko:u{i}" in mod.generators:
        if f"Fko:eu{i}" in mod.generators:
            images[f"Fko:u{i}"] = ((1, 0, f"Fko:eu{i}"),)
        i += 1
    return ModuleMap(mod, mod, images, degree_shift=1)


def ko_homotopy(d: int) -> tuple[int, list[int]]:
    """(free rank, torsion) of the 2-local homotopy of ko in degree d."""
    if d < 0:
        return (0, [])
    r = d % 8
    if r == 0 or r == 4:
        return (1, [])
    if r in (1, 2):
        return (0, [2])
    return (0, [])


# -- word dictionary -------------------------------------------------------------


def word_dictionary(ctx: PrimeContext, n: int, w: TorsionWord, j: int) -> tuple[int, int]:
    """(b-class index, v0-power) attached to a level-n word with j trailing zeros allowed."""
    p = ctx.p
    if len(w) + j > n:
        raise ValueError("word plus trailing-zero count exceeds the level")
    i = p**n + sum(a * p ** (n - 1 - t) for t, a in enumerate(w.digits))
    if j > nu(p, i):
        raise ValueError("v0-power exceeds the torsion order exponent")
    return (i, j)


def class_to_word(ctx: PrimeContext, i: int, j: int) -> tuple[int, TorsionWord, int]:
    """Inverse dictionary: (level n, word with trailing zeros stripped, j)."""
    p = ctx.p
    if i < 1:
        raise ValueError("class index must be positive")
    n = 0
    while p ** (n + 1) <= i:
        n += 1
    digits = []
    rem = i - p**n
    if rem < 0 or rem >= p**n:
        raise ValueError(f"index {i} outside level {n} range")
    for t in range(n):
        q = p ** (n - 1 - t)
        digits.append(rem // q)
        rem %= q
    while digits and digits[-1] == 0:
        digits.pop()
    if j > nu(p, i):
        raise ValueError("v0-power exceeds the torsion order exponent")
    return (n, TorsionWord(tuple(digits), p), j)


def hidden_extension(p: int, m: int) -> tuple[int, int, int] | None:
    """The hidden p-extension on b_m as (m2, e, c): p * b_m = p^c v^e b_m2.

    With k = nu_p(m): m2 = m - (p-1) p^k, e = p^(k+2), c = nu_p(m2) - k - 1;
    None when m2 < 1 or c < 0.  Whenever it is declared, m2 lies in m's own
    level (p^n <= m2 for p^n <= m < p^(n+1)), and through the word
    dictionary it is the parent term of the level-n module's p-relations
    (`verify.torsion_word_transport`).
    """
    k = nu(p, m)
    m2 = m - (p - 1) * p**k
    if m2 < 1 or nu(p, m2) < k + 1:
        return None
    return m2, p ** (k + 2), nu(p, m2) - k - 1
