"""Constructors for the named torsion modules and the six assembled answers.

Everything is a GradedModulePresentation over Z_(p)[v] (|v| = 2p-2 on the
2-primary connective-ku side, |v| = 4 = |v_1^2| on the ko side), built in
one call from its generator and relation lists.  Each answer is the paper's
direct sum of suspended pieces.  Windows are explicit: generators are only
laid down up to the requested top degree, and complete_below records how far
the presentation can be trusted.  The finite pieces T_n, Ttilde and their
duals have no bound, so an answer's bound is that of its truncated free chain.

thh_ell, thh_ko_ku and thh_ko share one shape: the unit (unreduced only),
a torsion-free chain on lambda_1 and the suspended torsion blocks.  The
chains F and F' are both `_divided_chain`, the ko-side levels are
`ko_levels`, and the ku-side blocks T'_n are `build_Tn_prime`.  The hidden
extensions are stated once: `hidden_extension` on the b_m, and
`ko_hidden_extension`, which thh_ko and the eta tower both read.  The
k(1) generators x_{n,m}, x'_{n,m} and their truncations are stated once, in
`k1_generators`: thh_ell_k1, the k(1) basis (`verify.enumerate_k1_basis`)
and the first matching (`verify.matching_B1`) all read it.  Fixed id
prefixes (F:, F':, Fko:, T'[n]:, ko<n>:) name the pieces other code reads.
"""
from __future__ import annotations

from .graded import GradedModulePresentation, Generator, ModuleMap, Relation, RingSpec
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


def parent_exponent(p: int, n: int, length: int) -> int:
    """v-power p^(n-|u|+2) on the parent term of T_n's p-relation for g_u, |u| = length."""
    return p ** (n - length + 2)


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
            terms.append((-1, parent_exponent(p, n, k), _word_gid(prefix, parent)))
        rels.append(Relation(tuple(terms)))
        # v-power annihilation
        rels.append(Relation(((1, kill_exponent(p, n, k), _word_gid(prefix, w)),)))
    return GradedModulePresentation(ell_ring(p), gens, rels)


def tn_top_degree(p: int, n: int) -> int:
    """Largest degree in which T_n is nonzero."""
    word = TorsionWord((p - 1,) * n, p)
    return g_word_degree(p, n, word) + (2 * p - 2) * (kill_exponent(p, n, n) - 1)


# -- the torsion-free chains F and F' ----------------------------------------------


def _divided_chain(ring: RingSpec, gid: str, label: str, degree,
                   window: int) -> GradedModulePresentation:
    """Z on g_k in each degree degree(k) <= window, with p g_k = v^e g_(k-1)
    where e |v| = degree(k) - degree(k-1); `gid` and `label` are formatted
    with k."""
    gens = []
    k = 0
    while degree(k) <= window:
        gens.append(Generator(gid.format(k), degree(k), label.format(k)))
        k += 1
    rels = [Relation(((ring.p, 0, gid.format(j)),
                      (-1, (degree(j) - degree(j - 1)) // ring.v_degree, gid.format(j - 1))))
            for j in range(1, k)]
    return GradedModulePresentation(ring, gens, rels, window + 1)


def chain_extension(p: int, k: int) -> tuple[str, int, str, int, int]:
    """F's relation p phi_(k+1) = v^(p^(k+1)) phi_k on the v-tower's classes.

    a_(p^k), of order p^(k+1), carries phi_(k+1) suspended by l1, so the
    relation reads p * (p^k a_(p^k)) = p^c v^e t; returned as
    (a_(p^k), p^k, t, e, c) with t = a_(p^(k-1)), or l1 for k = 0.
    """
    if k == 0:
        return "a1", 1, "l1", p, 0
    return f"a{p**k}", p**k, f"a{p ** (k - 1)}", p ** (k + 1), k - 1


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
    """Integral answer for l: the unit, the divided chain phi_k on
    lambda_1 (degree 2p-1 + 2(p-1)(p + ... + p^k)) and the torsion blocks."""
    p = ctx.p
    ring = ell_ring(p)
    unit = [] if reduced else [GradedModulePresentation(ring, [Generator("iota", 0, "iota")], [])]
    chain = _divided_chain(ring, "F:phi{}", "phi{}*l1",
                           lambda k: 2 * p - 1 + 2 * (p - 1) * staircase_sum(p, k), window)
    blocks = [build_Tn(ctx, n, prefix=f"T[{n},{k}]:").suspend(shift)
              for n, k, shift in torsion_block_shifts(p, window)]
    return GradedModulePresentation.direct_sum(unit + [chain] + blocks)


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
    """Yield the k(1)-answer's module generators in degrees <= window as
    (family, n, m, degree, r(n)): x_{n,m} and x'_{n,m} for m not congruent
    to p-1 mod p, by n, then m, with x before x'.  |x'_{n,m}| > |x_{n,m}|,
    so the x degree bounds both loops."""
    n = 1
    while x_degree(p, n, 0) <= window:
        r = r_truncation(p, n)
        m = 0
        while (d := x_degree(p, n, m)) <= window:
            if m % p != p - 1:
                yield "x", n, m, d, r
                d_prime = x_prime_degree(p, n, m)
                if d_prime <= window:
                    yield "x'", n, m, d_prime, r
            m += 1
        n += 1


def thh_ell_k1(ctx: PrimeContext, window: int, reduced: bool = True) -> GradedModulePresentation:
    """F_p[v]-module answer with coefficients in the first connective Morava theory."""
    p = ctx.p
    gens = []
    if not reduced:
        gens.append(Generator("one", 0, "1"))
    truncations = []
    for family, n, m, d, r in k1_generators(p, window):
        gid = f"{family}[{n},{m}]"
        gens.append(Generator(gid, d, f"{family}({n},{m})"))
        truncations.append(Relation(((1, r, gid),)))
    rels = [Relation(((p, 0, g.gid),)) for g in gens] + truncations
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
    """The v-multiples in the desuspended level-n torsion module, stated directly.

    Generators h_w = v g_w in degree |g_w| for the words w of W' (e and the
    words ending in 1, in `bprime_words` order), relabeled b'_m through the
    word dictionary.  The relations are T_n's two families (`build_Tn`)
    times v, so each g-exponent is an h-exponent:

    - rewriting: for u in W' and i >= 1,
      g_(u0^i) = 2^i g_u - 2^(i-1) v^s(u) g_parent(u), s = `parent_exponent`,
      with the parent term only when u ends in 1, rewritten the same way;
    - order: T_n's p-relation for x = w0^(n-k), k = |w|, has no child term
      and reads 2 g_x - [k = n] v^s(w) g_parent(w) = 0, which is the
      rewriting of g_(w0^(n-k+1)) = 0;
    - kill: v^(K(k+j) - 1) g_(w0^j) = 0 for j = 0..n-k, K = `kill_exponent`.

    So h_w owns n - k + 2 relations, 3 2^n - 1 in all.  Each has the owner's
    coefficient negative and its terms in generator order, and they are
    sorted by (degree, owner's place in W'): term for term the presentation
    that the slice-by-slice search `graded.submodule_presentation` finds for
    the submodule of T_n spanned by the v g_w, which the tests keep as the
    oracle.
    """
    words = bprime_words(n)
    gens = [Generator(bprime_gid(m), g_word_degree(2, n, w), f"b'{m}") for m, w in words]
    place = {w.digits: i for i, (_, w) in enumerate(words)}

    def rewrite(x: tuple[int, ...], coeff: int, e: int):
        """coeff v^e g_x as (coefficient, v-exponent, place in W') terms, owner first."""
        u = x
        while u[-1:] == (0,):
            u = u[:-1]
        i = len(x) - len(u)
        terms = [(coeff * 2**i, e, place[u])]
        if i and u:
            terms += rewrite(u[:-1], -coeff * 2 ** (i - 1), e + parent_exponent(2, n, len(u)))
        return terms

    owned = []
    for owner, (_, w) in enumerate(words):
        k = len(w)
        exponents = [kill_exponent(2, n, k + j) - 1 for j in range(n - k + 1)] + [0]
        for j, e in enumerate(exponents):
            owned.append((gens[owner].degree + 2 * e, owner,
                          sorted(rewrite(w.digits + (0,) * j, -1, e), key=lambda t: t[2])))
    owned.sort(key=lambda r: r[:2])
    rels = [Relation(tuple((c, e, gens[i].gid) for c, e, i in terms)) for _, _, terms in owned]
    return GradedModulePresentation(ell_ring(2), gens, rels)


def ko_levels(window: int, first: int) -> range:
    """The levels n >= first with 2^(n+3) + 4 <= window: the ko-side blocks,
    suspended by 2^(n+3) + 4, that start inside the window."""
    return range(first, max(window - 4, 0).bit_length() - 3)


def thh_ko_ku(window: int, reduced: bool = True) -> GradedModulePresentation:
    """Integral answer for ko with connective-ku coefficients (2-local): the
    unit, the divided chain phi'_k on lambda_1' (degree 5, then
    2^(k+2) - 1) and the blocks T'_n."""
    unit = [] if reduced else [GradedModulePresentation(KU_RING, [Generator("iota", 0, "iota")], [])]
    chain = _divided_chain(KU_RING, "F':phi{}", "phi'{}*l1'",
                           lambda k: max(5, 2 ** (k + 2) - 1), window)
    blocks = [build_Tn_prime(n).suspend(2 ** (n + 3) + 4) for n in ko_levels(window, 0)]
    return GradedModulePresentation.direct_sum(unit + [chain] + blocks)


# -- ko torsion pieces -----------------------------------------------------------


def build_Ttilde(n: int, prefix: str) -> GradedModulePresentation:
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


def build_Tnko(n: int) -> GradedModulePresentation:
    """Level-n ko torsion block: nested truncated pieces, each suspended by
    its shift beside its degreewise dual, whose top class sits in degree
    2^(n+3) - 10 - shift."""
    if n < 1:
        raise ValueError("level must be >= 1")
    top = 2 ** (n + 3) - 10
    pieces = [(f"k{k}.", nu(2, k) + 1, 16 * k) for k in range(1, 2 ** (n - 1))]
    parts = []
    for tag, m, shift in pieces + [("main.", n, 0)]:
        tt = build_Ttilde(m, prefix=f"ko{n}:{tag}")
        parts.append(tt.suspend(shift))
        parts.append(tt.dual(0, ttilde_top_degree(m), prefix=f"ko{n}:{tag}D").suspend(top - shift))
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


def ko_hidden_extension(n: int, k: int) -> tuple[int, int, int]:
    """(degree, i, e) for 2 * (v^k * level-n bottom dual class) = eta*u_i,
    k <= `ttilde_top_degree(n)` / 4; on the ku side the class is v^e b'_(2^n)."""
    return 3 * 2 ** (n + 2) + 2 + 4 * k, 3 * 2**n - 1 + k, 2 ** (n + 1) - 1 + 2 * k


def thh_ko(window: int, reduced: bool = True) -> GradedModulePresentation:
    """Integral 2-local answer for ko, with the hidden multiplications by 2.

    In the level-n block's top dual piece the order relations are not zero but
    land on the eta classes of the suspended torsion-free part.
    """
    unit = [] if reduced else [_ko_coefficients(window)]
    chain = build_Fko(window - 5).suspend(5)
    blocks = [build_Tnko(n).suspend(2 ** (n + 3) + 4) for n in ko_levels(window, 1)]
    parts = unit + [chain] + blocks
    gens = [g for part in parts for g in part.generators.values()]
    # replace the pure order relations of each main dual piece with hidden
    # extensions: 2 * (v^k * bottom dual class) = eta*u_i
    hidden = {}
    for n in ko_levels(window, 1):
        top = ttilde_top_degree(n)
        for k in range(top // 4, -1, -1):
            _, i, _ = ko_hidden_extension(n, k)
            hidden[f"ko{n}:main.D[{top - 4 * k},0]"] = f"Fko:eu{i}"
    rels, orders = [], {}
    for rel in (rel for part in parts for rel in part.relations):
        (order, e, gid), *rest = rel.terms
        if not rest and e == 0 and gid in hidden:
            orders[gid] = order
        else:
            rels.append(rel)
    for gid, target in hidden.items():
        onto = ((-1, 0, target),) if target in chain.generators else ()
        rels.append(Relation(((orders[gid], 0, gid),) + onto))
    bound = min(part.complete_below for part in parts if part.complete_below is not None)
    return GradedModulePresentation(ko_ring(), gens, rels, bound)


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
