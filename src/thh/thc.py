"""Hochschild-cohomology side: divided-power combinatorics and the cap action.

The cohomology classes are modeled numerically: a divided-power class is just
its index k (gamma_k of the degree-2p^2 primitive), the cap product is a
symbolic operator on the a/b-class indexing with a binomial coefficient whose
p-valuation comes from Kummer's carry count, and the "answer" groups are
per-degree (free rank, torsion) tables dual to the homology answers.
"""
from __future__ import annotations

from typing import NamedTuple

from .closed_forms import hidden_extension, thh_ell_HZ
from .padic import (PrimeContext, a_degree, b_degree, binom_valuation, nu,
                    staircase_sum)
from .verify import Check, agree


def dp_degree(p: int, k: int) -> int:
    """|gamma_k| = 2 p^2 k (cohomological)."""
    return 2 * p * p * k


def dp_multiply(ctx: PrimeContext, i: int, j: int) -> tuple[int, int]:
    """gamma_i * gamma_j = C(i+j, i) gamma_{i+j}; returns (valuation, i+j)."""
    if i < 0 or j < 0:
        raise ValueError("divided-power indices must be >= 0")
    return binom_valuation(ctx.p, i, j), i + j


class CapResult(NamedTuple):
    """Outcome of capping gamma_k against a_n or b_n."""

    family: str
    index: int
    valuation: int


def cap(ctx: PrimeContext, k: int, family: str, n: int) -> CapResult:
    """gamma_k cap (a_n or b_n) = C(n-1, k) times the index-(n-k) class."""
    if family not in ("a", "b"):
        raise ValueError(f"unknown class family {family!r}")
    if not 0 <= k < n:
        raise ValueError("cap needs 0 <= k < n")
    return CapResult(family, n - k, binom_valuation(ctx.p, k, n - 1 - k))


# -- mod-p and relative answers --------------------------------------------------


def thc_ell_HFp_dims(ctx: PrimeContext, window: int) -> dict[int, int]:
    """Per-degree dimensions of E(x_{2p-1}, x_{2p^2-1}) (x) Gamma(c_1)."""
    p = ctx.p
    dims: dict[int, int] = {}
    k = 0
    while dp_degree(p, k) <= window:
        for e1 in (0, 1):
            for e2 in (0, 1):
                d = dp_degree(p, k) + e1 * (2 * p - 1) + e2 * (2 * p * p - 1)
                if d <= window:
                    dims[d] = dims.get(d, 0) + 1
        k += 1
    return dims


# -- the integral-coefficient answer ---------------------------------------------


def thc_ell_HZ(ctx: PrimeContext, window: int) -> dict[int, tuple[int, list[int]]]:
    """Per-degree (free rank, torsion orders) of E(x) (x) Gamma(c_1)/(p c_1).

    Basis: 1 and x_{2p-1} span free summands; c_k has order p^(nu_p(k)+1) in
    degree 2 p^2 k; x c_k has the same order one degree 2p-1 higher.
    """
    p = ctx.p
    out: dict[int, tuple[int, list[int]]] = {}

    def add(d, rank, tors):
        r, t = out.get(d, (0, []))
        out[d] = (r + rank, sorted(t + tors))

    if window >= 0:
        add(0, 1, [])
    if 2 * p - 1 <= window:
        add(2 * p - 1, 1, [])
    k = 1
    while dp_degree(p, k) <= window:
        order = p ** (nu(p, k) + 1)
        add(dp_degree(p, k), 0, [order])
        if dp_degree(p, k) + 2 * p - 1 <= window:
            add(dp_degree(p, k) + 2 * p - 1, 0, [order])
        k += 1
    return out


def thh_ell_HZ_mirror(ctx: PrimeContext, window: int) -> dict[int, tuple[int, list[int]]]:
    """Hom/Ext dual of the integral-HZ homology answer, degree by degree.

    Free summands dualize in place; a torsion summand in degree d contributes
    to the dual in degree d + 1.
    """
    mod = thh_ell_HZ(ctx, window, reduced=False)
    out: dict[int, tuple[int, list[int]]] = {}
    for d in range(window + 1):
        rank, _ = mod.group_at(d)
        _, tors = mod.group_at(d - 1) if d >= 1 else (0, [])
        if rank or tors:
            out[d] = (rank, sorted(tors))
    return out


# -- unit claims consumed by the differential and extension arguments ------------


def unit_check_suite(ctx: PrimeContext, window: int) -> list[Check]:
    """Every binomial-valuation claim the capping arguments rely on, in range,
    and last the closure of the tower rules under cap transport.

    The ranges are bounded by requiring the classes involved to live below
    `window` in homological degree.  A claim's expected value is what the
    argument needs; the extension valuations expect the `c` of the declared
    `closed_forms.hidden_extension`, or 0 where none is declared.
    """
    p = ctx.p
    checks: list[Check] = []

    def claim(name, params, expected, k, family, n):
        """The claim that gamma_k cap (family)_n carries `expected` p's."""
        checks.append(agree(name, params, expected, cap(ctx, k, family, n).valuation))

    # transporting the tower differential from a_{p^n} to a_{jp^n}
    n = 1
    while a_degree(p, p**n) <= window:
        j = 2
        while a_degree(p, j * p**n) <= window:
            claim("tower-transport", (n, j), 0, (j - 1) * p**n, "a", j * p**n)
            j += 1
        n += 1
    # capping down from a_{jp^n} to a_{kp^{n-1}}, k = jp - k'
    n = 1
    while a_degree(p, p**n) <= window:
        j = 1
        while a_degree(p, j * p**n) <= window:
            for kp in range(1, p):
                k = j * p - kp
                claim("tower-cap-source", (n, j, kp), 0, kp * p ** (n - 1), "a", j * p**n)
                if k > 1:
                    claim("tower-cap-target", (n, j, kp), nu(p, k - 1),
                          kp * p ** (n - 1), "a", (j * p - 1) * p ** (n - 1))
                else:
                    checks.append(agree("tower-cap-target", (n, j, kp), 0, 0))
            j += 1
        n += 1
    # torsion-block comparison isomorphisms
    n = 0
    while b_degree(p, p ** (n + 1) - 1) <= window:
        for j in range(1, p - 1):
            for i in range((p - 1) * p**n, p ** (n + 1)):
                claim("block-isomorphism", (n, j, i), 0, j * p**n, "b", i)
        n += 1
    # capping the hidden p-extensions down the block
    n = 1
    while b_degree(p, 2 * p**n - 1) <= window:
        for m in range(p**n, 2 * p**n):
            k = nu(p, m)
            top = 2 * p**n - p**k
            claim("extension-cap", (n, m), 0, top - m, "b", top)
            # m = p^n is the one index of the level with no m2 >= 1
            if m != p**n and top - m <= 2 * p**n - p ** (k + 1) - 1:
                ext = hidden_extension(p, m)
                claim("extension-valuation", (n, m), ext[2] if ext else 0,
                      top - m, "b", 2 * p**n - p ** (k + 1))
        n += 1
    # every cap against the top-of-block class b_{p^j} is a unit
    j = 1
    while b_degree(p, p**j) <= window:
        for k in range(p**j):
            claim("top-block-cap", (j, k), 0, k, "b", p**j)
        j += 1
    extra = naturality_closure(ctx, window)
    checks.append(Check("naturality-closure", window, not extra, (len(extra),)))
    return checks


# -- naturality closure of the tower differentials -------------------------------


def tower_rule_set(ctx: PrimeContext, window: int) -> set[tuple[int, int, int, int]]:
    """(page, source index, target index, coefficient valuation) of every
    tower differential with source in the window; `ss.v1_tower_setup` runs
    exactly these."""
    p = ctx.p
    rules = set()
    n = 1
    while a_degree(p, p ** (n - 1) * 2) <= window + 1:
        page = staircase_sum(p, n)
        k = 2
        while a_degree(p, k * p ** (n - 1)) <= window + 1:
            rules.add((page, k * p ** (n - 1), (k - 1) * p ** (n - 1), nu(p, k - 1)))
            k += 1
        n += 1
    return rules


def naturality_closure(ctx: PrimeContext, window: int) -> list[tuple]:
    """Cap-transport every tower rule and report transports that leave the set.

    Capping a rule's source a_K with gamma_{j s} (s the index step of the
    rule's level) moves both the source and the target down by j s; the
    transported statement must again be a rule on the books.
    """
    p = ctx.p
    rules = tower_rule_set(ctx, window)
    indexed = {(page, src): (tgt, val) for page, src, tgt, val in rules}
    missing = []
    for page, src, tgt, _val in rules:
        step = src - tgt
        j = 1
        while src - j * step > step:
            moved = (page, src - j * step)
            if moved not in indexed or indexed[moved][0] != tgt - j * step:
                missing.append((page, src, j))
            j += 1
    return missing


# -- valuation identities --------------------------------------------------------


def cap_associativity_defect(ctx: PrimeContext, n: int, i: int, j: int) -> int:
    """Valuation mismatch between capping twice and capping once.

    Capping a_n with gamma_i then gamma_j costs nu C(n-1, i) + nu C(n-1-i, j),
    while capping with the product gamma_i gamma_j costs the dp structure
    constant plus nu C(n-1, i+j); the two are equal exactly (an integer
    identity on binomials), so the defect is always zero.
    """
    p = ctx.p
    twice = (binom_valuation(p, i, n - 1 - i) +
             binom_valuation(p, j, n - 1 - i - j))
    once = (dp_multiply(ctx, i, j)[0] +
            binom_valuation(p, i + j, n - 1 - i - j))
    return twice - once
