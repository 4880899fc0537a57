"""p-adic valuations, truncation lengths, and degree bookkeeping for the named classes."""
from __future__ import annotations

from typing import NamedTuple


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeContext(NamedTuple("PrimeContext", [("p", int)])):
    """A prime p; construction raises ValueError unless p is prime."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        return super().__new__(cls, p)


class TorsionWord(NamedTuple("TorsionWord", [("digits", tuple[int, ...]), ("p", int)])):
    """A finite string of base-p digits indexing a torsion-module generator.

    `len` is the number of digits, not of fields, so `_make` and `_replace`,
    which check the field count through `len`, do not apply."""

    __slots__ = ()

    def __new__(cls, digits: tuple[int, ...], p: int):
        if any(d < 0 or d >= p for d in digits):
            raise ValueError(f"digits must lie in [0, {p}): {digits}")
        return super().__new__(cls, digits, p)

    def __len__(self) -> int:
        return len(self.digits)

    def label(self) -> str:
        # digits past 9 take two characters; the separator only where they
        # occur keeps every id at p <= 7 as it was
        sep = "." if self.p > 10 else ""
        return "g_" + (sep.join(map(str, self.digits)) or "e")


def nu(p: int, m: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if m == 0:
        raise ValueError("nu(p, 0) is undefined")
    m = abs(m)
    out = 0
    while m % p == 0:
        m //= p
        out += 1
    return out


def binom_valuation(p: int, a: int, b: int) -> int:
    """nu_p(C(a+b, a)) as the number of carries when adding a and b in base p."""
    if a < 0 or b < 0:
        raise ValueError("binom_valuation needs a, b >= 0")
    carries = 0
    carry = 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def r_truncation(p: int, n: int) -> int:
    """Truncation length r(n): r(1) = p, r(2) = p^2, r(n) = p^n + r(n-2)."""
    if n < 1:
        raise ValueError("r(n) needs n >= 1")
    if n == 1:
        return p
    if n == 2:
        return p * p
    return p**n + r_truncation(p, n - 2)


def staircase_sum(p: int, k: int) -> int:
    """p + p^2 + ... + p^k (0 for k = 0)."""
    return sum(p**j for j in range(1, k + 1))


# -- degrees of the named classes ------------------------------------------------


def lambda_degree(p: int, n: int) -> int:
    """|lambda_n|; lambda_1, lambda_2 are primitives, higher ones mu-power translates."""
    if n < 1:
        raise ValueError("lambda_n needs n >= 1")
    if n == 1:
        return 2 * p - 1
    if n == 2:
        return 2 * p * p - 1
    return lambda_degree(p, n - 2) + 2 * p ** (n - 1) * (p - 1)


def mu_degree(p: int) -> int:
    return 2 * p * p


def lambda_monomial(p: int, n: int) -> tuple[int, int, int]:
    """lambda_n as a monomial (eps_1, eps_2, mu-exponent) in E(l1, l2) (x) P(mu)."""
    if n == 1:
        return (1, 0, 0)
    if n == 2:
        return (0, 1, 0)
    e1, e2, mu = lambda_monomial(p, n - 2)
    return (e1, e2, mu + p ** (n - 3) * (p - 1))


def x_degree(p: int, n: int, m: int) -> int:
    """|x_{n,m}| = |lambda_n| + 2 m p^(n+1)."""
    return lambda_degree(p, n) + 2 * m * p ** (n + 1)


def x_prime_degree(p: int, n: int, m: int) -> int:
    """|x'_{n,m}| = 2(p-1) + 2(m+1) p^(n+1)."""
    return 2 * (p - 1) + 2 * (m + 1) * p ** (n + 1)


def a_degree(p: int, i: int) -> int:
    """|a_i| = 2 p^2 i - 1."""
    return 2 * p * p * i - 1


def b_degree(p: int, i: int) -> int:
    """|b_i| = 2 p^2 i + 2(p - 1)."""
    return 2 * p * p * i + 2 * (p - 1)


def g_word_degree(p: int, n: int, word: TorsionWord) -> int:
    """|g_w| = 2 p^2 * (a_1 p^(n-1) + ... + a_k p^(n-k))."""
    if len(word) > n:
        raise ValueError("word longer than the module level")
    return 2 * p * p * sum(a * p ** (n - 1 - t) for t, a in enumerate(word.digits))


def all_words(p: int, n: int) -> list[TorsionWord]:
    """All digit strings of length <= n, shortest first, lexicographic within a length."""
    out = [TorsionWord((), p)]
    layer = [()]
    for _ in range(n):
        layer = [w + (d,) for w in layer for d in range(p)]
        out.extend(TorsionWord(w, p) for w in layer)
    return out
