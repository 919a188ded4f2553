"""The generating functions the enumeration oracles are checked against,
built exactly over the integers and truncated at q^qmax.

Coefficients are plain Python ints, so nothing overflows no matter the
truncation order.  The kernels multiply by (1 +- q^e) and divide by
(1 - q^e) or (1 + q^e) in place, with slice operations that run in C.

The multi-sum and the companion are built as incremental walks over their
index tuples: neighbouring terms differ by a few q-factors, so each index
step costs O(1) kernel calls on a running series instead of rebuilding the
term from 1.  The running series is kept over its valuation and cut to the
budget that is left under qmax.  Truncation to q^L is a ring map onto
Z[q]/(q^L) and every divisor has constant term 1, so cutting a series
shorter before the next factor keeps every step exact.  The companion
tracks the length-counting variable x as rows, rows[d] the q-series of
x^d; the x^d part starts at q^(d^2), so only rows with d^2 under the
budget are kept.  `BivariateSeries` stores the result with the coefficient
of q^n as a sparse integer polynomial in x.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import add, sub
from typing import Sequence

from .errors import require_nonnegative
from .membership import BressoudParams

# -- list kernels (coefficients c[0..qmax]) -----------------------------


def _mul_one_plus(c: list[int], e: int, sign: int = 1) -> None:
    """c *= (1 + sign*q^e), exactly, in place."""
    # the slice c[e:] is a copy, so every term reads the old c[n - e]
    c[e:] = map(add if sign > 0 else sub, c[e:], c)


def _div_one_minus(c: list[int], e: int) -> None:
    """c *= 1/(1 - q^e), exactly, in place: a running sum along each residue
    class mod e, taken class by class when e is small and block by block
    when it is large, so neither form loops more than sqrt(len(c)) times."""
    if e <= 0:
        raise ValueError(f"geometric divisor needs a positive exponent, got {e}")
    n = len(c)
    if e * e < n:
        for s in range(e):
            c[s::e] = accumulate(c[s::e])
    else:
        for s in range(e, n, e):
            c[s : s + e] = map(add, c[s : s + e], c[s - e : s])


def _div_one_plus(c: list[int], e: int) -> None:
    """c *= 1/(1 + q^e) = (1 - q^e)/(1 - q^(2e)), exactly, in place."""
    _mul_one_plus(c, e, -1)
    _div_one_minus(c, 2 * e)


class TruncatedSeries:
    """Power series known exactly through q^qmax."""

    __slots__ = ("qmax", "coeffs")

    def __init__(self, coeffs: Sequence[int], qmax: int):
        require_nonnegative(qmax=qmax)
        c = list(coeffs[: qmax + 1]) + [0] * max(0, qmax + 1 - len(coeffs))
        self.qmax = qmax
        self.coeffs = tuple(int(x) for x in c)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.qmax:
            raise IndexError(f"coefficient {n} beyond truncation order {self.qmax}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.qmax == other.qmax and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.qmax >= 8 else ""
        return f"TruncatedSeries(qmax={self.qmax}, [{head}{tail}])"


# -- bivariate ----------------------------------------------------------


class BivariateSeries:
    """Series in q (truncated) whose q^n coefficient is a polynomial in x."""

    __slots__ = ("qmax", "coeffs")

    def __init__(self, coeffs: Sequence[dict], qmax: int):
        require_nonnegative(qmax=qmax)
        cs = [dict(coeffs[n]) if n < len(coeffs) else {} for n in range(qmax + 1)]
        self.qmax = qmax
        self.coeffs = tuple(
            {d: v for d, v in c.items() if v} for c in cs
        )

    def at_x1(self) -> TruncatedSeries:
        return TruncatedSeries([sum(c.values()) for c in self.coeffs], self.qmax)


# -- the four generating-function constructions -------------------------


def _tuple_min_exponent(params: BressoudParams, values: list[int]) -> int:
    """Valuation of one multi-sum term: quadratic prefactor minus the shift
    absorbed from the negative-exponent finite products."""
    eta = params.eta
    base = eta * sum(v * v for v in values) + eta * sum(values[params.r - 1 :])
    neg = 0
    for s, a in enumerate(params.alphas, start=1):
        ns = values[s - 1]
        neg += a * ns + eta * (ns * (ns - 1)) // 2
    return base - neg


def bressoud_multisum(params: BressoudParams, qmax: int) -> TruncatedSeries:
    """The multi-sum generating function, summed over all index tuples whose
    term valuation fits under qmax.

    A depth-first walk over N_1 >= ... >= N_(k-1): level i holds the term
    with values[:i+1] fixed and the rest zero, over its valuation, and
    stepping values[i] from v-1 to v changes at most four of its factors.
    """
    require_nonnegative(qmax=qmax)
    eta, k, alphas, lam = params.eta, params.k, params.alphas, params.lam
    if k < 2:
        raise ValueError(f"multi-sum needs k >= 2, got k={k}")
    if lam > k - 1:
        raise ValueError(f"needs lambda <= k-1, got lambda={lam}, k={k}")
    total = [0] * (qmax + 1)
    values: list[int] = [0] * (k - 1)

    def walk(i: int, c: list[int], base: int) -> None:
        v = 0
        while True:
            if i == k - 2:
                total[base:] = map(add, total[base:], c)
            else:
                walk(i + 1, c[:], base)
            if i and v == values[i - 1]:
                break
            v += 1
            values[i] = v
            base = _tuple_min_exponent(params, values)
            if base > qmax:
                break
            del c[qmax - base + 1 :]
            if i:  # 1/(q^eta;q^eta)_(N_i - v) lost its top factor
                _mul_one_plus(c, eta * (values[i - 1] - v + 1), -1)
            _div_one_minus(c, eta * v)
            if i < lam:
                _mul_one_plus(c, alphas[i] + eta * (v - 1))
            if i + 1 < lam:  # the infinite product now starts one factor later
                _div_one_plus(c, eta - alphas[i + 1] + eta * (v - 1))
        values[i] = 0

    root = [1] + [0] * qmax
    for a in alphas[1:]:
        for e in range(eta - a, qmax + 1, eta):
            _mul_one_plus(root, e)
    walk(0, root, 0)
    return TruncatedSeries(total, qmax)


def bressoud_product(params: BressoudParams, qmax: int) -> TruncatedSeries:
    """The infinite-product generating function.

    The triple-product exponents are half-integers when lambda is odd, so the
    whole computation runs on a doubled exponent grid and is halved at the
    end; a coefficient landing on an odd doubled exponent is an error.
    """
    require_nonnegative(qmax=qmax)
    eta, k, r, lam = params.eta, params.k, params.r, params.lam
    Q = 2 * qmax
    c = [1] + [0] * Q
    for a in params.alphas:
        e = 2 * a
        while e <= Q:
            _mul_one_plus(c, e)
            e += 2 * eta
    mod2 = eta * (2 * (2 * k - lam + 1))
    for start in (eta * (2 * r - lam), eta * (4 * k - 2 * r - lam + 2), mod2):
        if start < 0:
            raise ValueError(f"triple-product exponent {start/2} negative; invalid parameters")
        e = start
        while e <= Q:
            _mul_one_plus(c, e, -1)
            e += mod2
    e = 2 * eta
    while e <= Q:
        _div_one_minus(c, e)
        e += 2 * eta
    out = [0] * (qmax + 1)
    for n2, v in enumerate(c):
        if not v:
            continue
        if n2 % 2:
            raise ValueError(f"fractional exponent {n2}/2 survived in the product")
        out[n2 // 2] = v
    return TruncatedSeries(out, qmax)


def gg_companion_bivariate(qmax: int) -> BivariateSeries:
    """Length-refined generating function of the eta=2, k=r=3 family:
    sum over N1 >= N2 >= 0 of
    q^(2(N1^2+N2^2)) * x^(N1+N2) * prod(1 + x q^(1+2N2+2i)) /
    ((q^2;q^2)_(N1-N2) (q^2;q^2)_(N2)).

    Series in x are held as rows, rows[d] the q-list of x^d; the x^d part
    of the product starts at q^(d^2), so only rows with d^2 < len are kept.
    """
    require_nonnegative(qmax=qmax)

    def trim(rows: list[list[int]], length: int) -> list[list[int]]:
        rows = rows[: isqrt(length - 1) + 1]
        for row in rows:
            del row[length:]
        return rows

    totals: list[list[int]] = []
    rows = [[1] + [0] * qmax] + [[0] * (qmax + 1) for _ in range(isqrt(qmax))]
    for e in range(1, qmax + 1, 2):
        for d in range(len(rows) - 1, 0, -1):
            rows[d][e:] = map(add, rows[d][e:], rows[d - 1])
    n2 = 0
    while 4 * n2 * n2 <= qmax:
        if n2:  # prod(1 + x q^(1+2N2+2i)) / (q^2;q^2)_(N2) from its N2-1 value
            rows = trim(rows, qmax - 4 * n2 * n2 + 1)
            for d in range(1, len(rows)):
                rows[d][2 * n2 - 1 :] = map(sub, rows[d][2 * n2 - 1 :], rows[d - 1])
            for row in rows:
                _div_one_minus(row, 2 * n2)
        term = [row[:] for row in rows]
        n1 = n2
        while True:
            base = 2 * (n1 * n1 + n2 * n2)
            for d, row in enumerate(term, start=n1 + n2):
                while len(totals) <= d:
                    totals.append([0] * (qmax + 1))
                totals[d][base:] = map(add, totals[d][base:], row)
            n1 += 1
            if 2 * (n1 * n1 + n2 * n2) > qmax:
                break
            term = trim(term, qmax - 2 * (n1 * n1 + n2 * n2) + 1)
            for row in term:
                _div_one_minus(row, 2 * (n1 - n2))
        n2 += 1
    coeffs: list[dict] = [{} for _ in range(qmax + 1)]
    for d, row in enumerate(totals):
        for n, v in enumerate(row):
            if v:
                coeffs[n][d] = v
    return BivariateSeries(coeffs, qmax)


def kursungoz_cell(counts: Sequence[int], r: int, qmax: int) -> TruncatedSeries:
    """Generating function of one marking cell (fixed row counts):
    q^(2(sum N_i^2 + N_r + ... + N_(k-1))) / prod (q^2;q^2)-factors.
    Every member of the cell has sum N_i parts."""
    require_nonnegative(qmax=qmax)
    counts = tuple(int(v) for v in counts)
    if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)) or any(
        v < 0 for v in counts
    ):
        raise ValueError(f"row counts must be non-increasing and >= 0, got {counts}")
    k = len(counts) + 1
    if not (k >= 2 and k >= r >= 1):
        raise ValueError(f"cell needs k >= 2 and k >= r >= 1, got k={k}, r={r}")
    base = 2 * (sum(v * v for v in counts) + sum(counts[r - 1 :]))
    if base > qmax:
        return TruncatedSeries([0] * (qmax + 1), qmax)
    budget = qmax - base
    c = [1] + [0] * budget
    diffs = [counts[i] - counts[i + 1] for i in range(k - 2)] + [counts[k - 2]]
    for d in diffs:
        for jj in range(1, d + 1):
            if 2 * jj <= budget:
                _div_one_minus(c, 2 * jj)
    return TruncatedSeries([0] * base + c, qmax)
