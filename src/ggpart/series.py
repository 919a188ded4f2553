"""The generating functions the enumeration oracles are checked against,
built exactly over the integers and truncated at q^qmax.

Coefficients are plain Python ints, so nothing overflows no matter the
truncation order.  The kernels multiply by (1 +- q^e) and divide by
(1 - q^e) or (1 + q^e) in place, with slice operations that run in C.

Both sum sides come from one incremental walk over the multi-sum's index
tuples (`_terms`): neighbouring terms differ by a few q-factors, so each
index step costs O(1) kernel calls on a running series instead of
rebuilding the term from 1.  The running series is kept over its valuation
and cut to the budget that is left under qmax.  Truncation to q^L is a ring
map onto Z[q]/(q^L) and every divisor has constant term 1, so cutting a
series shorter before the next factor keeps every step exact.  The walk
holds rows, rows[d] the q-series of x^d with x counting parts: the
multi-sum is one row, and the companion is the even family's multi-sum
times its floating odd product (-x q^(1+2N_2); q^2)_inf, whose x^d part
starts at q^(d^2).  `BivariateSeries` stores the result with the
coefficient of q^n as a sparse integer polynomial in x.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import add, sub
from typing import Sequence

from .errors import integers, require_nonnegative
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
        self.coeffs = integers("coefficient", c)

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


def _tuple_min_exponent(params: BressoudParams, values: Sequence[int]) -> int:
    """Valuation of one multi-sum term: quadratic prefactor minus the shift
    absorbed from the negative-exponent finite products."""
    eta = params.eta
    base = eta * sum(v * v for v in values) + eta * sum(values[params.r - 1 :])
    neg = 0
    for s, a in enumerate(params.alphas, start=1):
        ns = values[s - 1]
        neg += a * ns + eta * (ns * (ns - 1)) // 2
    return base - neg


def _terms(params: BressoudParams, qmax: int, rows: list[list[int]], floor=None):
    """Yield (valuation, N_1 + ... + N_(k-1), rows) for each multi-sum term
    whose valuation fits under qmax: rows[d] is the q-list of x^d of the
    term over its valuation, times the series the rows started as.  The
    rows yielded are the walk's own, good until the next step.

    A depth-first walk over the gaps g_i = N_i - N_(i+1) (N_k = 0), the last
    gap outermost.  A step of g_i comes with every inner gap zero, so it
    raises N_1 = ... = N_i together to n and changes 1/(q^eta;q^eta)_(g_i),
    their finite products and the infinite products that start at them.
    floor(rows, n), if given, moves a product floating on N_(k-1) to n.
    """
    eta, k, alphas, lam = params.eta, params.k, params.alphas, params.lam
    values: list[int] = [0] * (k - 1)
    for a in alphas[1:]:
        for e in range(eta - a, qmax + 1, eta):
            for row in rows:
                _mul_one_plus(row, e)

    def walk(j: int, rows: list[list[int]], base: int):  # steps g_(j+1)
        fins, infs = alphas[: min(j + 1, lam)], alphas[1 : min(j + 2, lam)]
        n = start = values[j]
        while True:
            if j:
                yield from walk(j - 1, [row[:] for row in rows], base)
            else:
                yield base, sum(values), rows
            n += 1
            values[: j + 1] = [n] * (j + 1)
            base = _tuple_min_exponent(params, values)
            if base > qmax:
                break
            length = qmax - base + 1
            del rows[isqrt(length - 1) + 1 :]  # x^d starts at q^(d^2)
            for row in rows:
                del row[length:]
            if floor and j == k - 2:
                floor(rows, n)
            for row in rows:
                _div_one_minus(row, eta * (n - start))
                for a in fins:
                    _mul_one_plus(row, a + eta * (n - 1))
                for a in infs:
                    _div_one_plus(row, eta * n - a)
        values[: j + 1] = [start] * (j + 1)

    yield from walk(k - 2, rows, 0)


def bressoud_multisum(params: BressoudParams, qmax: int) -> TruncatedSeries:
    """The multi-sum generating function, summed over all index tuples whose
    term valuation fits under qmax, as the single row of `_terms`."""
    require_nonnegative(qmax=qmax)
    if params.k < 2:
        raise ValueError(f"multi-sum needs k >= 2, got k={params.k}")
    if params.lam > params.k - 1:
        raise ValueError(f"needs lambda <= k-1, got lambda={params.lam}, k={params.k}")
    total = [0] * (qmax + 1)
    for base, _, (row,) in _terms(params, qmax, [[1] + [0] * qmax]):
        total[base:] = map(add, total[base:], row)
    return TruncatedSeries(total, qmax)


def bressoud_product(params: BressoudParams, qmax: int) -> TruncatedSeries:
    """The infinite-product generating function, with m = eta(2k-lambda+1)
    and a = eta(2r-lambda)/2: prod over the alphas of (-q^alpha; q^eta)_inf,
    times (q^a, q^(m-a), q^m; q^m)_inf / (q^eta; q^eta)_inf.
    When lambda is odd the middle alpha is eta/2, so eta is even and a is an integer."""
    require_nonnegative(qmax=qmax)
    eta, lam = params.eta, params.lam
    m = eta * (2 * params.k - lam + 1)
    a = eta * (2 * params.r - lam) // 2
    c = [1] + [0] * qmax
    for alpha in params.alphas:
        for e in range(alpha, qmax + 1, eta):
            _mul_one_plus(c, e)
    for start in (a, m - a, m):
        for e in range(start, qmax + 1, m):
            _mul_one_plus(c, e, -1)
    for e in range(eta, qmax + 1, eta):
        _div_one_minus(c, e)
    return TruncatedSeries(c, qmax)


def gg_companion_bivariate(qmax: int) -> BivariateSeries:
    """Length-refined generating function of the eta=2, k=r=3 family:
    sum over N1 >= N2 >= 0 of
    q^(2(N1^2+N2^2)) * x^(N1+N2) * prod(1 + x q^(1+2N2+2i)) /
    ((q^2;q^2)_(N1-N2) (q^2;q^2)_(N2)).

    That is the multi-sum of the even family ((), 2, 3, 3) times its odd
    product floating on N2: the walk starts from the rows of
    prod(1 + x q^(2j+1)), and its floor divides out (1 + x q^(2v-1)) when
    N2 reaches v.
    """
    require_nonnegative(qmax=qmax)
    rows = [[1] + [0] * qmax] + [[0] * (qmax + 1) for _ in range(isqrt(qmax))]
    for e in range(1, qmax + 1, 2):
        for d in range(len(rows) - 1, 0, -1):
            rows[d][e:] = map(add, rows[d][e:], rows[d - 1])

    def floor(rows: list[list[int]], v: int) -> None:
        for d in range(1, len(rows)):
            rows[d][2 * v - 1 :] = map(sub, rows[d][2 * v - 1 :], rows[d - 1])

    totals: list[list[int]] = []
    for base, degree, term in _terms(BressoudParams((), 2, 3, 3), qmax, rows, floor):
        for d, row in enumerate(term, start=degree):
            while len(totals) <= d:
                totals.append([0] * (qmax + 1))
            totals[d][base:] = map(add, totals[d][base:], row)
    return BivariateSeries([dict(enumerate(col)) for col in zip(*totals)], qmax)


def kursungoz_cell(counts: Sequence[int], r: int, qmax: int) -> TruncatedSeries:
    """Generating function of one marking cell (fixed row counts):
    q^(2(sum N_i^2 + N_r + ... + N_(k-1))) / prod (q^2;q^2)-factors.
    Every member of the cell has sum N_i parts."""
    require_nonnegative(qmax=qmax)
    counts = integers("row count", counts)
    if list(counts) != sorted(counts, reverse=True) or min(counts, default=0) < 0:
        raise ValueError(f"row counts must be non-increasing and >= 0, got {counts}")
    k = len(counts) + 1
    if not (k >= 2 and k >= r >= 1):
        raise ValueError(f"cell needs k >= 2 and k >= r >= 1, got k={k}, r={r}")
    base = _tuple_min_exponent(BressoudParams((), 2, k, r), counts)
    if base > qmax:
        return TruncatedSeries([0] * (qmax + 1), qmax)
    budget = qmax - base
    c = [1] + [0] * budget
    for hi, lo in zip(counts, counts[1:] + (0,)):  # 1/(q^2;q^2)_(N_i - N_(i+1))
        for jj in range(1, min(hi - lo, budget // 2) + 1):
            _div_one_minus(c, 2 * jj)
    return TruncatedSeries([0] * base + c, qmax)
