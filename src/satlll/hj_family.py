"""The H_j / H'_j graph families, their recurrences, and the threshold curve.

H_j is the lopsidependency graph of the extremal formula of
S_j = sum_{d<j} ((2L-2)(k-1))^d stages, and H'_j its subgraph on clause 0
and the clauses descending from it: the paper's H_{j+1} is a complete
bipartite root K_{L-1,L-1} whose every vertex is wired to the right root
halves of k-1 copies of H_j, and H'_{j+1} a single vertex wired the same
way.  Proof: stage i expands variable i, and variables are numbered in
clause order, so the stages run breadth first and the first S_j expand
the variables of depth below j.  ~x_v lies only in the negative half of
v's stage, and x_v only in its positive half and in the clause that
introduced v.  So each stage's halves form a root K_{L-1,L-1}, a clause's
k-1 fresh positive variables conflict only with the negative (right)
halves of their own stages, and depth-j variables, never expanded, with
nothing.  A clause of stage i >= 2 descends from clause (i-2) // (k-1),
which introduced variable i; clause 0 with its descendants is H'_j.
Their independence-polynomial values at uniform probability p = 2^{-k},

    s_j = Q(H_j),   r_j = Q(H'_j),

obey a mutual recurrence whose normalized form a_j = r_j / s_{j-1}^{k-1}
is a pure first-order iteration a_j = g(a_{j-1}).  Once a_j falls to
2^{-2/(2L-2)} the Shearer condition fails for some H_j, hence for the
lopsidependency graph of any deeper extremal formula, whose first |H_j|
clauses induce H_j.

The threshold curve is ell(t) = 1 - ln(2-t) / ln u(t) with
u(t) = 1 - c t^{1-k}, c = 2^{-k}, on the open domain (2^{-k/(k-1)}, 2),
and F_Shearer(k) = floor(max ell).  It is certified from three facts:

1. Since ln u < 0, ell(t) >= N+1 iff phi_N(t) = ln(2-t) + N ln u(t) >= 0.
   So F_Shearer(k) = max{L : max phi_{L-1} >= 0}, a condition monotone
   in L because phi_{N+1} = phi_N + ln u < phi_N.  L = 1 holds (ell(1) = 1)
   and L = 2^k + 1 fails: ell <= 1 for t >= 1, and for t < 1,
   -ln u > c gives ell < 1 + ln 2 / c.
2. phi_N is concave: ln(2-t) is, and with m = k-1,
   (ln(1 - c t^{-m}))'' = -cm((m+1)t^m - c) / (t^{m+1} - ct)^2 < 0.
   phi_N' has the sign of q_N(t) = N c (k-1)(2-t) + c t - t^k, a rational
   polynomial that for N >= 1 is concave and decreasing, positive at the
   lower end and negative at 2; its one root is the maximizer t*.
3. For dyadic a < b with q_N(a) > 0 >= q_N(b), checked exactly,
   concavity gives max phi_N in [phi_N(a), phi_N(a) + d], where
   d = phi_N'(a)(b-a) and phi_N'(a) = q_N(a) / ((2-a)(a^k - ca)) are
   rational.  As e^{phi_N(a)} = (2-a) u(a)^N, max phi_N >= 0 when
   (2-a) u(a)^N >= 1, and max phi_N < 0 when (2-a) u(a)^N < 1 - d, since
   e^{-d} >= 1 - d.  All of it runs on ints: with a = A/H, b = (A+2)/H,
   H = 2^h and M = N(k-1), Q(X) = (M(2H - X) + X) H^{k-1} - 2^k X^k is
   2^k H^k q_N(X/H), and with D = 2H - A and R = 2^k A^k - A H^{k-1},
   d = 2 Q(A) / (D R).  Q(X) > 0 iff (X/H)^{k-1} < (M(2H - X) + X) / (2^k X),
   and a lies in the domain iff a^{k-1} > 2^{-k}, so each test of the bracket
   compares a^{k-1} or b^{k-1} with a ratio of small ints: it is decided on
   an enclosure of the power at h + 2 bits, and on the exact k h-bit ints
   only where that enclosure straddles the ratio.  u(a)^N, enclosed on the
   integers of fact 6, is compared with 1/(2-a) = H / D and
   (1-d)/(2-a) = (D R - 2 Q(A)) H / (D^2 R) by cross-multiplying, so no
   fraction is normalised.  d falls as a^{k-1} grows, so the second test
   holds wherever it holds with a lower bound of a^{k-1} in Q(A) and R; that
   bound is tried first, and the exact a^{k-1} only after it.  When neither
   test holds, CertificationError is raised.

Substituting t = 2 - a^{-(L-1)} turns the fixed point a = g(a) into
phi_{L-1}(t) = 0, since g(a) = u(2 - a^{-(L-1)}).  So the same certificate
decides the fixed-point verdict:

4. Let N = L-1, t in (0, 1] with phi_N(t) >= 0, and c = (2-t)^{-1/N}.  Then
   g(c) = u(t), and u(t) >= c iff N ln u(t) >= -ln(2-t), i.e. phi_N(t) >= 0.
   t > 0 gives c > 2^{-1/N}, the threshold, and t <= 1 gives c <= 1 = a_0.
   g is increasing, so a_j >= c implies a_{j+1} = g(a_j) >= g(c) >= c: every
   iterate stays above the threshold, and "converged" needs no iteration.

For F_Shearer itself, two probes suffice, however F is guessed:

5. By the monotonicity in fact 1, max phi_{F-1} >= 0 (or F = 1) together with
   max phi_F < 0 proves F_Shearer(k) = F.  An estimate of floor(max ell)
   only picks which two probes; where one disagrees, binary search over the
   rest of [1, 2^k] finishes, so no result depends on the estimate.

When fact 4 finds no witness, the iteration itself decides:

6. With N = L-1, keep a_j in [lo, hi] / 2^P for ints lo <= hi, rounding every
   operation outward (floor for a lower end, ceiling for an upper one).
   While a_{j-1} > 2^{-1/N}, the values a^N, 2 - a^{-N} and its power
   inside g(a) = 1 - 2^{-k} / (2 - a^{-N})^{k-1} are positive and g is
   increasing, so lo_j comes from lo_{j-1} and hi_j from hi_{j-1}.  For a > 0, a <= 2^{-1/N} iff
   a^N <= 1/2, so a^N, which the next step needs anyway, is compared with
   1/2 exactly, and the irrational threshold is never formed.  A negative
   a_j is below the threshold, but its even power need not be: (k, L) =
   (3, 3) falls to -3.05 at step 3.  So hi <= 0 or hi^N <= 1/2 is
   "violated", and the loop goes on only while lo > 0 and lo^N > 1/2.
   Both powers keep P + 2 bits relative to their size, a mantissa and a
   binary exponent.  That matters for (2 - a^{-N})^{k-1}, which is small
   near the threshold: rounded to an absolute 2^{-P}, its 2^{-122} at
   (22, 70990) would vanish at P = 104.  a^N is taken over 2^S,
   S = P + 2, with plain floor and ceiling shifts.  If its lower end is
   above 1/2, every square and partial product of both ends lay in
   [1/2, 1], as lo <= hi <= 2^P, a rounded factor is at most 1 and the
   lower end only falls to the result; there a cut to P + 2 significant
   bits is a cut at 2^{-S}, so both ends are the relative ones.  Otherwise
   the step is the last, and the upper end decides as the relative one
   would: the two agree while its exact products are at least 1/2, and
   from the first below 1/2 both round to at most 1/2, which lies on both
   grids, and stay there, as every factor is at most 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Optional

from .errors import CertificationError, DomainError, SizeGuardError, guard_count, printable
from .events_graph import DepGraph, events_from_formula, lopsidependency_graph
from .sat_model import build_extremal_formula

DEFAULT_H_VERTEX_GUARD = 200


@dataclass(frozen=True)
class HGraph:
    graph: DepGraph


@dataclass(frozen=True)
class FixedPointVerdict:
    kind: str  # "violated" | "converged" | "inconclusive"
    step: Optional[int] = None
    value: Optional[float] = None


@dataclass(frozen=True)
class FixedPointReport:
    trajectory: tuple[float, ...]  # midpoints a_0 .. a_J
    verdict: FixedPointVerdict
    threshold: float


def _check_params(k: int, L: int, j: int):
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if L < 2:
        raise DomainError(f"L must be >= 2, got {L}")
    if j < 0:
        raise DomainError(f"j must be >= 0, got {j}")


def H_size(prime: bool, j: int, k: int, L: int, vertex_guard: int) -> int:
    """|H'_j| if prime, else |H_j|, or SizeGuardError past vertex_guard.

    |H_j| = (2L-2)(1 + (k-1)|H_{j-1}|), |H'_j| = 1 + (k-1)|H_{j-1}|, none at
    j = 0.  Both have at least j vertices and |H_i| at least doubles per level,
    so counting stops once over the guard and unprintable (the count only grows).
    """
    _check_params(k, L, j)
    label = ("H'" if prime else "H") + f"_{j}(k={k},L={L})"
    if j > vertex_guard:
        raise SizeGuardError(f"{label} has at least {j} vertices, guard is {vertex_guard}")
    n = 0  # |H_{j-1}|, or a lower bound once counting stops
    for _ in range(j - 1):
        n = 2 * (L - 1) * (1 + (k - 1) * n)
        if n > vertex_guard and not printable(n):
            break
    n = (1 if prime else 2 * L - 2) * (1 + (k - 1) * n) if j else 0
    if n > vertex_guard:
        raise SizeGuardError(f"{label} has {guard_count(n, vertex_guard)} vertices, "
                             f"guard is {vertex_guard}")
    return n


def _build(prime: bool, j: int, k: int, L: int, vertex_guard: int) -> HGraph:
    """H_j's graph, or H'_j's if prime, from the formula of |H_j| / (2L-2)
    stages: its clause guard is its variable count, so only H_size refuses."""
    n = H_size(prime, j, k, L, vertex_guard)
    clauses = (2 * L - 2) * n if prime else n  # |H_j|
    formula = build_extremal_formula(k, L, clauses // (2 * L - 2), clauses * (k - 1) + 1)
    events = events_from_formula(formula)
    if prime:
        # Stage i >= 2 expands a variable of clause (i-2) // (k-1), its parent.
        keep = [True] + [False] * (2 * L - 3)  # stage 1: clause 0 alone
        for c in range(2 * L - 2, clauses):
            keep.append(keep[(c // (2 * L - 2) - 1) // (k - 1)])
        events = list(compress(events, keep))
    assert len(events) == n
    return HGraph(lopsidependency_graph(events))


def build_H(j: int, k: int, L: int, vertex_guard: int = DEFAULT_H_VERTEX_GUARD) -> HGraph:
    return _build(False, j, k, L, vertex_guard)


def build_Hprime(j: int, k: int, L: int, vertex_guard: int = DEFAULT_H_VERTEX_GUARD) -> HGraph:
    return _build(True, j, k, L, vertex_guard)


def recurrence_sr(j: int, k: int, L: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact (s_0..s_j, r_0..r_j) at p = 2^{-k}, with s_{-1} = s_0 = r_0 = 1."""
    _check_params(k, L, j)
    p = Fraction(1, 2 ** k)
    s = [Fraction(1), Fraction(1)]  # s_{-1}, s_0
    r = [Fraction(1)]  # r_0
    for t in range(1, j + 1):
        r_t = (s[t] ** (k - 1)
               - p * r[t - 1] ** ((k - 1) * (L - 1)) * s[t - 1] ** ((k - 1) ** 2 * (L - 1)))
        s_t = (2 * r_t ** (L - 1) * s[t] ** ((k - 1) * (L - 1))
               - s[t] ** ((k - 1) * (2 * L - 2)))
        r.append(r_t)
        s.append(s_t)
    return tuple(s[1:]), tuple(r)


def denominator_exponents(j: int, k: int, L: int) -> tuple[int, int]:
    """(σ_j, ρ_j) with s_j = odd/2^σ_j and r_j = odd/2^ρ_j in lowest terms,
    as recurrence_sr gives them, without forming either.

    By induction from σ_{-1} = σ_0 = ρ_0 = 0, where s_{-1} = s_0 = r_0 = 1:
    r_t's two terms are odd/2^e1 and odd/2^e2 with e1 = (k-1)σ_{t-1} and
    e2 = k + (k-1)(L-1)(ρ_{t-1} + (k-1)σ_{t-2}), and s_t's are odd/2^f1 and
    odd/2^f2 with f1 = (L-1)(ρ_t + (k-1)σ_{t-1}) - 1 and f2 = 2(k-1)(L-1)σ_{t-1}.
    A difference of two such terms is odd/2^max when the exponents differ,
    and they always do: e2 - e1 is k at t = 1 and, as σ_{t-1} is step t-1's
    f1, 2k - 1 after, so f1 - f2 = (L-1)(e2 - e1) - 1 >= 1.  Hence ρ_t = e2
    and σ_t = f1.
    """
    _check_params(k, L, j)
    sigma_before, sigma, rho = 0, 0, 0  # σ_{t-2}, σ_{t-1}, ρ_{t-1}
    for _ in range(j):
        rho = k + (k - 1) * (L - 1) * (rho + (k - 1) * sigma_before)
        sigma_before, sigma = sigma, (L - 1) * (rho + (k - 1) * sigma) - 1
    return sigma, rho


def _bits(n: int) -> list[int]:
    """The bit schedule of n >= 1 for _powers: its bits below the top one, lowest first.

    A list: tuple() of a generator fills 10 fresh slots and shrinks them,
    so CPython's free list for the final length only gains, up to 2000
    tuples per length, and the peak RSS of long runs grew with it.
    """
    return [n >> i & 1 for i in range(n.bit_length() - 1)]


def _power(x: int, bits: list[int], P: int, up: bool) -> tuple[int, int]:
    """(m, e) with m * 2^e at most (x / 2^P)^n, or at least when up, for an
    int x >= 0 and the n >= 1 with bits = _bits(n).

    Square-and-multiply from the lowest bit: each product is cut to P + 2
    bits (one more when a cut rounds up), down, or up when up, and its
    exponent takes the rest.  When up, the product m and the square xs are
    kept negated, so each floor shift rounds their magnitudes up, and x is
    the square's magnitude.  _newton and _shearer_estimate take only the
    lower end, and nothing rests on it: the one's proposal is certified by
    an exact check, and the other only picks probes (fact 5).
    """
    width, e, g = P + 2, 0, -P  # the product m * 2^e, the square x * 2^g
    m, xs = (-1, -x) if up else (1, x)
    for bit in bits:
        if bit:
            m, e = m * x, e + g
            cut = m.bit_length() - width
            if cut > 0:
                m, e = m >> cut, e + cut
        xs, g = xs * x, 2 * g
        cut = xs.bit_length() - width
        if cut > 0:
            xs, g = xs >> cut, g + cut
        x = -xs if up else xs
    m, e = m * x, e + g  # the top bit
    cut = m.bit_length() - width
    if cut > 0:
        m, e = m >> cut, e + cut
    return -m if up else m, e


def _powers(lo: int, hi: int, bits: list[int], P: int):
    """(m, e) pairs with m * 2^e below (lo / 2^P)^n and above (hi / 2^P)^n,
    for ints 0 <= lo <= hi and the n >= 1 with bits = _bits(n), by _power.

    u(a)^N in _phi_witness and the bracket's a^(k-1) and b^(k-1) rest on
    both ends; _u_bounds, on fact 6's hot path, calls _power for each end.
    """
    return _power(lo, bits, P, False), _power(hi, bits, P, True)


def _fixed(m: int, e: int, s: int) -> int:
    """floor(m * 2^(e + s)) for ints m >= 0, e and s: m * 2^e over 2^-s."""
    shift = e + s
    return m << shift if shift >= 0 else m >> -shift


def _quotient(s: int, low: tuple[int, int], high: tuple[int, int]):
    """Ints (lo, hi) with lo <= 2^s / x <= hi for every x > 0 in [low, high].

    An end (m, e) stands for m * 2^e; hi is math.inf when the low end is 0.
    """
    (m, e), (n, f) = high, low
    lo = (1 << s - e) // m if s >= e else 0  # 2^(s-e) / m < 1 otherwise
    if not n:
        return lo, math.inf
    return lo, -(-(1 << s - f) // n) if s >= f else 1


def _compare(m: int, e: int, num: int, den: int) -> int:
    """The sign of m * 2^e - num / den, for ints m >= 0, e, num and den > 0, decided exactly.

    Cross-multiplied, so nothing is normalised.  Bit lengths settle it unless
    both sides have the same binary order, and then |e| is at most a bit
    length, so 2^e itself is never formed: a power below 1 can have e near
    -N P, about -2^118 for u(a)^N at k = 200, P = 72.
    """
    a, b = m * den, num
    if a == 0 or b <= 0:
        return 1 if a > 0 or b < 0 else -(b > 0)
    order = a.bit_length() + e - b.bit_length()  # a 2^e / b in (2^(order-1), 2^(order+1))
    if order:
        return 1 if order > 0 else -1
    a, b = (a << e, b) if e >= 0 else (a, b << -e)
    return (a > b) - (a < b)


def _u_bounds(lo: int, hi: int, k: int, k_bits: list[int], P: int):
    """Ints with u(t) = 1 - 2^{-k} / t^(k-1) in [lo', hi'] / 2^P for t in [lo, hi] / 2^P.

    For 0 <= lo <= hi and k_bits = _bits(k - 1); u increases for t > 0, and
    lo' is -math.inf when lo = 0.
    """
    q_lo, q_hi = _quotient(P - k, _power(lo, k_bits, P, False),  # 2^{-k} / t^(k-1), over 2^P
                           _power(hi, k_bits, P, True))
    one = 1 << P
    return one - q_hi, one - q_lo


def _enclosures(k: int, N: int, P: int):
    """Yield (lo, hi, kind) with a_j in [lo, hi] / 2^P for j = 1, 2, ... (fact 6).

    kind is None while a_j certainly lies above 2^{-1/N}.  The last item
    has kind "violated", a_j certainly at or below it, or "inconclusive".
    Only the last lo can be -math.inf: when the lower bound on a_{j-1}^N is
    within 2^{-P} of 1/2, that on 2 - a_{j-1}^{-N} can round to 0.
    """
    S = P + 2
    n_bits, k_bits = _bits(N), _bits(k - 1)
    unit, two, half, top = 1 << S, 2 << P, 1 << S - 1, 1 << P + S
    round_up = unit - 1
    m = n = unit  # a_{j-1}^N in [m, n] / 2^S, from a_0^N = 1
    while True:
        # g(a) = u(2 - a^{-N}), a^{-N} in [top // n, ceil(top / m)] / 2^P, m > half
        lo, hi = _u_bounds(two + top // -m, two - top // n, k, k_bits, P)
        # a^N over 2^S, cut at 2^{-S}: _powers' own cut while lo^N > 1/2 (fact 6)
        x, y, m, n = lo << 2 if lo > 0 else 0, hi << 2 if hi > 0 else 0, unit, unit
        for bit in n_bits:
            if bit:
                m = m * x >> S
                n = n * y + round_up >> S
            x = x * x >> S
            y = y * y + round_up >> S
        m = m * x >> S
        n = n * y + round_up >> S
        if m > half:
            yield lo, hi, None
            continue
        yield lo, hi, "violated" if n <= half else "inconclusive"
        return


def _midpoint(lo: int, hi: int, P: int) -> float:
    """The printed value of [lo, hi] / 2^P: each end rounded to a double, then summed and halved.

    It encloses nothing and no verdict is taken from it.
    """
    try:
        return (lo / (scale := 1 << P) + hi / scale) / 2
    except OverflowError:  # a_j = 1 - 2^{-k} / base^{k-1} below -2^1024
        return -math.inf


def fixed_point_iteration(k: int, L: int, max_iter: int, precision: int) -> FixedPointReport:
    """Decide whether a_j = g(a_{j-1}) from a_0 = 1 stays above 2^{-1/(L-1)}.

    "converged" is certified without iterating by fact 4 of the module
    docstring; its value is the lower bound c on every a_j.  A phi test
    refused below _precision_floor(k) bits is retried once at the floor,
    so only a refusal can turn into a decision.  Otherwise the
    iteration runs on the integer enclosures of fact 6, with 8 bits more
    than precision, until one certifies "violated"; an undecided comparison
    or max_iter steps give "inconclusive".
    """
    _check_params(k, L, 0)
    if max_iter < 0:
        raise DomainError(f"max_iter must be >= 0, got {max_iter}")
    t = _fixed_point_witness(L - 1, k, precision)
    if t is not None and t > 1:
        raise CertificationError(
            f"phi_{L - 1} witness t={float(t)} exceeds 1 for k={k}, so c > a_0",
            retry_precision=None)
    import mpmath  # for the printed threshold and c only, so off the import path

    with mpmath.mp.workprec(precision):  # printed only, so rounded to nearest
        exponent = mpmath.mpf(-1) / (L - 1)
        threshold = float(mpmath.mpf(2) ** exponent)
        if t is not None:
            c = (2 - mpmath.mpf(t.numerator) / t.denominator) ** exponent
            verdict = FixedPointVerdict("converged", value=float(c))
    trajectory = [1.0]
    if t is None:
        P = precision + 8
        for j, (lo, hi, kind) in zip(range(1, max_iter + 1), _enclosures(k, L - 1, P)):
            trajectory.append(_midpoint(lo, hi, P))
            if kind is not None:
                verdict = FixedPointVerdict(kind, step=j, value=trajectory[-1])
                break
        else:
            verdict = FixedPointVerdict("inconclusive", step=max_iter, value=trajectory[-1])
    return FixedPointReport(tuple(trajectory), verdict, threshold)


def _log_root(M: int, k: int, W: int) -> Optional[int]:
    """T = t 2^W just above the root of q_N, M = N (k-1), from doubles, or None.

    q_N(t) = 0 iff k ln(2t) = ln(2M - (M-1) t) = ln M + y with
    y = ln(2 - wt), w = 1 - 1/M; ln M is math.log(M), so nothing overflows
    past 2^1023.  As a function of y, k ln(2(2 - e^y) / w) - ln M - y is
    concave and decreasing, so Newton's method from the y of t = 1/2, where
    it is negative, descends onto its root; it stops once t moves by at most
    2^-46.  The root is raised by 2^-40 of itself.  None when W <= 64, M = 1,
    the descent does not settle in 64 steps or the raised root is not below 2.
    """
    if W <= 64 or M == 1:
        return None
    log_m = math.log(M)
    w = 1 - math.exp(-log_m)  # 1 - 1/M; 1.0 past 2^53
    y = math.log(2 - w / 2)  # t = 1/2
    for _ in range(64):
        r = math.exp(y)
        step = (k * math.log(2 * (2 - r) / w) - log_m - y) / (-k * r / (2 - r) - 1)
        y -= step
        if r * abs(step) <= 2.0 ** -46:
            break
    else:
        return None
    t = (2 - math.exp(y)) / w * (1 + 2.0 ** -40)
    return int(math.ldexp(t, 64)) << W - 64 if t < 2 else None


def _newton(N: int, k: int, precision: int) -> int:
    """floor(t 2^h), h = precision // 2, for Newton's t = T / 2^W, W = precision + k,
    near the root of q_N, N >= 1: not certified, as it rounds down with no bound kept.

    Each step takes the lower end of t^(k-1) alone (_power).
    """
    W, M, k_bits = precision + k, N * (k - 1), _bits(k - 1)
    # Newton descends monotonically onto the root t* of the concave,
    # decreasing q_N from any t >= t*.  It starts from _log_root's t when
    # this loop's own q there is <= 0, else from t = 1 when q_N(1) <= 0,
    # which is M + 1 <= 2^k for M = N (k-1), else from t = 2.  Stop once
    # rounding halts it.  With pw = 2^(k+W) t^(k-1), 2^(k+W) q_N(t) is
    # M (2^(W+1) - T) + T - T pw / 2^W and 2^(k+W) q_N'(t) is (1 - M) 2^W - k pw.
    descent = 1 << W if M + 1 <= 1 << k else 2 << W
    T = _log_root(M, k, W) or descent
    for i in range(k + precision):
        pw = _fixed(*_power(T, k_bits, W, False), k + W)
        q = M * ((2 << W) - T) + T - (T * pw >> W)
        if q > 0 and not i:  # the double lay below t*
            T = descent
            continue
        T_next = T - (q << W) // ((1 - M << W) - k * pw)
        if T_next >= T:
            break
        T = T_next
    return T >> W - precision // 2


def _side(X: int, k: int, h: int, num: int, den: int, power) -> int:
    """The sign of (X / 2^h)^(k-1) - num / den, for ints X >= 0, num and den > 0.

    power is the _powers enclosure (low, high) of (X / 2^h)^(k-1); the
    exact k h-bit ints are formed only when it straddles num / den.
    """
    low, high = power
    if _compare(*low, num, den) > 0:
        return 1
    if _compare(*high, num, den) < 0:
        return -1
    exact = X ** (k - 1) * den - (num << h * (k - 1))
    return (exact > 0) - (exact < 0)


def _maximizer_bracket(N: int, k: int, precision: int) -> tuple[int, tuple[int, int]]:
    """(A, low), where a = A / H < b = (A + 2) / H, H = 2^h, h = precision // 2,
    bracket the maximizer of phi_N, N >= 1, in its domain (fact 3), and
    low = (m, e) has m 2^e <= a^(k-1).

    A + 1 is _newton's proposal, and CertificationError is raised unless
    A > 0, 2^k a^(k-1) > 1 and Q(A) > 0 >= Q(A + 2).  Q(X) has the sign of
    (M (2H - X) + X) / (2^k X) - (X / H)^(k-1), M = N (k-1), so each test
    compares a^(k-1) or b^(k-1) with a fraction of small ints (_side), on
    its _powers enclosure at h + 2 bits.
    """
    h, M, k_bits = precision // 2, N * (k - 1), _bits(k - 1)
    A = _newton(N, k, precision) - 1
    B = A + 2
    if A > 0:
        a_k = _powers(A, A, k_bits, h)
        if (_side(A, k, h, 1, 1 << k, a_k) > 0
                and _side(A, k, h, M * ((2 << h) - A) + A, A << k, a_k) < 0
                and _side(B, k, h, M * ((2 << h) - B) + B, B << k,
                          _powers(B, B, k_bits, h)) >= 0):
            return A, a_k[0]
    raise CertificationError(
        f"no certified bracket of the maximizer of phi_{N} for k={k}: "
        f"[{A / (1 << h)}, {B / (1 << h)}]", retry_precision=2 * precision)


def _phi_witness(N: int, k: int, precision: int) -> Optional[Fraction]:
    """A dyadic t with phi_N(t) >= 0 if max_t phi_N(t) >= 0, else None, for N >= 1.

    Certified by facts 2 and 3 of the module docstring on the bracket a < b:
    a is returned when (2-a) u(a)^N >= 1, which is phi_N(a) >= 0, and None
    when (2-a) u(a)^N < 1 - phi_N'(a)(b-a).  u(a)^N is enclosed as fact 6
    encloses a_j^N, at P = precision + 8, so no logarithm is taken.  With
    z = a^(k-1), 1 - phi_N'(a)(b-a) increases with z, so the second test
    is tried first on the bracket's lower end of z and only then on the
    exact z = A^(k-1) / H^(k-1).
    """
    A, low = _maximizer_bracket(N, k, precision)
    h, P = precision // 2, precision + 8
    D, num = (2 << h) - A, N * (k - 1) * ((2 << h) - A) + A  # (2-a) H, (M (2-a) + a) H
    x = A << P - h  # a 2^P
    u_lo, u_hi = _u_bounds(x, x, k, _bits(k - 1), P)
    u_low, u_high = _powers(max(u_lo, 0), u_hi, _bits(N), P)  # u(a)^N
    if _compare(*u_low, 1 << h, D) >= 0:  # 1 / (2-a)
        return Fraction(A, 1 << h)

    def refuted(z_num: int, z_den: int) -> bool:  # at z = z_num / z_den, 2^k z > 1
        # (1 - phi_N'(a)(b-a)) / (2-a) = (D R - 2 Q(A)) H / (D^2 R), with Q(A)
        # and R both divided by H^(k-1) / z_den, which cancels
        R = A * ((z_num << k) - z_den)
        return _compare(*u_high, D * R - 2 * (num * z_den - (A * z_num << k)) << h, D * D * R) < 0

    m, e = low
    z_num, z_den = (m << e, 1) if e >= 0 else (m, 1 << -e)
    if (z_num << k) > z_den and refuted(z_num, z_den) or refuted(A ** (k - 1), 1 << h * (k - 1)):
        return None
    raise CertificationError(f"max phi_{N} >= 0 for k={k} not certifiable at current precision",
                             retry_precision=2 * precision)


def _precision_floor(k: int) -> int:
    """2k + 128, the fewest bits at which phi_N is probed near N = F_Shearer(k).

    max phi_N there is about 2^{-k} from 0, and the enclosure of u(a)^N,
    with N near 2^k / (ek), is about N 2^{-P} wide.
    """
    return 2 * k + 128


def _fixed_point_witness(N: int, k: int, precision: int) -> Optional[Fraction]:
    """_phi_witness at precision, and again at _precision_floor(k) if it
    refuses below the floor; a refusal there raises with twice the floor."""
    try:
        return _phi_witness(N, k, precision)
    except CertificationError:
        if precision >= _precision_floor(k):
            raise
        return _phi_witness(N, k, _precision_floor(k))


def _atanh(Z: int, W: int) -> int:
    """atanh(z) 2^W for z = Z / 2^W in [0, 1/2], each term of its series rounded down."""
    total = term = Z
    square, i = Z * Z >> W, 1
    while term:
        term = term * square >> W
        i += 2
        total += term // i
    return total


def _shearer_estimate(k: int) -> int:
    """An estimate of F_Shearer(k); it only picks shearer_upper_bound's probes.

    N(t) = (t^k - ct) / (c(k-1)(2-t)) solves q_N(t) = 0, so phi_{N(t)} peaks
    at t and psi(t) = phi_{N(t)}(t) = max phi_{N(t)}.  N increases and max phi_N
    decreases in N, so psi decreases, and at its root t0, F = floor(N(t0)) + 1
    (fact 1).  psi(1) = N(1) ln u(1) < 0, and Newton from t = 1 descends onto
    t0 (psi' = N' ln u, as phi_{N(t)}' vanishes at t) in under ten steps for
    k up to 3000; a step above 1, or to where x = c / t^(k-1) exceeds 1/2,
    ends it early.  It runs on ints at W = 2k + 64 bits, t = T / 2^W, with
    ln u = ln(1 - x) = -2 atanh(x / (2-x)) and ln(2-t) = 2 atanh((1-t) / (3-t)).
    x, about 2^{-k}, is taken from the lower end of t^(k-1) (_power) to
    relative precision, so ln u
    keeps about k + 64 bits, and psi is good to about 2^{-k-56}, far below
    the stopping step 2^{-k-32}: ln(2-t) is summed at k + 64 bits, as psi
    needs no more.  N < 2^k, so floor(N) is resolved.
    """
    W, k_bits = 2 * k + 64, _bits(k - 1)
    one, c = 1 << W, 1 << W - k  # 1 and 2^{-k}, over 2^W
    T = one
    for _ in range(64):
        m, e = _power(T, k_bits, W, False)  # t^(k-1) >= m 2^e
        x = (1 << W - k - e) // m  # c / t^(k-1), over 2^W
        if x > one >> 1:
            break  # astray: keep n from the t before
        tk1 = _fixed(m, e, W)  # t^(k-1), over 2^W
        two_t = 2 * one - T  # 2 - t, over 2^W
        n = (T * (tk1 - c) << k) // ((k - 1) * two_t)  # N(t), over 2^W
        log_u = -2 * _atanh((x << W) // (2 * one - x), W)
        log_2t = 2 * _atanh((one - T << W - k) // (two_t + one), W - k) << k  # to 2^{-k-64}
        dn = ((((k * tk1 - c) << k) // (k - 1) + n) << W) // two_t  # N'(t)
        step = (log_2t + (n * log_u >> W) << W) // (dn * log_u >> W)  # psi / psi'
        if abs(step) < c >> 32:
            break  # settled far below what floor(N) needs
        T -= step
        if not 0 < T <= one:
            break  # astray
    return (n >> W) + 1


def shearer_upper_bound(k: int, precision: int) -> int:
    """F_Shearer(k) = floor(max ell), certified by facts 1-3 and 5 of the module docstring.

    Probes L = F and F + 1 at the estimate F; if either disagrees, binary
    search over the rest of [1, 2^k].  Each probe is decided exactly or
    raises CertificationError.  Probes run at no fewer than
    _precision_floor(k) bits.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    precision = max(precision, _precision_floor(k))
    lo, hi = 1, 2 ** k  # max phi_{lo-1} >= 0 (or lo = 1); max phi_hi < 0
    estimate = _shearer_estimate(k)
    for L in (estimate, estimate + 1):
        if lo < L <= hi:
            if _phi_witness(L - 1, k, precision) is not None:
                lo = L
            else:
                hi = L - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _phi_witness(mid - 1, k, precision) is not None:
            lo = mid
        else:
            hi = mid - 1
    return lo
