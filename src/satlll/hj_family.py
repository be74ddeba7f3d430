"""The H_j / H'_j graph families, their recurrences, and the threshold curve.

H_{j+1} is a fresh complete bipartite root K_{L-1,L-1} where every root
vertex gains k-1 fresh copies of H_j, wired to the right half of each
copy's root.  H'_{j+1} is a single vertex wired the same way.  Their
independence-polynomial values at uniform probability p = 2^{-k},

    s_j = Q(H_j),   r_j = Q(H'_j),

obey a mutual recurrence whose normalized form a_j = r_j / s_{j-1}^{k-1}
is a pure first-order iteration a_j = g(a_{j-1}).  Once a_j falls to
2^{-2/(2L-2)} the Shearer condition fails for some H_j, hence for the
extremal formula's lopsidependency graph.

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
   concavity gives max phi_N in [phi_N(a), phi_N(a) + phi_N'(a)(b-a)],
   where phi_N'(a) = q_N(a) / ((2-a)(a^k - ca)) is rational.  One interval
   evaluation of phi_N(a) decides the sign, or CertificationError is raised.

Substituting t = 2 - a^{-(L-1)} turns the fixed point a = g(a) into
phi_{L-1}(t) = 0, since g(a) = u(2 - a^{-(L-1)}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath import iv, mp

from .certified import (DEFAULT_PRECISION, certainly_gt, certainly_le,
                        certified_compare_ge, endpoints, interval_precision,
                        iv_from_fraction, midpoint_float)
from .errors import CertificationError, DomainError, SizeGuardError
from .events_graph import DepGraph, events_from_formula, lopsidependency_graph
from .sat_model import ExpansionTree, Formula, build_extremal_formula

DEFAULT_H_VERTEX_GUARD = 200


@dataclass(frozen=True)
class HGraph:
    graph: DepGraph
    root_left: tuple[int, ...]
    root_right: tuple[int, ...]
    j: int
    k: int
    L: int


@dataclass(frozen=True)
class RecurrenceState:
    """Exact (s_j, r_j) trajectories; s is indexed from -1 (null-graph convention)."""

    j: int
    k: int
    L: int
    p: Fraction
    s_values: tuple[Fraction, ...]  # s_values[i] = s_{i-1}
    r_values: tuple[Fraction, ...]  # r_values[i] = r_i

    def s(self, i: int) -> Fraction:
        if i < -1 or i > self.j:
            raise DomainError(f"s_{i} not computed (have -1..{self.j})")
        return self.s_values[i + 1]

    def r(self, i: int) -> Fraction:
        if i < 0 or i > self.j:
            raise DomainError(f"r_{i} not computed (have 0..{self.j})")
        return self.r_values[i]


@dataclass(frozen=True)
class FixedPointVerdict:
    kind: str  # "violated" | "converged" | "inconclusive"
    step: Optional[int] = None
    value: Optional[float] = None


@dataclass(frozen=True)
class FixedPointReport:
    k: int
    L: int
    precision: int
    tolerance_bits: int
    max_iter: int
    trajectory: tuple[float, ...]  # midpoints a_0 .. a_J
    verdict: FixedPointVerdict
    threshold: float = 0.0

    def to_json_dict(self, max_trajectory: int | None = None) -> dict:
        traj = list(self.trajectory)
        truncated = False
        if max_trajectory is not None and len(traj) > max_trajectory:
            traj = traj[:max_trajectory]
            truncated = True
        return {
            "parameters": {"k": self.k, "L": self.L, "precision": self.precision,
                           "tolerance_bits": self.tolerance_bits,
                           "max_iter": self.max_iter},
            "threshold": self.threshold,
            "trajectory": traj,
            "trajectory_truncated": truncated,
            "verdict": {"kind": self.verdict.kind, "step": self.verdict.step,
                        "value": self.verdict.value},
        }


def h_vertex_count(j: int, k: int, L: int) -> int:
    n = 0
    for _ in range(j):
        n = 2 * (L - 1) * (1 + (k - 1) * n)
    return n


def hprime_vertex_count(j: int, k: int, L: int) -> int:
    if j == 0:
        return 0
    return 1 + (k - 1) * h_vertex_count(j - 1, k, L)


def _check_params(k: int, L: int):
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if L < 2:
        raise DomainError(f"L must be >= 2, got {L}")


def _h_structure(j: int, k: int, L: int, offset: int,
                 edges: list[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Append H_j's edges (vertices offset..) and return (left root, right root, size)."""
    if j == 0:
        return (), (), 0
    left = tuple(range(offset, offset + L - 1))
    right = tuple(range(offset + L - 1, offset + 2 * (L - 1)))
    edges.extend((u, v) for u in left for v in right)
    cursor = offset + 2 * (L - 1)
    for v in left + right:
        for _ in range(k - 1):
            _, sub_right, sub_size = _h_structure(j - 1, k, L, cursor, edges)
            edges.extend((v, u) for u in sub_right)
            cursor += sub_size
    return left, right, cursor - offset


def build_H(j: int, k: int, L: int,
            vertex_guard: int = DEFAULT_H_VERTEX_GUARD) -> HGraph:
    _check_params(k, L)
    if j < 0:
        raise DomainError(f"j must be >= 0, got {j}")
    n = h_vertex_count(j, k, L)
    if n > vertex_guard:
        raise SizeGuardError(f"H_{j}(k={k},L={L}) has {n} vertices, guard is {vertex_guard}")
    edges: list[tuple[int, int]] = []
    left, right, size = _h_structure(j, k, L, 0, edges)
    assert size == n
    return HGraph(DepGraph.from_edges(n, edges), left, right, j, k, L)


def build_Hprime(j: int, k: int, L: int,
                 vertex_guard: int = DEFAULT_H_VERTEX_GUARD) -> HGraph:
    _check_params(k, L)
    if j < 0:
        raise DomainError(f"j must be >= 0, got {j}")
    n = hprime_vertex_count(j, k, L)
    if n > vertex_guard:
        raise SizeGuardError(f"H'_{j}(k={k},L={L}) has {n} vertices, guard is {vertex_guard}")
    if j == 0:
        return HGraph(DepGraph.from_edges(0, []), (), (), j, k, L)
    edges: list[tuple[int, int]] = []
    cursor = 1  # vertex 0 is the single root
    for _ in range(k - 1):
        _, sub_right, sub_size = _h_structure(j - 1, k, L, cursor, edges)
        edges.extend((0, u) for u in sub_right)
        cursor += sub_size
    return HGraph(DepGraph.from_edges(n, edges), (), (0,), j, k, L)


def recurrence_sr(j: int, k: int, L: int) -> RecurrenceState:
    """Exact s_0..s_j and r_0..r_j at p = 2^{-k}, with s_{-1} = s_0 = r_0 = 1."""
    _check_params(k, L)
    if j < 0:
        raise DomainError(f"j must be >= 0, got {j}")
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
    return RecurrenceState(j=j, k=k, L=L, p=p, s_values=tuple(s), r_values=tuple(r))


def _u(t, p, k: int):
    """u = 1 - p / t^(k-1), the same expression on Fraction, mpf and iv."""
    return 1 - p / t ** (k - 1)


def g_function(a, k: int, L: int, p=None):
    """g(a) = u(2 - a^{-(L-1)}); exact on Fraction, mpf otherwise.

    Requires a > 2^{-1/(L-1)} so that the denominator base is positive.
    """
    _check_params(k, L)
    p = Fraction(1, 2 ** k) if p is None else Fraction(p)
    if isinstance(a, (Fraction, int)):
        a = Fraction(a)
        if a <= 0 or 2 * a ** (L - 1) <= 1:
            raise DomainError(f"g undefined at a={a}: need a > 2^(-1/(L-1))")
        return _u(2 - a ** -(L - 1), p, k)
    a = mpmath.mpf(a)
    base = 2 - a ** (-(L - 1))
    if not (a > 0 and base > 0):
        raise DomainError(f"g undefined at a={a}: need a > 2^(-1/(L-1))")
    return _u(base, mpmath.mpf(p.numerator) / p.denominator, k)


def a_b_sequence(j: int, k: int, L: int) -> tuple[Fraction, Fraction]:
    """Exact a_j = r_j / s_{j-1}^{k-1} and b_j = 2 a_j^{L-1} - 1 from the recurrence."""
    if j < 0:
        raise DomainError(f"j must be >= 0, got {j}")
    state = recurrence_sr(j, k, L)
    denom = state.s(j - 1) ** (k - 1)
    if denom == 0:
        raise DomainError(f"a_{j} undefined: s_{j-1} = 0")
    a_j = state.r(j) / denom
    b_j = 2 * a_j ** (L - 1) - 1
    return a_j, b_j


def fixed_point_iteration(k: int, L: int, max_iter: int = 100_000,
                          tolerance_bits: int = 80,
                          precision: int = DEFAULT_PRECISION) -> FixedPointReport:
    """Iterate a_j = g(a_{j-1}) from a_0 = 1 with certified interval arithmetic.

    Verdicts are emitted only when the comparison margin exceeds the
    accumulated interval width; otherwise the outcome is inconclusive.
    """
    _check_params(k, L)
    with interval_precision(precision):
        p = iv_from_fraction(Fraction(1, 2 ** k))
        threshold = iv.mpf(2) ** (iv.mpf(-2) / (2 * L - 2))
        tolerance = iv.mpf(2) ** (-tolerance_bits)
        a = iv.mpf(1)
        trajectory = [1.0]
        verdict = None
        for j in range(1, max_iter + 1):
            a_new = _u(2 - a ** (-(L - 1)), p, k)
            trajectory.append(midpoint_float(a_new))
            if certainly_le(a_new, threshold):
                verdict = FixedPointVerdict("violated", step=j, value=midpoint_float(a_new))
                break
            if not certainly_gt(a_new, threshold):
                verdict = FixedPointVerdict("inconclusive", step=j, value=midpoint_float(a_new))
                break
            diff_sup = max(abs(e) for e in endpoints(a_new - a))
            tol_inf = endpoints(tolerance)[0]
            if diff_sup <= tol_inf:
                verdict = FixedPointVerdict("converged", step=j, value=midpoint_float(a_new))
                break
            a = a_new
        if verdict is None:
            verdict = FixedPointVerdict("inconclusive", step=max_iter,
                                        value=midpoint_float(a))
        threshold_mid = midpoint_float(threshold)
    return FixedPointReport(k=k, L=L, precision=precision, tolerance_bits=tolerance_bits,
                            max_iter=max_iter, trajectory=tuple(trajectory),
                            verdict=verdict, threshold=threshold_mid)


def threshold_ell(t, k: int, precision: int = DEFAULT_PRECISION):
    """ell(t) = 1 - ln(2-t) / ln u(t) as an mpf at the given precision."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    with mp.workprec(precision):
        t = mpmath.mpf(t.numerator) / t.denominator if isinstance(t, Fraction) else mpmath.mpf(t)
        if not (0 < t < 2):
            raise DomainError(f"t={t} outside (0, 2)")
        inner = _u(t, mpmath.mpf(2) ** (-k), k)
        if inner <= 0:
            raise DomainError(f"t={t} below the domain lower bound 2^(-k/(k-1))")
        denom = mpmath.log(inner)
        if denom == 0:
            raise DomainError(f"t={t} at the domain lower bound")
        return 1 - mpmath.log(2 - t) / denom


def _q(t, N: int, c, k: int):
    """q_N(t) = N c (k-1) (2-t) + c t - t^k, which has the sign of phi_N'(t)."""
    return N * c * (k - 1) * (2 - t) + c * t - t ** k


def _max_phi_nonnegative(N: int, k: int, precision: int) -> bool:
    """Certified max_t phi_N(t) >= 0 for N >= 1 (facts 2 and 3 of the module docstring)."""
    c = Fraction(1, 2 ** k)
    with mp.workprec(precision):
        # Newton from t = 2 descends monotonically onto the root of the
        # concave, decreasing q_N; stop once rounding halts the descent.
        c_mp = mpmath.mpf(2) ** (-k)
        t = mpmath.mpf(2)
        for _ in range(k + precision):
            slope = c_mp * (1 - N * (k - 1)) - k * t ** (k - 1)
            t_next = t - _q(t, N, c_mp, k) / slope
            if t_next >= t:
                break
            t = t_next
        scale = 2 ** (precision // 2)
        n = int(t * scale)
    a, b = Fraction(n - 1, scale), Fraction(n + 1, scale)
    q_a = _q(a, N, c, k)
    if not (a > 0 and a ** (k - 1) > c and q_a > 0 >= _q(b, N, c, k)):
        raise CertificationError(
            f"no certified bracket of the maximizer of phi_{N} for k={k}: "
            f"[{float(a)}, {float(b)}]")
    dphi_a = q_a / ((2 - a) * (a ** k - c * a))
    with interval_precision(precision):
        a_iv = iv_from_fraction(a)
        phi_a = iv.log(2 - a_iv) + N * iv.log(_u(a_iv, iv_from_fraction(c), k))
        enclosure = phi_a + iv.mpf([0, 1]) * iv_from_fraction(dphi_a * (b - a))
        return certified_compare_ge(enclosure, 0, what=f"max phi_{N} >= 0 for k={k}")


def shearer_upper_bound(k: int, precision: int = DEFAULT_PRECISION) -> int:
    """F_Shearer(k) = floor(max ell), certified by facts 1-3 of the module docstring.

    Binary search for the largest L in [1, 2^k] with max phi_{L-1} >= 0;
    each probe is decided exactly or raises CertificationError.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    lo, hi = 1, 2 ** k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _max_phi_nonnegative(mid - 1, k, precision):
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass(frozen=True)
class EmbeddingResult:
    formula: Formula
    tree: ExpansionTree
    hgraph: HGraph
    mapping: dict[int, int]  # H_j vertex -> clause index
    verified: bool
    stages: int


def embed_H_in_G(j: int, k: int, L: int,
                 h_vertex_guard: int = DEFAULT_H_VERTEX_GUARD,
                 clause_guard: int = 200_000) -> EmbeddingResult:
    """Constructively embed H_j into the lopsidependency graph of the extremal formula.

    Variables are expanded breadth-first to tree-depth j from variable 1;
    the H_j root's left/right halves map to the positive/negative clause
    halves added when expanding variable 1, and each child copy recurses
    through the fresh variables of the parent clause.  The mapping is then
    verified to be an induced-subgraph isomorphism (edges and non-edges).
    """
    _check_params(k, L)
    if j < 0:
        raise DomainError(f"j must be >= 0, got {j}")
    hgraph = build_H(j, k, L, vertex_guard=h_vertex_guard)
    branching = (2 * L - 2) * (k - 1)
    stages = sum(branching ** d for d in range(j))
    formula, tree = build_extremal_formula(k, L, stages, clause_guard=clause_guard)
    if j == 0:
        return EmbeddingResult(formula, tree, hgraph, {}, True, stages)

    clause_order: list[int] = []

    def place(depth: int, variable: int):
        pos, neg = tree.added[variable]
        root_clauses = list(pos) + list(neg)
        clause_order.extend(root_clauses)
        if depth == 1:
            return
        for clause_idx in root_clauses:
            clause = formula.clauses[clause_idx]
            fresh = [l.variable for l in clause.literals if l.variable != variable]
            for child in fresh:
                place(depth - 1, child)

    place(j, 1)
    if len(clause_order) != hgraph.graph.n:
        raise DomainError("internal error: embedding size mismatch")
    mapping = {h_vertex: clause_order[h_vertex] for h_vertex in range(hgraph.graph.n)}

    events = events_from_formula(formula)
    lopsi = lopsidependency_graph(events)
    verified = len(set(mapping.values())) == len(mapping)
    if verified:
        for u in range(hgraph.graph.n):
            for v in range(u + 1, hgraph.graph.n):
                if hgraph.graph.has_edge(u, v) != lopsi.has_edge(mapping[u], mapping[v]):
                    verified = False
                    break
            if not verified:
                break
    return EmbeddingResult(formula, tree, hgraph, mapping, verified, stages)
