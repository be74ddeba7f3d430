"""Independent oracles and identities that only the tests use.

Each recomputes a quantity by a route other than the one ``satlll`` takes
(direct subset enumeration, a Shearer check over every independent set,
component factorization, expansion over a pivot set, the closed form of
|H_j|, H_j and H'_j built by hand and placed in the extremal formula, the
normalized recurrence and its map g on exact rationals, the threshold
curve ell, an occurrence count, the test of max phi_N >= 0 on interval
logarithms and on normalised Fractions, Newton's bracket of its maximizer
and the estimate of F_Shearer on mpmath floats, the gap's rhs by mpmath's
division, one end of a power by square-and-multiply, the violated loop
with every power cut to significant bits, the fixed-point iteration on
interval objects, a binary search for F_Shearer, a search over orderings
for the sets orderable to an event, the stage loop of the extremal
construction, an exhaustive check of a lopsidependency graph over all 2^m
assignments, satisfaction by any over each clause, mt's assignment line by
one % over the whole line), so that tests can cross-check the production
code against it.  The mpmath interval helpers they use live here too.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Sequence

import mpmath
from mpmath import iv, mp

from satlll import bounds, hj_family
from satlll.errors import CertificationError, DomainError, SizeGuardError
from satlll.events_graph import DepGraph, Event, literal_index
from satlll.hj_family import (FixedPointReport, FixedPointVerdict, _check_params,
                              recurrence_sr)
from satlll.sat_model import Formula
from satlll.cli import DEFAULT_PRECISION, DEFAULT_VERTEX_GUARD
from satlll.shearer import (ProbabilityVector, ShearerVerdict, _check_probabilities,
                            independence_polynomial)

BRUTE_FORCE_GUARD = 20
VARIABLE_GUARD = 16  # verify_lopsidependency counts all 2^m assignments


@contextmanager
def interval_precision(prec: int):
    """Temporarily set the working precision of the global iv context."""
    old = iv.prec
    iv.prec = prec
    try:
        yield iv
    finally:
        iv.prec = old


def iv_from_fraction(x: Fraction | int):
    """Enclosing interval for a rational (exact when numerator/denominator fit)."""
    x = Fraction(x)
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def certified_compare_ge(x, y, what: str) -> bool:
    """Certified x >= y; raises when the intervals overlap inconclusively."""
    if (x >= y) is True:
        return True
    if (x < y) is True:
        return False
    raise CertificationError(f"{what} not certifiable at current precision",
                             retry_precision=2 * iv.prec)


def midpoint_float(x) -> float:
    """Midpoint of an interval: each endpoint rounded, then summed and halved.

    It rounds at the mp context precision, a double's 53 bits, as
    hj_family._midpoint does; rounding only the sum would change some last bits.
    """
    lo, hi = x._mpi_
    return float((mpmath.mpf(lo) + mpmath.mpf(hi)) / 2)


def _u(t, p, k: int):
    """u = 1 - p / t^(k-1), the same expression on Fraction, mpf and iv."""
    return 1 - p / t ** (k - 1)


def enumerate_independent_sets(graph: DepGraph):
    """All independent sets, in lexicographic order of their sorted vertex lists."""

    def extend(current: tuple[int, ...], start: int):
        yield current
        for v in range(start, graph.n):
            if all(u not in graph.adjacency[v] for u in current):
                yield from extend(current + (v,), v + 1)

    yield from extend((), 0)


def induced_subgraph(graph: DepGraph, vertices: Iterable[int]) -> DepGraph:
    """Subgraph on the given vertices, relabeled 0..len-1 in sorted order."""
    kept = sorted(set(vertices))
    index = {v: i for i, v in enumerate(kept)}
    adjacency = tuple(
        frozenset(index[u] for u in graph.adjacency[v] if u in index) for v in kept)
    payloads = tuple(graph.payloads[v] for v in kept) if graph.payloads else ()
    return DepGraph(adjacency, payloads)


def q_with_base(graph: DepGraph, base: Iterable[int], p: ProbabilityVector) -> Fraction:
    """Q(G, S, p) = prod_{i in S} p_i * Z(G[V - S - N(S)]) for an independent S."""
    base_set = frozenset(base)
    region = frozenset(range(graph.n)) - base_set
    for v in base_set:
        region -= graph.adjacency[v]
    prefactor = Fraction(1)
    for v in base_set:
        prefactor *= Fraction(p[v])
    sub = induced_subgraph(graph, region)
    return prefactor * independence_polynomial(sub, [p[v] for v in sorted(region)])


def shearer_check_by_enumeration(graph: DepGraph, p: ProbabilityVector) -> ShearerVerdict:
    """Q(G, S, p) for every independent S, stopping at the first S with Q <= 0."""
    for s in enumerate_independent_sets(graph):
        value = q_with_base(graph, s, p)
        if value <= 0:
            return ShearerVerdict(False, witness=s, witness_value=value)
    return ShearerVerdict(True)


def independence_polynomial_bruteforce(graph: DepGraph, base: Iterable[int],
                                       p: ProbabilityVector,
                                       vertex_guard: int = BRUTE_FORCE_GUARD) -> Fraction:
    """Independent oracle: direct signed sum over independent supersets of S."""
    if graph.n > vertex_guard:
        raise SizeGuardError(f"graph has {graph.n} vertices, brute-force guard is {vertex_guard}")
    probs = _check_probabilities(graph, p)
    base_set = frozenset(base)
    total = Fraction(0)
    base_size = len(base_set)
    for t in enumerate_independent_sets(graph):
        if not base_set.issubset(t):
            continue
        term = Fraction(1)
        for v in t:
            term *= probs[v]
        total += term if (len(t) - base_size) % 2 == 0 else -term
    return total


def connected_components(graph: DepGraph) -> list[frozenset[int]]:
    """The vertex sets of graph's connected components, by depth-first search."""
    seen: set[int] = set()
    components = []
    for start in range(graph.n):
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(graph.adjacency[v] - comp)
        seen |= comp
        components.append(frozenset(comp))
    return components


def component_factorization(graph: DepGraph, p: ProbabilityVector,
                            vertex_guard: int = DEFAULT_VERTEX_GUARD) -> Fraction:
    """Q(G, empty, p) as the product of Q over connected components."""
    if graph.n > vertex_guard:
        raise SizeGuardError(f"graph has {graph.n} vertices, guard is {vertex_guard}")
    probs = _check_probabilities(graph, p)
    result = Fraction(1)
    for comp in connected_components(graph):
        sub = induced_subgraph(graph, comp)
        sub_p = [probs[v] for v in sorted(comp)]
        result *= independence_polynomial(sub, sub_p)
    return result


def expansion_identity(graph: DepGraph, x: Iterable[int], p: ProbabilityVector,
                       vertex_guard: int = DEFAULT_VERTEX_GUARD) -> Fraction:
    """Q(G, empty, p) expanded over a pivot set X:

    sum over independent U <= X of Q(G[V - X - N(U)], empty, p) * prod_{i in U} (-p_i)
    """
    if graph.n > vertex_guard:
        raise SizeGuardError(f"graph has {graph.n} vertices, guard is {vertex_guard}")
    probs = _check_probabilities(graph, p)
    x_set = frozenset(x)
    if not x_set <= frozenset(range(graph.n)):
        raise DomainError(f"pivot set {sorted(x_set)} not within vertex range")

    all_vertices = frozenset(range(graph.n))
    total = Fraction(0)
    x_graph = induced_subgraph(graph, x_set)
    x_sorted = sorted(x_set)
    for u_local in enumerate_independent_sets(x_graph):
        u = frozenset(x_sorted[i] for i in u_local)
        removed = set(x_set)
        for v in u:
            removed |= graph.adjacency[v]
        residual = sorted(all_vertices - removed)
        sub = induced_subgraph(graph, residual)
        sub_p = [probs[v] for v in residual]
        term = independence_polynomial(sub, sub_p)
        for v in u:
            term *= -probs[v]
        total += term
    return total


def h_vertex_count(j: int, k: int, L: int) -> int:
    """|H_j| = b (a^j - 1) / (a - 1), a = 2(L-1)(k-1) and b = 2(L-1), which solves
    |H_j| = b (1 + (k-1) |H_{j-1}|) from |H_0| = 0."""
    a, b = 2 * (L - 1) * (k - 1), 2 * (L - 1)
    return b * (a ** j - 1) // (a - 1)


def h_graph_by_recursion(j: int, k: int, L: int, prime: bool) -> DepGraph:
    """H_j, or H'_j if prime, built by hand from the recursive definition.

    A depth-j graph has a complete bipartite root with halves of sizes
    (L-1, L-1), (0, 1) for H'_j, and each root vertex is wired to the right
    root halves of k-1 fresh copies of H_{j-1}.  The root is numbered first,
    left half then right, and then each root vertex's copies in turn.
    """
    edges: list[tuple[int, int]] = []

    def build(depth: int, root: tuple[int, int], offset: int) -> tuple[range, int]:
        """Append the edges of a depth-depth graph on offset.. and return (right root, size)."""
        if depth == 0:
            return range(0), 0
        left = range(offset, offset + root[0])
        right = range(offset + root[0], offset + sum(root))
        edges.extend((u, v) for u in left for v in right)
        cursor = offset + sum(root)
        for v in (*left, *right):
            for _ in range(k - 1):
                sub_right, sub_size = build(depth - 1, (L - 1, L - 1), cursor)
                edges.extend((v, u) for u in sub_right)
                cursor += sub_size
        return right, cursor - offset

    _, n = build(j, (0, 1) if prime else (L - 1, L - 1), 0)
    return DepGraph.from_edges(n, edges)


def isomorphic_by_placement(graph: DepGraph, j: int, k: int, L: int, prime: bool) -> bool:
    """graph is h_graph_by_recursion(j, k, L, prime) placed breadth first in the
    extremal formula of S_j stages, its clauses kept in order.

    The formula comes from extremal_formula_by_stages, whose added[v] are
    the clause halves that expanding variable v added.  H_j's root goes to
    variable 1's halves, and H'_j's to clause 0; the copies below a root
    clause go, in the hand builder's order, to the halves of the clause's
    fresh variables.  A placed clause stands for its rank among the placed
    clauses.  The map must be one-to-one onto graph's vertices, and each
    vertex's neighbours must map onto exactly its image's neighbours, so
    edges and non-edges both match.
    """
    hand = h_graph_by_recursion(j, k, L, prime)
    branching = (2 * L - 2) * (k - 1)
    formula, _, added = extremal_formula_by_stages(k, L, sum(branching ** d for d in range(j)))
    clauses, order = clauses_of(formula), []  # order: the clause of each hand-built vertex

    def place(depth: int, variable: int, root: tuple[int, ...]):
        order.extend(root)
        if depth > 1:
            for clause in root:
                for child in map(abs, clauses[clause]):
                    if child != variable:
                        place(depth - 1, child, added[child][0] + added[child][1])

    if j:
        place(j, 1, added[1][0][:1] if prime else added[1][0] + added[1][1])
    rank = {clause: i for i, clause in enumerate(sorted(order))}
    image = [rank[clause] for clause in order]
    return len(rank) == len(order) == hand.n == graph.n and all(
        {image[u] for u in nbrs} == graph.adjacency[image[v]]
        for v, nbrs in enumerate(hand.adjacency))


def a_b_sequence(j: int, k: int, L: int) -> tuple[Fraction, Fraction]:
    """Exact a_j = r_j / s_{j-1}^{k-1} and b_j = 2 a_j^{L-1} - 1 from the recurrence."""
    if j < 0:
        raise DomainError(f"j must be >= 0, got {j}")
    s, r = recurrence_sr(j, k, L)
    denom = (s[j - 1] if j else 1) ** (k - 1)  # s_{-1} = 1, where s[-1] would read s_j
    if denom == 0:
        raise DomainError(f"a_{j} undefined: s_{j-1} = 0")
    a_j = r[j] / denom
    b_j = 2 * a_j ** (L - 1) - 1
    return a_j, b_j


def symmetric_lll_check(p: Fraction, d: int,
                        precision: int = DEFAULT_PRECISION) -> bool:
    """Certified test of e * p * (d + 1) <= 1."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise DomainError(f"p={p} must lie in [0,1]")
    if d < 0:
        raise DomainError(f"d must be >= 0, got {d}")
    if p == 0:
        return True
    with interval_precision(precision):
        lhs = iv.e * iv_from_fraction(p) * (d + 1)
        return certified_compare_ge(iv.mpf(1), lhs, what="symmetric LLL comparison")


@dataclass(frozen=True)
class OccurrenceProfile:
    """Per-variable counts of positive (r0) and negative (r1) literal occurrences."""

    r0: tuple[int, ...]  # indexed 1..m; slot 0 unused
    r1: tuple[int, ...]

    def R0(self, i: int) -> int:
        return self.r0[i]

    def R1(self, i: int) -> int:
        return self.r1[i]

    def R(self, i: int) -> int:
        return self.r0[i] + self.r1[i]

    @property
    def variable_count(self) -> int:
        return len(self.r0) - 1


def occurrences(formula: Formula) -> OccurrenceProfile:
    counts = Counter(formula.literals)
    slots = range(formula.variable_count + 1)  # no literal is 0, so slot 0 counts 0
    return OccurrenceProfile(tuple(counts[v] for v in slots),
                             tuple(counts[-v] for v in slots))


def validate_occurrences(formula: Formula, L: int) -> bool:
    """True iff R0(i) <= L and R1(i) <= L-1 for every variable i."""
    profile = occurrences(formula)
    return all(profile.R0(i) <= L and profile.R1(i) <= L - 1
               for i in range(1, formula.variable_count + 1))


def extremal_formula_by_stages(k: int, L: int, r: int):
    """The extremal construction, one expansion stage at a time: the formula,
    the stage that introduced each variable after 1 (parent) and, per stage
    i, the clause indices added with x_i and with ~x_i (added)."""
    literals = array("q")
    parent: dict[int, int] = {}
    added: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    next_var = 1 if r == 0 else 2  # stage 1 introduces variable 1 itself
    clause_count = 0
    for i in range(1, r + 1):
        parent.update(dict.fromkeys(range(next_var, next_var + (2 * L - 2) * (k - 1)), i))
        for literal in (i, -i):
            for _ in range(L - 1):
                literals.append(literal)
                literals.extend(range(next_var, next_var + k - 1))
                next_var += k - 1
        added[i] = (tuple(range(clause_count, clause_count + L - 1)),
                    tuple(range(clause_count + L - 1, clause_count + 2 * L - 2)))
        clause_count += 2 * L - 2
    formula = Formula(width=k, variable_count=next_var - 1 if r > 0 else 0, literals=literals)
    return formula, parent, added


def clauses_of(formula: Formula) -> list[array]:
    """Each clause i of formula, its literals[i*width:(i+1)*width]."""
    width = formula.width
    return [formula.literals[i * width:(i + 1) * width] for i in range(formula.clause_count)]


def satisfied_clause_by_clause(formula: Formula, values: bytes) -> bool:
    """Some literal of each clause is true, where values[v-1] is x_v."""
    return all(any(values[abs(z) - 1] == (z > 0) for z in clause)
               for clause in clauses_of(formula))


def assignment_line_by_format(values: bytes) -> str:
    """mt's line "1=T 2=F ...", by one % over the whole line."""
    m = len(values)
    pairs = zip(range(1, m + 1), values.translate(bytes.maketrans(b"\0\1", b"FT")).decode())
    return ("%d=%s " * m)[:-1] % tuple(chain.from_iterable(pairs))


def max_degree(graph: DepGraph) -> int:
    return max((len(nbrs) for nbrs in graph.adjacency), default=0)


def g_function(a, k: int, L: int):
    """g(a) = u(2 - a^{-(L-1)}) at p = 2^{-k}; exact on Fraction, mpf otherwise.

    Requires a > 2^{-1/(L-1)} so that the denominator base is positive.
    """
    _check_params(k, L, 0)
    p = Fraction(1, 2 ** k)
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


def power_by_squaring(x: int, n: int, P: int, up: bool) -> tuple[int, int]:
    """(m, e) with m * 2^e <= (x / 2^P)^n, or >= when up, for ints x, n >= 0.

    ``hj_family._powers`` for one end, with n read bit by bit: square-and-
    multiply, each product cut to P + 2 bits (one more when a cut rounds
    up) in the safe direction, the exponent taking the rest.
    """
    width, m, e, f = P + 2, 1, 0, -P
    while True:
        if n & 1:
            m, e = m * x, e + f
            cut = m.bit_length() - width
            if cut > 0:
                m, e = -(-m >> cut) if up else m >> cut, e + cut
        n >>= 1
        if not n:
            return m, e
        x, f = x * x, 2 * f
        cut = x.bit_length() - width
        if cut > 0:
            x, f = -(-x >> cut) if up else x >> cut, f + cut


def newton_by_descent(N: int, k: int, precision: int) -> int:
    """``hj_family._newton`` started where it fell back to before its start
    from doubles: t = 1 when q_N(1) <= 0, that is M + 1 <= 2^k for
    M = N (k-1), else t = 2.  Each power is ``power_by_squaring``'s lower end.
    From t = 1 at N = 1 it walks about k ln 2 steps before it converges."""
    W, M = precision + k, N * (k - 1)
    T = 1 << W if M + 1 <= 1 << k else 2 << W
    for _ in range(k + precision):
        m, e = power_by_squaring(T, k - 1, W, False)
        pw = m << e + k + W if e + k + W >= 0 else m >> -(e + k + W)  # 2^(k+W) t^(k-1)
        q = M * ((2 << W) - T) + T - (T * pw >> W)
        T_next = T - (q << W) // ((1 - M << W) - k * pw)
        if T_next >= T:
            break
        T = T_next
    return T >> W - precision // 2


def q_polynomial(t, N: int, c, k: int):
    """q_N(t) = N c (k-1) (2-t) + c t - t^k, which has the sign of phi_N'(t)."""
    return N * c * (k - 1) * (2 - t) + c * t - t ** k


def fraction_bracket(n: int, N: int, k: int, precision: int) -> tuple[Fraction, Fraction]:
    """a = (n - 1) / 2^h and b = (n + 1) / 2^h, h = precision // 2, with
    q_N(a) > 0 >= q_N(b) and a^(k-1) > 2^{-k} checked on normalised Fractions:
    ``hj_family._maximizer_bracket``'s check on a proposal n, with its refusal."""
    c, scale = Fraction(1, 2 ** k), 2 ** (precision // 2)
    a, b = Fraction(n - 1, scale), Fraction(n + 1, scale)
    if not (a > 0 and a ** (k - 1) > c
            and q_polynomial(a, N, c, k) > 0 >= q_polynomial(b, N, c, k)):
        raise CertificationError(
            f"no certified bracket of the maximizer of phi_{N} for k={k}: "
            f"[{float(a)}, {float(b)}]", retry_precision=2 * precision)
    return a, b


def maximizer_bracket_by_mpmath(N: int, k: int, precision: int) -> tuple[Fraction, Fraction]:
    """``hj_family._maximizer_bracket`` with Newton's method on mpmath floats
    at precision bits, rounded to nearest, and the check on Fractions after it."""
    with mp.workprec(precision):
        c_mp = mpmath.mpf(2) ** (-k)
        t = mpmath.mpf(1 if N * (k - 1) + 1 <= 2 ** k else 2)
        for _ in range(k + precision):
            slope = c_mp * (1 - N * (k - 1)) - k * t ** (k - 1)
            t_next = t - q_polynomial(t, N, c_mp, k) / slope
            if t_next >= t:
                break
            t = t_next
        n = int(t * 2 ** (precision // 2))
    return fraction_bracket(n, N, k, precision)


def phi_witness_by_fractions(N: int, k: int, precision: int) -> Optional[Fraction]:
    """``hj_family._phi_witness`` on normalised Fractions: the bracket of
    ``fraction_bracket`` on Newton's proposal, d = phi_N'(a)(b-a), 1 / (2-a) and
    (1 - d) / (2-a) reduced by gcds, and the same enclosure of u(a)^N."""
    a, b = fraction_bracket(hj_family._newton(N, k, precision), N, k, precision)
    P = precision + 8
    x = int(a * (1 << P))
    u_lo, u_hi = hj_family._u_bounds(x, x, k, hj_family._bits(k - 1), P)
    low, high = hj_family._powers(max(u_lo, 0), u_hi, hj_family._bits(N), P)
    lower = 1 / (2 - a)
    if hj_family._compare(*low, lower.numerator, lower.denominator) >= 0:
        return a
    c = Fraction(1, 2 ** k)
    d = q_polynomial(a, N, c, k) / ((2 - a) * (a ** k - c * a)) * (b - a)
    upper = (1 - d) / (2 - a)
    if hj_family._compare(*high, upper.numerator, upper.denominator) < 0:
        return None
    raise CertificationError(f"max phi_{N} >= 0 for k={k} not certifiable at current precision",
                             retry_precision=2 * precision)


def phi_witness_by_intervals(N: int, k: int, precision: int) -> Optional[Fraction]:
    """``hj_family._phi_witness`` with phi_N(a) taken in ``iv`` logarithms.

    On the same bracket a < b, phi_N(a) + [0, 1] phi_N'(a)(b-a) encloses
    max phi_N at the given precision, and its sign decides, or
    CertificationError is raised.
    """
    a, b = fraction_bracket(hj_family._newton(N, k, precision), N, k, precision)
    c = Fraction(1, 2 ** k)
    dphi_a = q_polynomial(a, N, c, k) / ((2 - a) * (a ** k - c * a))
    with interval_precision(precision):
        a_iv = iv_from_fraction(a)
        phi_a = iv.log(2 - a_iv) + N * iv.log(_u(a_iv, iv_from_fraction(c), k))
        enclosure = phi_a + iv.mpf([0, 1]) * iv_from_fraction(dphi_a * (b - a))
        if certified_compare_ge(enclosure, 0, what=f"max phi_{N} >= 0 for k={k}"):
            return a
        return None


def enclosures_by_powers(k: int, N: int, P: int):
    """``hj_family._enclosures`` with every a_j^N taken by ``_powers``, cut to
    P + 2 significant bits, and compared with 1/2 at every step."""
    one = 1 << P
    n_bits, k_bits = hj_family._bits(N), hj_family._bits(k - 1)
    powers = (1, 0), (1, 0)  # a_0^N = 1
    while True:
        inv_lo, inv_hi = hj_family._quotient(P, *powers)  # a^{-N}, over 2^P
        lo, hi = hj_family._u_bounds(2 * one - inv_hi, 2 * one - inv_lo, k, k_bits, P)
        powers = hj_family._powers(max(lo, 0), max(hi, 0), n_bits, P)
        if hj_family._compare(*powers[1], 1, 2) <= 0:
            yield lo, hi, "violated"
            return
        if hj_family._compare(*powers[0], 1, 2) <= 0:
            yield lo, hi, "inconclusive"
            return
        yield lo, hi, None


def fixed_point_bounds_by_intervals(t: Optional[Fraction], L: int, precision: int):
    """``iv`` enclosures of the threshold 2^{-1/(L-1)} and, for a witness t,
    of the lower bound c = (2-t)^{-1/(L-1)} on every a_j (None without one)."""
    with interval_precision(precision):
        threshold = iv.mpf(2) ** (iv.mpf(-2) / (2 * L - 2))
        if t is None:
            return threshold, None
        return threshold, (2 - iv_from_fraction(t)) ** (iv.mpf(-1) / (L - 1))


def fixed_point_iteration_by_intervals(k: int, L: int, max_iter: int, precision: int,
                                       enclosures: list | None = None) -> FixedPointReport:
    """``fixed_point_iteration`` with its violated loop on ``iv`` interval objects.

    Every operation goes through iv's operators at the given precision and
    compares a_j with the threshold interval, and the threshold and c are
    printed as the midpoints of their enclosures; the production loop keeps
    integer enclosures 8 bits finer and compares a_j^N with 1/2, and rounds
    the threshold and c to nearest.  From 128 bits up the reports agree bit
    for bit.  Below that iv's enclosures can be wider than a double's
    rounding cell, so printed digits may differ, and ``enclosures``, when
    given, collects each a_j's iv enclosure so that a test can check that
    the production value lies inside it.
    """
    _check_params(k, L, 0)
    t = hj_family._fixed_point_witness(L - 1, k, precision)
    if t is not None and t > 1:
        raise CertificationError(
            f"phi_{L - 1} witness t={float(t)} exceeds 1 for k={k}, so c > a_0")
    threshold, c = fixed_point_bounds_by_intervals(t, L, precision)
    with interval_precision(precision):
        threshold_mid = midpoint_float(threshold)
        trajectory = [1.0]
        if t is not None:
            verdict = FixedPointVerdict("converged", value=midpoint_float(c))
        else:
            p = iv_from_fraction(Fraction(1, 2 ** k))
            a = iv.mpf(1)
            for j in range(1, max_iter + 1):
                a_new = _u(2 - a ** (-(L - 1)), p, k)
                if enclosures is not None:
                    enclosures.append(a_new)
                trajectory.append(midpoint_float(a_new))
                if (a_new <= threshold) is True:
                    verdict = FixedPointVerdict("violated", step=j, value=midpoint_float(a_new))
                    break
                if (a_new > threshold) is not True:
                    verdict = FixedPointVerdict("inconclusive", step=j,
                                                value=midpoint_float(a_new))
                    break
                a = a_new
            else:
                verdict = FixedPointVerdict("inconclusive", step=max_iter, value=midpoint_float(a))
    return FixedPointReport(tuple(trajectory), verdict, threshold_mid)


def shearer_upper_bound_by_bisection(k: int, precision: int) -> int:
    """F_Shearer(k) by binary search over [1, 2^k] for the largest L with
    max phi_{L-1} >= 0: about k certified probes where the estimate needs
    two.  The probes take shearer_upper_bound's floor of 2k + 128 bits."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    precision = max(precision, hj_family._precision_floor(k))
    lo, hi = 1, 2 ** k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if hj_family._phi_witness(mid - 1, k, precision) is not None:
            lo = mid
        else:
            hi = mid - 1
    return lo


def shearer_estimate_by_mpmath(k: int) -> int:
    """``hj_family._shearer_estimate`` with Newton's method on psi run on
    mpmath floats at k + 64 bits, with mpmath's log and log1p."""
    with mp.workprec(k + 64):  # N < 2^k, so this resolves floor(N)
        c = mpmath.mpf(2) ** -k
        lower = c ** (mpmath.mpf(1) / (k - 1))
        t = mpmath.mpf(1)
        for _ in range(64):
            tk1 = t ** (k - 1)
            n = (t * tk1 - c * t) / (c * (k - 1) * (2 - t))
            log_u = mpmath.log1p(-c / tk1)
            dn = ((k * tk1 - c) / (c * (k - 1)) + n) / (2 - t)
            step = (mpmath.log(2 - t) + n * log_u) / (dn * log_u)
            if abs(step) < c * 2 ** -32 or not lower < t - step <= 1:
                break  # settled far below what floor(N) needs, or astray
            t -= step
        return int(n) + 1


def gap_inequality_by_fdiv(k: int, lhs: int) -> tuple[bool, float]:
    """``bounds.gap_inequality`` with rhs rounded by mpmath's fdiv to 53 bits,
    then made a float, which is inf past the float range."""
    return bounds._decide_at_e(lambda p, q: (
        (lhs + 1) * 2 * k * k * p >= 2 ** k * q,
        float(mpmath.fdiv(2 ** k * q - 2 * k * k * p, 2 * k * k * p, prec=53))))


def orderable_sets_by_search(b_index: int, events: Sequence[Event]) -> Iterator[frozenset[int]]:
    """The sets Y orderable to events[b_index], by a memoized search over
    orderings of every subset, with no peeling and no masks.

    Yields the empty set, then {B}, then the orderable sets of disagreeing
    events by size: each of the 2^c subsets of the c events that hit a
    literal of B is tested by a search, keyed on (events left, literals not
    yet hit), for an ordering in which each event hits a fresh literal.
    """
    b = events[b_index]
    yield frozenset()
    yield frozenset({b_index})

    candidates = [i for i in range(len(events))
                  if i != b_index and any(-z in events[i] for z in b)]
    literals = frozenset(b)
    memo: dict[tuple[frozenset[int], frozenset[int]], bool] = {}

    def can_order(remaining: frozenset[int], alive: frozenset[int]) -> bool:
        if not remaining:
            return True
        key = (remaining, alive)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = False
        for i in remaining:
            if any(-z in events[i] for z in alive):
                new_alive = frozenset(z for z in alive if -z not in events[i])
                if can_order(remaining - {i}, new_alive):
                    result = True
                    break
        memo[key] = result
        return result

    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            if can_order(frozenset(subset), literals):
                yield frozenset(subset)


@dataclass(frozen=True)
class LopsidependencyReport:
    ok: bool
    witness_event: Optional[int] = None  # index of the event B whose condition failed
    witness_set: Optional[tuple[int, ...]] = None  # the conditioning set S

    def __bool__(self) -> bool:
        return self.ok


def verify_lopsidependency(events: Sequence[Event], graph: DepGraph,
                           m: int) -> LopsidependencyReport:
    """Exhaustively check P(B | avoid S) <= P(B) for the uniform space on m variables.

    Exact integer counting over all 2^m assignments.  Every conditioning set
    S is tried when there are <= 12 events, else every S with |S| <= 3.
    Every variable must lie in [1, m]; DomainError otherwise.
    """
    if m > VARIABLE_GUARD:
        raise SizeGuardError(f"m={m} exceeds enumeration guard {VARIABLE_GUARD}")
    if len(events) != graph.n:
        raise DomainError("graph vertex count does not match event count")
    literal_index(events, m)  # checks that every variable lies in [1, m]
    subset_cap = len(events) if len(events) <= 12 else 3

    total = 1 << m
    # Bitmask over assignments: bit a is set iff the event holds under assignment a,
    # where bit i-1 of a is the value of variable i.
    def truth_mask(event: Event) -> int:
        mask = 0
        for a in range(total):
            if all(((a >> (abs(z) - 1)) & 1) == (z < 0) for z in event):  # each literal false
                mask |= 1 << a
        return mask

    masks = [truth_mask(e) for e in events]
    all_assignments = (1 << total) - 1

    for b in range(len(events)):
        count_b = masks[b].bit_count()
        others = [i for i in range(len(events))
                  if i != b and i not in graph.adjacency[b]]
        for size in range(1, min(subset_cap, len(others)) + 1):
            for subset in combinations(others, size):
                avoid = all_assignments
                for i in subset:
                    avoid &= ~masks[i]
                avoid &= all_assignments
                count_avoid = avoid.bit_count()
                if count_avoid == 0:
                    continue
                count_both = (avoid & masks[b]).bit_count()
                # P(B | avoid) <= P(B)  <=>  count_both * total <= count_b * count_avoid
                if count_both * total > count_b * count_avoid:
                    return LopsidependencyReport(False, b, subset)
    return LopsidependencyReport(True)
