"""Exact independence-polynomial evaluation and Shearer-criterion verdicts.

The sign decisions Q > 0 must be error-free, so all arithmetic is exact,
on integers.  One memoized function evaluates Y_W, an integer multiple of
Z_W (defined below), on vertex sets W held as ints, bit v for vertex v.
Write p_v = a_v / d_v in lowest terms and Y_W = Z_W * prod_{u in W} d_u.
With v the least vertex of W, N[v] = {v} + N(v) and C its component in
G[W] (a bit BFS that starts from N[v] & W and stops once C = W),
Z_W = Z_C * Z_{W - C} if C != W, else
Z_W = Z_{W - v} - p_v * Z_{W - N[v]}; multiplying by prod_W d_u gives

    Y_W = Y_C * Y_{W - C}                                  if C != W,
    Y_W = d_v * Y_{W - v} - a_v * D(v, W) * Y_{W - N[v]}   otherwise,

where D(v, W) = prod_{u in N(v) & W} d_u, from Y_empty = 1.  Each scale
prod_W d_u is positive, so Y_W has the sign of Z_W, and every sign test
reads Y_W directly.  (One common scale D^|W|, D the lcm of the d_v, would
also do, but its values grow much faster when the d_v differ.)  A Fraction
is formed only where a value leaves the engine: independence_polynomial
returns Z_V = Y_V / prod_V d_u, and a witness value is
Q(G, S, p) = prod_S a_v * Y_R / prod_{S + R} d_u, both exact.  The tests
keep a direct subset enumeration as an independent oracle.

Shearer verdicts are decided along one chain of vertex sets.  Write
Z_W = Q(G[W], empty, p) = sum over independent T <= W of prod_{i in T} (-p_i),
so Q(G, S, p) = prod_{i in S} p_i * Z_{V - S - N(S)}.  For p in (0,1)^n
these are equivalent (Scott & Sokal, J. Stat. Phys. 118 (2005), Thm 2.10;
used by Kolipaka & Szegedy, STOC 2011):

  (a) Q(G, S, p) > 0 for every independent S;
  (b) Z_W > 0 for every W <= V;
  (c) Z_{W_i} > 0 for the suffixes W_i = {i, ..., n-1}, i = 0..n-1.

(b) => (a) since V - S - N(S) is some W; (b) => (c) trivially.
(a) => (b): expanding Q(G, S, p) and summing over S gives
Z_W = sum over independent S <= V - W of Q(G, S, p), a sum of positive
terms that includes S = empty.
(c) => (b), by induction on n.  The suffixes W_1 > W_2 > ... are a chain
of G[W_1], so Z_U > 0 for every U <= W_1.  For U = U' + {0}, deleting 0
gives Z_U = Z_{U'} * (1 - p_0 * r(U')), r(X) = Z_{X - N(0)} / Z_X.  The
ratio r is monotone, r(U') <= r(W_1), because Z_{A - T} / Z_A grows as A
grows inside a set whose subsets all have Z > 0: adding u in T shrinks
Z_A only, and adding u not in T multiplies the ratio by
(1 - p_u r_u(A - T)) / (1 - p_u r_u(A)) >= 1, where r_u(X) = Z_{X - N(u)} / Z_X
and r_u(A - T) <= r_u(A) is the claim for the pair A - T <= A (induction on
the larger set's size).  Hence 1 - p_0 r(U') >= 1 - p_0 r(W_1) = Z_V / Z_{W_1} > 0.

So a SATISFIED verdict costs n evaluations on one memoized engine, and
the deletion of the minimum vertex computes most suffixes on the way to
Z_V.  Applied to G[R], the same test says whether some independent subset
of a region R violates, and it also finds a violation's witness.  For
independent S with region R = V - S - N(S), a vertex v in R and
R' = R - v - N(v), Q(G, S + {v} + U, p) = prod_{S + {v}} p * Q(G[R'], U, p),
so some violating set contains S + {v} exactly when the chain of R' fails.
The descent starts at S = empty and, while Q(G, S, p) > 0, moves to the
first v > max S whose R' fails.  It never backtracks.  Let T be the
lexicographically first violating set, inside S's subtree.  A failing R'
for an earlier v yields a violating S + {v} + U that lies in v's subtree
or, when U has a vertex below v, before S + {v} (before S, or in an
earlier child's subtree); either way it precedes T, which is impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CertificationError, DomainError, printable
from .events_graph import DepGraph

ProbabilityVector = Sequence[Fraction]


@dataclass(frozen=True)
class ShearerVerdict:
    satisfied: bool
    witness: Optional[tuple[int, ...]] = None  # independent set with Q <= 0
    witness_value: Optional[Fraction] = None


def _check_probabilities(graph: DepGraph, p: ProbabilityVector) -> list[Fraction]:
    if len(p) != graph.n:
        raise DomainError(f"probability vector length {len(p)} != {graph.n} vertices")
    # x = a/d in lowest terms with d > 0, so the range is checked on ints.
    probs = [x if type(x) is Fraction else Fraction(x) for x in p]
    for i, x in enumerate(probs):
        if not 0 < x.numerator < x.denominator:
            named = printable(x.numerator) and printable(x.denominator)  # str() prints x
            entry = f"p[{i}]={x}" if named else f"p[{i}]"
            raise DomainError(f"{entry} must lie in the open interval (0,1)")
    return probs


def _vertices(mask: int):
    """The vertices of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _QEngine:
    """Memoized Y_W = Z_W * prod_{u in W} d_u for vertex sets W given as int masks."""

    def __init__(self, graph: DepGraph, probs: list[Fraction]):
        self.numerators = [x.numerator for x in probs]
        self.denominators = [x.denominator for x in probs]
        self.closed = [sum(map((1).__lshift__, nbrs), 1 << v)
                       for v, nbrs in enumerate(graph.adjacency)]
        self.memo: dict[int, int] = {0: 1}

    def q(self, mask: int) -> int:
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        closed = self.closed
        low = mask & -mask
        v = low.bit_length() - 1
        component = closed[v] & mask
        frontier = component ^ low
        while frontier and component != mask:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                reach |= closed[bit.bit_length() - 1]
                frontier ^= bit
            frontier = reach & mask & ~component
            component |= frontier
        if component != mask:
            result = self.q(component) * self.q(mask & ~component)
        else:
            denominators = self.denominators
            coefficient = self.numerators[v]  # a_v * D(v, W)
            neighbours = mask & closed[v] ^ low
            while neighbours:
                bit = neighbours & -neighbours
                coefficient *= denominators[bit.bit_length() - 1]
                neighbours ^= bit
            result = (denominators[v] * self.q(mask ^ low)
                      - coefficient * self.q(mask & ~closed[v]))
        self.memo[mask] = result
        return result

    def scale(self, mask: int) -> int:
        """prod_{u in mask} d_u, so that Z_W = Fraction(q(W), scale(W))."""
        product = 1
        for u in _vertices(mask):
            product *= self.denominators[u]
        return product


def independence_polynomial(graph: DepGraph, p: ProbabilityVector) -> Fraction:
    """Z_V = Q(G, empty, p) = sum over independent T of prod_{i in T} (-p_i), p in (0,1)^n."""
    engine = _QEngine(graph, _check_probabilities(graph, p))
    vertices = (1 << graph.n) - 1
    return Fraction(engine.q(vertices), engine.scale(vertices))


def _chain_fails(engine: _QEngine, region: int) -> bool:
    """True iff some independent subset of G[region] violates Shearer's condition.

    By (a) <=> (c) on G[region]: some suffix region >> v << v has Z <= 0.
    """
    return any(engine.q(region >> v << v) <= 0 for v in _vertices(region))


def shearer_check(graph: DepGraph, p: ProbabilityVector) -> ShearerVerdict:
    """Satisfied iff Q(G, S, p) > 0 for every independent S (p in the open interval).

    Decided by the suffix chain: satisfied iff Z_{W_i} > 0 for every
    W_i = {i, ..., n-1}, evaluated from W_0 = V on one memoized engine
    (Scott & Sokal 2005, Thm 2.10; Kolipaka & Szegedy 2011; proof sketch
    in the module docstring).  On violation, the witness is the first
    failing S in lexicographic order of sorted vertex lists, found by the
    descent in the module docstring with at most n chain tests per vertex;
    it is () exactly when Z_V <= 0.
    """
    engine = _QEngine(graph, _check_probabilities(graph, p))
    region = (1 << graph.n) - 1
    if not _chain_fails(engine, region):
        return ShearerVerdict(True)
    witness: tuple[int, ...] = ()
    numerator = 1  # prod_{v in S} a_v
    while engine.q(region) > 0:
        # A v below max S never qualifies (its violating sets would precede
        # S), so skipping it only saves chain tests.
        start = witness[-1] + 1 if witness else 0
        for v in _vertices(region >> start << start):
            child = region & ~engine.closed[v]
            if _chain_fails(engine, child):
                break
        else:
            raise CertificationError("the suffix chain has Z <= 0 but no independent set "
                                     "violates Shearer's condition")
        witness += (v,)
        numerator *= engine.numerators[v]
        region = child
    # Q(G, S, p) = prod_S a_v / prod_S d_v * Y_R / prod_R d_u, with S and R disjoint.
    value = Fraction(numerator * engine.q(region),
                     engine.scale(region | sum(1 << v for v in witness)))
    return ShearerVerdict(False, witness=witness, witness_value=value)
