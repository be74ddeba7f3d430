import functools
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from mpmath.libmp import to_rational

from satlll import hj_family
from satlll.bounds import f_lll, f_mt
from satlll.cli import DEFAULT_PRECISION
from satlll.errors import CertificationError, DomainError, SizeGuardError
from satlll.events_graph import DepGraph, events_from_formula, lopsidependency_graph
from satlll.hj_family import (build_H, build_Hprime, fixed_point_iteration, recurrence_sr,
                              shearer_upper_bound)
from satlll.sat_model import DEFAULT_CLAUSE_GUARD, build_extremal_formula
from satlll.shearer import independence_polynomial, shearer_check

from conftest import MAX_ITER
from oracles import (a_b_sequence, enclosures_by_powers, fixed_point_bounds_by_intervals,
                     fixed_point_iteration_by_intervals, fraction_bracket, g_function,
                     h_graph_by_recursion, h_vertex_count, induced_subgraph,
                     isomorphic_by_placement, maximizer_bracket_by_mpmath,
                     newton_by_descent, phi_witness_by_fractions,
                     phi_witness_by_intervals, power_by_squaring, q_polynomial,
                     shearer_estimate_by_mpmath, shearer_upper_bound_by_bisection,
                     threshold_ell)


def q_uniform(hgraph, k):
    p = Fraction(1, 2 ** k)
    return independence_polynomial(hgraph.graph, [p] * hgraph.graph.n)


def test_h0_and_h1_shapes():
    assert build_H(0, 3, 4).graph.n == 0
    h1 = build_H(1, 3, 4)
    # H_1 is exactly K_{L-1,L-1}
    assert h1.graph.n == 6
    assert set(h1.graph.edges()) == {(u, v) for u in (0, 1, 2) for v in (3, 4, 5)}


def test_hprime1_is_isolated_vertex():
    hp1 = build_Hprime(1, 4, 3)
    assert hp1.graph.n == 1
    assert hp1.graph.edges() == []


def test_h2_size_k2_L2():
    assert h_vertex_count(2, 2, 2) == 6
    assert build_H(2, 2, 2).graph.n == 6


def test_size_recurrences():
    # Each count is the n of a built graph, which _build checks against its formula.
    for k, L in ((2, 2), (3, 2), (2, 3), (3, 3)):
        previous = 0  # |H_{j-1}|
        for j in range(4):  # up to H_3(3, 3), with 292 vertices
            h = build_H(j, k, L, vertex_guard=292).graph.n
            hprime = build_Hprime(j, k, L, vertex_guard=292).graph.n
            assert h_vertex_count(j, k, L) == h == 2 * (L - 1) * hprime
            assert hprime == (1 + (k - 1) * previous if j else 0)
            previous = h


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_roots_come_first_and_copies_follow_in_order(k, L):
    # The numbering isomorphic_by_placement relies on: the hand-built H_j's
    # left root is 0..L-2 and its right root L-1..2L-3, H'_j's root is
    # vertex 0, and each root vertex in turn is wired to the right roots of
    # its k-1 copies of H_{j-1}, numbered one after another after the root.
    for j in range(1, 4):
        size = h_vertex_count(j - 1, k, L)
        for prime, left, right in ((False, range(L - 1), range(L - 1, 2 * L - 2)),
                                   (True, range(0), range(1))):
            adjacency = h_graph_by_recursion(j, k, L, prime).adjacency
            start = len(left) + len(right)  # of the next copy
            for v in (*left, *right):
                expected = set(right if v in left else left)
                for _ in range(k - 1):
                    if size:
                        expected.update(range(start + L - 1, start + 2 * L - 2))
                    start += size
                assert adjacency[v] == expected, (j, v)
            assert start == len(adjacency)


def test_recurrence_base_and_first_step():
    s, r = recurrence_sr(1, 2, 2)
    assert len(s) == len(r) == 2
    assert s[0] == 1 and r[0] == 1
    assert r[1] == Fraction(3, 4)
    assert s[1] == Fraction(1, 2)


def test_s1_equals_root_polynomial():
    for k, L in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2)):
        s, _ = recurrence_sr(1, k, L)
        assert s[1] == q_uniform(build_H(1, k, L), k)


@pytest.mark.parametrize("k,L,jmax", [(2, 2, 4), (2, 3, 2), (3, 2, 2)])
def test_recurrence_matches_bruteforce(k, L, jmax):
    s, r = recurrence_sr(jmax, k, L)
    for j in range(jmax + 1):
        assert q_uniform(build_H(j, k, L), k) == s[j]
        assert q_uniform(build_Hprime(j, k, L), k) == r[j]


def test_g_at_one():
    for k, L in ((2, 2), (3, 2), (5, 4)):
        p = Fraction(1, 2 ** k)
        assert g_function(Fraction(1), k, L) == 1 - p


def test_g_matches_a_sequence_exactly():
    # a_j = g(a_{j-1}) while g stays in its domain (k=2, L=2 exits at j=3)
    a_prev = Fraction(1)
    for j in range(1, 4):
        a_j, b_j = a_b_sequence(j, 2, 2)
        assert a_j == g_function(a_prev, 2, 2)
        assert b_j == 2 * a_j - 1
        a_prev = a_j
    assert a_prev == Fraction(3, 8)


def test_b_identity_from_exact_recurrence():
    # b_j = s_j / s_{j-1}^{(k-1)(2L-2)} whenever s_{j-1} != 0
    for k, L, jmax in ((2, 2, 3), (3, 2, 2), (2, 3, 2)):
        s, _ = recurrence_sr(jmax, k, L)
        for j in range(1, jmax + 1):
            if s[j - 1] == 0:
                continue
            _, b_j = a_b_sequence(j, k, L)
            assert b_j == s[j] / s[j - 1] ** ((k - 1) * (2 * L - 2))


def test_g_domain_error():
    with pytest.raises(DomainError):
        g_function(Fraction(1, 2), 2, 2)  # exactly at the threshold for L=2


def test_exact_a_agrees_with_float_iteration():
    a = mpmath.mpf(1)
    for j in range(1, 4):
        a = g_function(a, 2, 2)
        a_exact, _ = a_b_sequence(j, 2, 2)
        assert abs(a - mpmath.mpf(a_exact.numerator) / a_exact.denominator) < 1e-12


def test_fixed_point_k2_L2_violated_at_3():
    report = fixed_point_iteration(2, 2, MAX_ITER, DEFAULT_PRECISION)
    assert report.verdict.kind == "violated"
    assert report.verdict.step == 3
    assert report.trajectory[1] == pytest.approx(0.75)
    assert report.trajectory[3] == pytest.approx(0.375)


def test_fixed_point_trajectory_decreases_when_not_converged():
    report = fixed_point_iteration(2, 2, MAX_ITER, DEFAULT_PRECISION)
    traj = report.trajectory
    assert all(traj[i] > traj[i + 1] for i in range(len(traj) - 1))


def point_iteration_minimum(k, L, steps=2000):
    """min a_j over a plain 512-bit iteration a_j = g(a_{j-1}) from a_0 = 1."""
    with mpmath.mp.workprec(512):
        p = mpmath.mpf(2) ** -k
        a = lowest = mpmath.mpf(1)
        for _ in range(steps):
            a_next = 1 - p / (2 - a ** (-(L - 1))) ** (k - 1)
            if a_next == a:  # an exact fixed point repeats for the remaining steps
                break
            a = a_next
            lowest = min(lowest, a)
        return lowest


def test_fixed_point_k9_boundary():
    # "converged" (certified without iterating) holds exactly for L <= F_Shearer;
    # every L in [2, F_MT + 1] for k = 2..12, plus the slowest boundary, k = 17
    cases = [(k, L) for k in range(2, 13) for L in range(2, f_mt(k) + 2)] + [(17, 2842)]
    sh = {k: shearer_upper_bound(k, DEFAULT_PRECISION) for k, _ in cases}
    for k, L in cases:
        report = fixed_point_iteration(k, L, MAX_ITER, DEFAULT_PRECISION)
        if L > sh[k]:
            assert report.verdict.kind == "violated", (k, L)
            continue
        assert report.verdict.kind == "converged", (k, L)
        assert report.verdict.step is None and report.trajectory == (1.0,)
        assert 2 ** (-1 / (L - 1)) < report.verdict.value <= 1, (k, L)
        assert point_iteration_minimum(k, L) >= report.verdict.value - 1e-12, (k, L)


def outcome(function, *args, **kwargs):
    """A result, or a refusal with the precision it suggests.

    The message is left out: it names the probe that failed, which differs
    between routes that probe different L.
    """
    try:
        return function(*args, **kwargs)
    except CertificationError as exc:
        return CertificationError, exc.retry_precision


def test_fixed_point_matches_interval_objects(monkeypatch):
    # The integer loop against the loop on iv objects, report for report:
    # every L in [2, F_MT + 1] for k = 2..12, and the benchmark's violated
    # (k, L) for k = 13..20.  Both call the same phi witness, so it is cached.
    monkeypatch.setattr(hj_family, "_phi_witness", functools.cache(hj_family._phi_witness))
    small = [(k, L) for k in range(2, 13) for L in range(2, f_mt(k) + 2)]
    violated = [(k, L) for k in range(13, 21)
                for L in sorted({shearer_upper_bound(k, DEFAULT_PRECISION) + 1, f_mt(k),
                                  f_mt(k) + 1})]
    runs = [(k, L, precision) for precision in (256, 512) for k, L in small]
    runs += [(k, L, 256) for k, L in violated]
    kinds = set()
    for k, L, precision in runs:
        for max_iter in (0, 1, 5, 100_000):
            got, expected = (outcome(route, k, L, max_iter=max_iter, precision=precision)
                             for route in (fixed_point_iteration,
                                           fixed_point_iteration_by_intervals))
            assert got == expected, (k, L, precision, max_iter)
            if isinstance(got, tuple):  # both refused alike
                continue
            assert repr(got) == repr(expected), (k, L, precision)  # every printed digit
            kinds.add((got.verdict.kind, max_iter))
    assert {("converged", 0), ("inconclusive", 0), ("inconclusive", 5),
            ("violated", 100_000)} <= kinds


def within_doubles(value: float, enclosure) -> bool:
    """value lies in an iv enclosure rounded outward to doubles: no double
    lies strictly between the enclosure and value."""
    lo, hi = (Fraction(*to_rational(end)) for end in enclosure._mpi_)
    below, above = (Fraction(math.nextafter(value, toward)) for toward in (-math.inf, math.inf))
    return below < hi and lo < above


def test_fixed_point_lies_in_interval_objects_at_64_bits(monkeypatch):
    # At 64 bits iv's enclosures can be wider than a double's rounding cell,
    # so the printed digits of the two routes may differ.  The verdict and
    # step must agree, and the printed threshold, converged value c and
    # every printed a_j must lie in iv's enclosure rounded outward to
    # doubles.  (A printed value can be the nearest double just outside an
    # enclosure narrower than the spacing of doubles; iv's own midpoint can
    # too.)
    monkeypatch.setattr(hj_family, "_phi_witness", functools.cache(hj_family._phi_witness))
    checked = 0
    for k in range(2, 13):
        for L in range(2, f_mt(k) + 2):
            for max_iter in (0, 1, 5, 100_000):
                enclosures = []
                got = outcome(fixed_point_iteration, k, L, max_iter=max_iter, precision=64)
                expected = outcome(fixed_point_iteration_by_intervals, k, L,
                                   max_iter=max_iter, precision=64, enclosures=enclosures)
                if isinstance(got, tuple):
                    assert got == expected, (k, L, max_iter)
                    continue
                threshold, c = fixed_point_bounds_by_intervals(
                    hj_family._fixed_point_witness(L - 1, k, 64), L, 64)
                assert within_doubles(got.threshold, threshold), (k, L)
                assert ((got.verdict.kind, got.verdict.step)
                        == (expected.verdict.kind, expected.verdict.step)), (k, L, max_iter)
                assert got.trajectory[0] == 1.0
                if got.verdict.kind == "converged":
                    assert got.trajectory == (1.0,) and within_doubles(got.verdict.value, c)
                    continue
                assert got.verdict.value == got.trajectory[-1]
                assert len(got.trajectory) == len(enclosures) + 1, (k, L, max_iter)
                for j, (value, enclosure) in enumerate(zip(got.trajectory[1:], enclosures), 1):
                    assert within_doubles(value, enclosure), (k, L, j)
                    checked += 1
    assert checked > 1000, checked


def test_phi_witness_matches_interval_logarithms():
    # The integer test of max phi_N >= 0 against the one on iv logarithms,
    # around the boundary N = F_Shearer - 1 | F_Shearer: the two agree
    # wherever the interval route decides, so the integer route never
    # refuses where it decides.
    decided = 0
    for k in [*range(2, 41), 60, 100, 133, 200]:
        F = shearer_upper_bound(k, DEFAULT_PRECISION)
        for N in range(max(F - 2, 1), F + 2):
            for precision in (64, 128, 256, 512):
                expected = outcome(phi_witness_by_intervals, N, k, precision)
                got = outcome(hj_family._phi_witness, N, k, precision)
                if isinstance(expected, tuple):  # refused by the interval route
                    continue
                assert got == expected, (k, N, precision)
                decided += 1
    assert decided > 600, decided


def test_power_loop_matches_single_end_runs():
    # _powers takes both ends in one loop driven by the exponent's bit
    # schedule; its integers must be exactly those of square-and-multiply
    # run once for each end, whose roughly 2^-P rounding errors the loop
    # must not reorder.
    rng = random.Random(20)
    for P in (72, 136, 264, 536):
        exponents = {1, 2, rng.randrange(3, 1 << 64)}
        exponents |= {2 ** j + d for j in (2, 5, 17, 64, 193) for d in (0, -1)}
        for n in exponents:
            bits = hj_family._bits(n)
            near_one = (1 << P) - rng.randrange(1 << P - 8)
            for lo in (0, near_one, rng.randrange(1 << P), rng.randrange(3 << P)):
                for hi in {lo, lo + rng.randrange(1 << 40), lo + rng.randrange(1 << P)}:
                    expected = (power_by_squaring(lo, n, P, False),
                                power_by_squaring(hi, n, P, True))
                    assert hj_family._powers(lo, hi, bits, P) == expected, (lo, hi, n, P)


def bracket_as_fractions(N, k, precision):
    """hj_family._maximizer_bracket's (a, b), after checking the lower end of
    a^(k-1) it returns with them: square-and-multiply's at h = precision // 2."""
    A, low = hj_family._maximizer_bracket(N, k, precision)
    h = precision // 2
    assert low == power_by_squaring(A, k - 1, h, False), (N, k, precision)
    return Fraction(A, 2 ** h), Fraction(A + 2, 2 ** h)


def straddled(A, N, k, h) -> int:
    """How many of _maximizer_bracket's three tests at a = A / 2^h and
    b = (A + 2) / 2^h its enclosures of a^(k-1) and b^(k-1) at h + 2 bits
    leave to exact ints: the domain, Q(A) > 0 and Q(A + 2) <= 0."""
    M, B = N * (k - 1), A + 2
    tests = [(A, 1, 1 << k), (A, M * ((2 << h) - A) + A, A << k),
             (B, M * ((2 << h) - B) + B, B << k)]
    count = 0
    for X, num, den in tests:
        low, high = hj_family._powers(X, X, hj_family._bits(k - 1), h)
        count += hj_family._compare(*low, num, den) <= 0 <= hj_family._compare(*high, num, den)
    return count


def test_maximizer_bracket_matches_mpmath_newton():
    # Newton on integers at precision + k bits against Newton on mpmath
    # floats at precision bits: the same brackets and the same refusals.
    # Near N = F_Shearer and F_MT at the working precisions (64 bits and
    # up), where neither refuses; for phi_1 and phi_2 at k = 60, 100 and
    # 200 at 64 and 2k + 128 bits, where the descent from t = 1 is longest;
    # and for phi_1 and phi_2 at k = 60 and 100 at 8 and 10 bits, where both
    # refuse six.  The check on ints must also decide as the check on
    # Fractions does on the same proposal, also where its enclosures leave
    # a test to exact ints.
    cases = []
    for k in [*range(2, 41), 60, 100, 133, 137, 200]:
        F = SHEARER_SAMPLES.get(k) or shearer_upper_bound(k, DEFAULT_PRECISION)
        near = {N for N in (F - 1, F, f_mt(k), f_mt(k) + 1) if N >= 1}
        cases += [(N, k, bits) for bits in (64, 80, 128, 2 * k + 128) for N in near]
    cases += [(N, k, bits) for k in (60, 100, 200) for bits in (64, 2 * k + 128) for N in (1, 2)]
    cases += [(N, k, bits) for k in (60, 100) for bits in (8, 10) for N in (1, 2)]
    refused = exact = 0
    for N, k, bits in cases:
        got, expected = (outcome(route, N, k, bits)
                         for route in (bracket_as_fractions, maximizer_bracket_by_mpmath))
        assert got == expected, (N, k, bits)
        assert got == outcome(fraction_bracket, hj_family._newton(N, k, bits), N, k, bits)
        refused += got[0] is CertificationError
        if got[0] is not CertificationError:
            exact += straddled(int(got[0] * 2 ** (bits // 2)), N, k, bits // 2)
    assert refused == 6, refused
    assert exact > 40, exact


def test_side_falls_back_to_exact_ints():
    # With an enclosure that holds every value, _side must decide each sign
    # on exact ints, and with _powers' own enclosure it must decide the same.
    rng = random.Random(38)
    for _ in range(300):
        k, h = rng.randrange(2, 40), rng.choice((4, 8, 32, 100))
        X, den = rng.randrange(1, 3 << h), rng.randrange(1, 1 << 40)
        exact_power = Fraction(X, 1 << h) ** (k - 1)
        num = max(1, math.floor(exact_power * den) + rng.randrange(-2, 3))
        expected = sign(exact_power - Fraction(num, den))
        everything = (0, 0), (1, (k - 1) * (h + 2))  # [0, 2^((k-1)(h+2))]
        assert hj_family._side(X, k, h, num, den, everything) == expected, (X, k, h, num, den)
        power = hj_family._powers(X, X, hj_family._bits(k - 1), h)
        assert hj_family._side(X, k, h, num, den, power) == expected, (X, k, h, num, den)


def test_newton_matches_descent_from_one_or_two():
    # _newton starts from _log_root's double, raised by 2^-40, where it used
    # to start from t = 1 or 2: the proposals must be the same.  The double
    # must lie above the root of q_N wherever it is given, so the loop never
    # refuses it, and it must be given almost everywhere.
    given = 0
    for k in range(2, 61):
        F = SHEARER_SAMPLES.get(k) or shearer_upper_bound(k, DEFAULT_PRECISION)
        for N in {N for N in (1, 2, F - 1, F, f_mt(k), f_mt(k) + 1) if N >= 1}:
            for bits in (64, 80, 128, 2 * k + 128):
                assert hj_family._newton(N, k, bits) == newton_by_descent(N, k, bits), (N, k, bits)
                W = bits + k
                if (T := hj_family._log_root(N * (k - 1), k, W)) is not None:
                    q = q_polynomial(Fraction(T, 1 << W), N, Fraction(1, 2 ** k), k)
                    assert q <= 0, (N, k, bits)
                    given += 1
    assert given > 1200, given


def test_bracket_and_witness_at_large_k_match_fractions():
    # At k = 300 and 640, 2k + 128 bits, around F_Shearer and at F_MT: the
    # bracket on enclosures and the phi test against the same tests on
    # normalised Fractions, whose a^k has about 450 000 bits at k = 640.
    kinds = Counter()
    for k in (300, 640):
        F, bits = shearer_upper_bound(k, DEFAULT_PRECISION), 2 * k + 128
        for N in (F - 1, F, F + 1, f_mt(k)):
            got = refusal(hj_family._phi_witness, N, k, bits)
            assert got == refusal(phi_witness_by_fractions, N, k, bits), (N, k)
            kinds["witness" if got is not None else "none"] += 1
    assert kinds == {"witness": 2, "none": 6}, kinds


def test_refutation_falls_back_to_exact_ints():
    # Two probes at 12 bits whose refutation the lower end of a^(k-1) at
    # h + 2 bits leaves open, and the exact a^(k-1) decides.
    for N, k in ((4, 6), (40, 10)):
        precision, h = 12, 6
        assert hj_family._phi_witness(N, k, precision) is None
        assert phi_witness_by_fractions(N, k, precision) is None
        A, low = hj_family._maximizer_bracket(N, k, precision)
        a, c = Fraction(A, 1 << h), Fraction(1, 2 ** k)

        def bound(z):  # (1 - phi_N'(a)(b-a)) / (2-a) at a^(k-1) = z
            q = N * c * (k - 1) * (2 - a) + c * a - a * z
            return (1 - q / ((2 - a) * (a * z - c * a)) * Fraction(2, 1 << h)) / (2 - a)

        P = precision + 8
        u_lo, u_hi = hj_family._u_bounds(A << P - h, A << P - h, k, hj_family._bits(k - 1), P)
        high = hj_family._powers(max(u_lo, 0), u_hi, hj_family._bits(N), P)[1]
        assert compare(*high, bound(exact(low))) >= 0 > compare(*high, bound(a ** (k - 1)))


def refusal(function, *args):
    """function(*args), or its CertificationError's message and retry precision."""
    try:
        return function(*args)
    except CertificationError as exc:
        return str(exc), exc.retry_precision


def test_phi_witness_matches_fractions():
    # The phi test on ints against the same test on normalised Fractions,
    # probe for probe, refusals with their text: N = 1, 2 and N near F_LLL,
    # F_Shearer and F_MT for k = 2..40, at the working precisions and at 8
    # bits, where the Fraction check refuses the brackets of phi_1 for
    # k = 33..40 and the final test refuses over a hundred probes.
    kinds = Counter()
    for k in range(2, 41):
        F = SHEARER_SAMPLES.get(k) or shearer_upper_bound(k, DEFAULT_PRECISION)
        for N in sorted({1, 2, f_lll(k), F - 1, F, f_mt(k)} - {0}):
            for precision in (8, 64, 2 * k + 128):
                got = refusal(hj_family._phi_witness, N, k, precision)
                assert got == refusal(phi_witness_by_fractions, N, k, precision), (N, k, precision)
                if isinstance(got, tuple):
                    kinds["bracket" if got[0].startswith("no certified bracket") else "test"] += 1
                else:
                    kinds["witness" if got is not None else "none"] += 1
    assert kinds["bracket"] == 8 and kinds["test"] > 100, kinds
    assert kinds["witness"] > 100 and kinds["none"] > 100, kinds


def exact(bound):
    m, e = bound
    return Fraction(m) * Fraction(2) ** e


def sign(x) -> int:
    return (x > 0) - (x < 0)


HALF = Fraction(1, 2)


def compare(m, e, x: Fraction) -> int:
    return hj_family._compare(m, e, x.numerator, x.denominator)


def test_directed_helpers_bound_exact_values():
    # The integer loop rounds only inside these helpers, and a rounding
    # flipped there can be hidden in the loop by the coarser roundings after
    # it, so each helper is checked alone against exact rationals, on inputs
    # where its roundings are inexact.
    rng = random.Random(16)
    P = 20
    for _ in range(400):
        lo = rng.randrange(1 << P + 1)
        hi = lo + rng.randrange(1 << P)
        n = rng.randrange(1, 50)
        below, above = hj_family._powers(lo, hi, hj_family._bits(n), P)
        x_lo, x_hi = Fraction(lo, 1 << P) ** n, Fraction(hi, 1 << P) ** n
        assert x_lo - x_lo * n / 2 ** P <= exact(below) <= x_lo, (lo, n)
        assert x_hi <= exact(above) <= x_hi + x_hi * n / 2 ** P, (hi, n)
        assert max(below[0], above[0]).bit_length() <= P + 3
        low = (rng.randrange(1, 1 << 30), rng.randrange(-60, 10))
        high = (low[0] * 2 ** 40 + rng.randrange(1 << 40), low[1] - 40)
        for shift in range(-70, 30, 7):
            q_lo, q_hi = hj_family._quotient(shift, low, high)
            assert 0 <= Fraction(2) ** shift / exact(high) - q_lo < 1, (shift, low, high)
            assert 0 <= q_hi - Fraction(2) ** shift / exact(low) < 1, (shift, low, high)
        # u(t) = 1 - 2^{-k} / t^{k-1}, over 2^P: off by at most 1 plus twice
        # the powers' relative error on 2^{-k} / t^{k-1}
        k = rng.randrange(2, 12)
        u_lo, u_hi = hj_family._u_bounds(lo, hi, k, hj_family._bits(k - 1), P)
        for t, end, outward in ((hi, u_hi, 1), (lo, u_lo, -1)):
            if not t:
                assert end == -math.inf
                continue
            q = Fraction(2 ** (P - k)) / Fraction(t, 1 << P) ** (k - 1)
            assert 0 <= outward * (end - ((1 << P) - q)) <= 1 + 2 * k * q / 2 ** P, (t, k)
        m, e = rng.randrange(1 << rng.randrange(1, 80)), rng.randrange(-90, 90)
        x = Fraction(rng.randrange(-5, 1 << 60), rng.randrange(1, 1 << 40))
        assert compare(m, e, x) == sign(exact((m, e)) - x), (m, e, x)
        assert compare(m, e, exact((m, e))) == 0, (m, e)
        # num / den need not be in lowest terms
        f = rng.randrange(1, 1 << rng.randrange(1, 70))
        assert (hj_family._compare(m, e, x.numerator * f, x.denominator * f)
                == sign(exact((m, e)) - x)), (m, e, x, f)
    assert hj_family._quotient(5, (0, 3), (1, 0)) == (32, math.inf)
    for m, e, x in [(0, 5, Fraction(0)), (0, 5, Fraction(-1, 3)), (0, -3, Fraction(1, 9)),
                    (5, -700, Fraction(-1, 3)), (3, -2, Fraction(3, 4)), (3, -1, Fraction(3, 4)),
                    (3, -3, Fraction(3, 4))]:
        assert compare(m, e, x) == sign(exact((m, e)) - x), (m, e, x)
    for m, e in [(1, -1), (2, -2), (3, -2), (1, 0), (0, 7), (5, 3), (2 ** 70, -71),
                 (2 ** 70 + 1, -71), (2 ** 70 - 1, -71), (3, -3), (7, -3)]:
        assert compare(m, e, HALF) == sign(exact((m, e)) - HALF), (m, e)
    # a^N for a < 1 and N near 2^k: the exponent is far beyond any shift
    assert compare(2 ** 90 + 1, -10 ** 30, HALF) == -1
    assert compare(1, 10 ** 30, HALF) == 1
    # u(a)^N at k = 200, N = F_Shearer(200) - 1 and 64 bits (P = 72): the
    # exponent of its lower end is near -2^118, so 2^e cannot be formed
    N = 2955834144021611738375928619524554769177806039044019000189
    a, _ = bracket_as_fractions(N, 200, 64)
    x = int(a * 2 ** 72)
    u_lo, u_hi = hj_family._u_bounds(x, x, 200, hj_family._bits(199), 72)
    low, high = hj_family._powers(u_lo, u_hi, hj_family._bits(N), 72)
    assert low[1] < -2 ** 118
    assert compare(*low, 1 / (2 - a)) == -1
    assert compare(*high, 1 / (2 - a)) == 1


def test_fixed_point_at_large_k_matches_interval_objects():
    # N = L-1 near 2^92 (k = 100) and 2^193 (k = 200): a power of an a_j < 1
    # has a binary exponent far too large to shift by, and a_j can end far
    # below -1.  At (60, 7099884519254838), one L below where the run
    # shortens by a step, a_66^N lies just above 1/2 and a_67 < -2^2000
    # prints as -inf.
    cases = [(100, f_mt(100)), (100, 4683722612945310257985972165),
             (100, 4674074463683712906417882376), (200, f_mt(200) + 1),
             (60, 7099884519254838)]
    reports = []
    for k, L in cases:
        got, expected = (route(k, L, MAX_ITER, 2 * k + 128)
                         for route in (fixed_point_iteration,
                                       fixed_point_iteration_by_intervals))
        assert repr(got) == repr(expected), (k, L)
        reports.append(got.verdict)
    assert [(v.kind, v.step) for v in reports] == [
        ("violated", 62), ("violated", 67), ("violated", 93), ("violated", 88),
        ("violated", 67)]
    assert reports[2].value < -1e37
    assert reports[4].value == -math.inf


def test_midpoint_rounds_each_end_and_survives_overflow():
    assert hj_family._midpoint(3, 5, 2) == 1.0
    # each end is rounded before the sum, as in midpoint_float: the exact
    # midpoint 2^53 + 3/2 would round to 2^53 + 2
    assert hj_family._midpoint(2, 2 ** 55 + 4, 1) == 2.0 ** 53
    # a_j = 1 - 2^{-k} / base^{k-1} can fall below -2^1024, or to -inf
    assert hj_family._midpoint(-(1 << 1100), 1 << 9, 10) == -math.inf
    assert hj_family._midpoint(-math.inf, 5, 3) == -math.inf


# (k, L, exact steps): whole runs, ending violated (at a negative a_3 for
# (3, 3)), and then the first steps of two longer runs.
WHOLE_RUNS = ((2, 2, 3), (3, 3, 3), (4, 3, 5))
FIRST_STEPS = ((5, 4, 4), (6, 5, 3))


@pytest.mark.parametrize("precision", [64, 256])
def test_integer_enclosures_contain_exact_iterates(precision):
    # g on exact rationals against the integer enclosures at P = precision + 8.
    P = precision + 8
    for k, L, steps in WHOLE_RUNS + FIRST_STEPS:
        whole = (k, L, steps) in WHOLE_RUNS
        items = list(islice(hj_family._enclosures(k, L - 1, P), steps + 1))
        assert len(items) == steps if whole else len(items) > steps, (k, L)
        assert [kind for _, _, kind in items[:steps]] == (
            [None] * (steps - 1) + ["violated" if whole else None]), (k, L)
        a = Fraction(1)
        for j, (lo, hi, _) in enumerate(items[:steps], 1):
            a = g_function(a, k, L)
            assert lo <= a * 2 ** P <= hi, (k, L, j, precision)
            assert hi - lo < 2 ** 24, (k, L, j, precision)


def test_coarse_enclosures_decide_only_what_the_exact_iterates_show():
    # With a few bits the enclosures straddle the threshold, and such a step
    # must end the run "inconclusive": "violated" and going on must agree
    # with the exact iterate, which every enclosure still contains.
    kinds = set()
    for P in range(4, 41):
        for k, L, steps in WHOLE_RUNS:
            a = Fraction(1)
            for lo, hi, kind in islice(hj_family._enclosures(k, L - 1, P), steps):
                a = g_function(a, k, L)
                assert lo <= a * 2 ** P <= hi, (k, L, P)
                above = a > 0 and 2 * a ** (L - 1) > 1
                assert kind == "inconclusive" or (kind is None) == above, (k, L, P)
                kinds.add(kind)
    assert kinds == {None, "violated", "inconclusive"}


def test_enclosures_match_powers_cut_to_significant_bits():
    # _enclosures cuts a_j^N at 2^-(P+2) while its lower end stays above
    # 1/2, and decides the last step on that fixed-point upper end; the
    # reference takes every power with _powers, cut to significant bits, and
    # compares it with 1/2 at every step.  Item for item: the first 8 items at
    # k = 2..40, L in {2, 3, F_Shearer + 1, F_Shearer + 2, F_MT, F_MT + 1}
    # and five P (L = 2 and 3 converge for k >= 4 and never end), the
    # whole runs of the benchmark's (9, 22) and (20, 19312), which end
    # violated at steps 389 and 1030, and two runs that end inconclusive
    # where the lower end of a_j^N is exactly 1/2.
    ends = Counter()
    for k in range(2, 41):
        F = SHEARER_SAMPLES.get(k) or shearer_upper_bound(k, DEFAULT_PRECISION)
        for L in sorted({2, 3, F + 1, F + 2, f_mt(k), f_mt(k) + 1}):
            for P in (20, 40, 72, 136, 264):
                got = list(islice(hj_family._enclosures(k, L - 1, P), 8))
                assert got == list(islice(enclosures_by_powers(k, L - 1, P), 8)), (k, L, P)
                ends[got[-1][2]] += 1
    assert ends["violated"] > 50 and ends["inconclusive"] > 50, ends
    for k, L, P, steps, kind in ((9, 22, 72, 389, "violated"), (20, 19312, 72, 1030, "violated"),
                                 (3, 2, 2, 2, "inconclusive"), (8, 11, 4, 1, "inconclusive")):
        got = list(hj_family._enclosures(k, L - 1, P))
        assert got == list(enclosures_by_powers(k, L - 1, P)), (k, L)
        assert (len(got), got[-1][2]) == (steps, kind), (k, L)


def test_shearer_upper_bound_matches_bisection():
    for precision in (64, 256):
        for k in range(2, 41):
            assert (outcome(shearer_upper_bound, k, precision)
                    == outcome(shearer_upper_bound_by_bisection, k, precision)), (k, precision)
    assert shearer_upper_bound(200, 256) == shearer_upper_bound_by_bisection(200, 256)
    # Below the routes' floor of 2k + 128 bits, the probe of F_Shearer(200)
    # itself is refused.
    with pytest.raises(CertificationError) as refused:
        hj_family._phi_witness(2955834144021611738375928619524554769177806039044019000189,
                               200, 256)
    assert refused.value.retry_precision == 512


def count_probes(monkeypatch) -> list:
    calls = []
    probe = hj_family._phi_witness

    def counted(N, k, precision):
        calls.append(N)
        return probe(N, k, precision)

    monkeypatch.setattr(hj_family, "_phi_witness", counted)
    return calls


def test_shearer_upper_bound_takes_two_probes(monkeypatch):
    calls = count_probes(monkeypatch)
    for k in range(2, 121):
        calls.clear()
        F = shearer_upper_bound(k, 256)
        assert len(calls) <= 2, (k, calls)
        assert calls[-1] == F, k  # the probe of F + 1, which fails


def test_shearer_estimate_matches_mpmath_newton():
    # Newton on psi in fixed point at 2k + 64 bits against Newton on mpmath
    # floats at k + 64 bits, with mpmath's logarithms.
    for k in range(2, 201):
        assert hj_family._shearer_estimate(k) == shearer_estimate_by_mpmath(k), k


def test_shearer_upper_bound_survives_a_wrong_estimate(monkeypatch):
    # The estimate only picks the probes: every wrong guess still gives F,
    # and a guess off by d costs the two probes plus a binary search.
    calls = count_probes(monkeypatch)
    for k in (2, 5, 9, 12, 20):
        F = shearer_upper_bound_by_bisection(k, 256)
        for guess in (1, 2 ** k, F - 7, F + 7):
            monkeypatch.setattr(hj_family, "_shearer_estimate", lambda _k: guess)
            calls.clear()
            assert shearer_upper_bound(k, 256) == F, (k, guess)
            assert len(calls) <= k + 2, (k, guess)


def test_threshold_ell_values():
    assert threshold_ell(1, 9) == 1
    # ell(1/2) = 1 - ln(3/2) / ln(1/2) at k = 9
    assert threshold_ell(Fraction(1, 2), 9) == pytest.approx(1 + mpmath.log(1.5, 2), rel=1e-15)
    # near the k = 9 maximizer ell is 21.9977..., 0.0022 below the next integer
    assert 21.997 < threshold_ell(Fraction(894, 1000), 9) < 22
    value = threshold_ell(mpmath.mpf(1) - mpmath.mpf(1) / 9, 9)
    assert 21 < value < 22
    assert float(value) == pytest.approx(21.9718720951, rel=1e-9)


def test_threshold_ell_domain():
    with pytest.raises(DomainError):
        threshold_ell(3, 9)
    with pytest.raises(DomainError):
        threshold_ell(2 ** (-9 / 8) / 2, 9)  # below the domain lower bound


SHEARER_SAMPLES = {
    2: 1, 3: 1, 4: 2, 5: 3, 6: 4, 7: 7, 8: 12, 9: 21, 12: 126,
    21: 36779, 22: 70207, 23: 134297, 24: 257383, 25: 494143,
    26: 950220, 27: 1829958, 28: 3529041, 29: 6814417, 30: 13174046,
}


def test_shearer_upper_bound_table_samples():
    for precision in (64, 256):
        for k, expected in SHEARER_SAMPLES.items():
            assert shearer_upper_bound(k, precision) == expected, (k, precision)


def test_shearer_upper_bound_refuses_without_precision():
    # shearer_upper_bound probes at 188 bits or more for k = 30; a probe at
    # 8 bits cannot decide.
    with pytest.raises(CertificationError) as refused:
        hj_family._phi_witness(SHEARER_SAMPLES[30] - 1, 30, 8)
    assert refused.value.retry_precision == 16


def test_embed_j0_trivial():
    for build, prime in ((build_H, False), (build_Hprime, True)):
        graph = build(0, 3, 2).graph
        assert graph.n == 0
        assert isomorphic_by_placement(graph, 0, 3, 2, prime)


def test_embed_j1_k3_L2():
    # H_1 is K_{1,1}: the stage-1 clauses with x_1 and with ~x_1.
    graph = build_H(1, 3, 2).graph
    assert graph.edges() == [(0, 1)]
    assert graph.payloads == ((1, 2, 3), (-1, 4, 5))
    assert isomorphic_by_placement(graph, 1, 3, 2, False)


@pytest.mark.parametrize("build,prime", [(build_H, False), (build_Hprime, True)],
                         ids=["H", "H'"])
def test_embed_formula_graphs_are_the_hand_built_graphs(build, prime):
    shapes = [(k, L) for k in (2, 3) for L in (2, 3)] + [(4, 2), (2, 4)]
    for j in range(4):
        for k, L in shapes:
            n = h_vertex_count(j, k, L)
            if n <= 300:
                assert isomorphic_by_placement(build(j, k, L, vertex_guard=n).graph,
                                               j, k, L, prime), (j, k, L)


def test_the_first_clauses_of_a_deeper_formula_induce_H_j():
    # H_j sits in the lopsidependency graph of every deeper extremal formula,
    # where Shearer then fails with it: as its first |H_j| clauses, unchanged.
    for j, k, L in ((3, 2, 2), (2, 3, 2), (2, 2, 3), (1, 4, 3)):
        h = build_H(j, k, L).graph
        stages = h_vertex_count(j + 1, k, L) // (2 * L - 2)
        formula = build_extremal_formula(k, L, stages, DEFAULT_CLAUSE_GUARD)
        deeper = lopsidependency_graph(events_from_formula(formula))
        assert deeper.n > h.n
        assert induced_subgraph(deeper, range(h.n)) == h, (j, k, L)


@pytest.mark.parametrize("build,prime", [(build_H, False), (build_Hprime, True)],
                         ids=["H", "H'"])
@pytest.mark.parametrize("h_edge", [True, False], ids=["drop-image-edge", "add-image-non-edge"])
def test_embed_refuses_a_wrong_lopsidependency_graph(monkeypatch, build, prime, h_edge):
    # Toggle one pair of clauses in the lopsidependency graph build reads:
    # an edge of H_2's image goes missing, or a non-edge gains an edge.
    good = build(2, 3, 2).graph
    assert isomorphic_by_placement(good, 2, 3, 2, prime)
    pair = next((u, v) for u in range(good.n) for v in range(u + 1, good.n)
                if (v in good.adjacency[u]) == h_edge)
    lopsided = hj_family.lopsidependency_graph

    def toggled(events):
        graph = lopsided(events)
        edges = [e for e in graph.edges() if e != pair]
        return DepGraph.from_edges(graph.n, edges if h_edge else edges + [pair])

    monkeypatch.setattr(hj_family, "lopsidependency_graph", toggled)
    assert isomorphic_by_placement(build(2, 3, 2).graph, 2, 3, 2, prime) is False


def test_build_guard():
    with pytest.raises(SizeGuardError):
        build_H(3, 3, 3, vertex_guard=50)
    # j beyond the guard is refused without counting 2^j-sized vertex sets.
    for build in (build_H, build_Hprime):
        with pytest.raises(SizeGuardError, match="at least 10000000 vertices, guard is 40"):
            build(10 ** 7, 2, 2, vertex_guard=40)


def test_the_formula_route_adds_no_refusal():
    # 200 vertices, past no guard, though their formula has 200001
    # variables, more than DEFAULT_CLAUSE_GUARD.
    assert h_vertex_count(1, 1001, 101) == 200 < DEFAULT_CLAUSE_GUARD < 200 * 1000 + 1
    assert build_H(1, 1001, 101, vertex_guard=200).graph.n == 200


# (k, L): fixedpoint's violated step j, |H_{j-1}| and |H_j|.
VIOLATED_AT = {(2, 2): (3, 6, 14), (3, 3): (3, 36, 292), (3, 4): (2, 6, 78),
               (4, 5): (2, 8, 200), (2, 3): (2, 4, 20), (2, 4): (1, 0, 6),
               (3, 5): (2, 8, 136), (4, 6): (2, 10, 310), (5, 8): (2, 14, 798)}


@pytest.mark.parametrize("k,L", VIOLATED_AT)
def test_fixed_point_step_is_the_first_depth_where_shearer_fails(k, L):
    # Fact 6's interval iteration and the exact engine on one column.
    step, holds, fails = VIOLATED_AT[k, L]
    verdict = fixed_point_iteration(k, L, 1000, 64).verdict
    assert (verdict.kind, verdict.step) == ("violated", step)
    p = Fraction(1, 2 ** k)
    for j, n, satisfied in ((step - 1, holds, True), (step, fails, False)):
        graph = build_H(j, k, L, vertex_guard=n).graph
        assert graph.n == n
        assert shearer_check(graph, [p] * n).satisfied is satisfied, j


@pytest.mark.parametrize("k,L,deepest", [(4, 2, 518), (5, 3, 68), (6, 4, 186)])
def test_shearer_holds_below_1000_vertices_where_the_fixed_point_converges(k, L, deepest):
    assert fixed_point_iteration(k, L, 1000, 64).verdict.kind == "converged"
    depths = [j for j in range(20) if h_vertex_count(j, k, L) < 1000]
    assert h_vertex_count(depths[-1], k, L) == deepest
    p = Fraction(1, 2 ** k)
    for j in depths:
        graph = build_H(j, k, L, vertex_guard=deepest).graph
        assert shearer_check(graph, [p] * graph.n).satisfied, j
