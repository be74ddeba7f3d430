from fractions import Fraction

import mpmath
import pytest

from satlll.errors import CertificationError, DomainError, SizeGuardError
from satlll.hj_family import (a_b_sequence, build_H, build_Hprime, embed_H_in_G,
                              fixed_point_iteration, g_function, h_vertex_count,
                              hprime_vertex_count, recurrence_sr,
                              shearer_upper_bound, threshold_ell)
from satlll.shearer import independence_polynomial


def q_uniform(hgraph, k):
    p = Fraction(1, 2 ** k)
    return independence_polynomial(hgraph.graph, (), [p] * hgraph.graph.n)


def test_h0_and_h1_shapes():
    h0 = build_H(0, 3, 4)
    assert h0.graph.n == 0 and h0.root_left == () and h0.root_right == ()
    h1 = build_H(1, 3, 4)
    # H_1 is exactly K_{L-1,L-1}
    assert h1.graph.n == 6
    assert set(h1.graph.edges()) == {(u, v) for u in (0, 1, 2) for v in (3, 4, 5)}


def test_hprime1_is_isolated_vertex():
    hp1 = build_Hprime(1, 4, 3)
    assert hp1.graph.n == 1
    assert hp1.graph.edges() == []
    assert hp1.root_right == (0,)


def test_h2_size_k2_L2():
    assert h_vertex_count(2, 2, 2) == 6
    assert build_H(2, 2, 2).graph.n == 6


def test_size_recurrences():
    for k, L in ((2, 2), (3, 2), (2, 3), (3, 3)):
        expected = 0
        for j in range(4):
            assert h_vertex_count(j, k, L) == expected
            assert hprime_vertex_count(j + 1, k, L) == 1 + (k - 1) * expected
            expected = 2 * (L - 1) * (1 + (k - 1) * expected)


def test_root_is_complete_bipartite():
    h = build_H(2, 3, 3)
    for u in h.root_left:
        for v in h.root_right:
            assert h.graph.has_edge(u, v)
    for u in h.root_left:
        for v in h.root_left:
            assert not h.graph.has_edge(u, v) or u == v


def test_recurrence_base_and_first_step():
    state = recurrence_sr(1, 2, 2)
    assert state.s(-1) == 1 and state.s(0) == 1 and state.r(0) == 1
    assert state.r(1) == Fraction(3, 4)
    assert state.s(1) == Fraction(1, 2)


def test_s1_equals_root_polynomial():
    for k, L in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2)):
        state = recurrence_sr(1, k, L)
        assert state.s(1) == q_uniform(build_H(1, k, L), k)


@pytest.mark.parametrize("k,L,jmax", [(2, 2, 4), (2, 3, 2), (3, 2, 2)])
def test_recurrence_matches_bruteforce(k, L, jmax):
    state = recurrence_sr(jmax, k, L)
    for j in range(jmax + 1):
        assert q_uniform(build_H(j, k, L), k) == state.s(j)
        assert q_uniform(build_Hprime(j, k, L), k) == state.r(j)


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
        state = recurrence_sr(jmax, k, L)
        for j in range(1, jmax + 1):
            if state.s(j - 1) == 0:
                continue
            _, b_j = a_b_sequence(j, k, L)
            assert b_j == state.s(j) / state.s(j - 1) ** ((k - 1) * (2 * L - 2))


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
    report = fixed_point_iteration(2, 2)
    assert report.verdict.kind == "violated"
    assert report.verdict.step == 3
    assert report.trajectory[1] == pytest.approx(0.75)
    assert report.trajectory[3] == pytest.approx(0.375)


def test_fixed_point_trajectory_decreases_when_not_converged():
    report = fixed_point_iteration(2, 2)
    traj = report.trajectory
    assert all(traj[i] > traj[i + 1] for i in range(len(traj) - 1))


def test_fixed_point_k9_boundary():
    violated = fixed_point_iteration(9, 22)
    assert violated.verdict.kind == "violated"
    converged = fixed_point_iteration(9, 21)
    assert converged.verdict.kind == "converged"
    threshold = 2 ** (-2 / 42)
    assert threshold < converged.verdict.value <= 1


def test_fixed_point_report_json():
    report = fixed_point_iteration(2, 2)
    payload = report.to_json_dict(max_trajectory=2)
    assert payload["verdict"]["kind"] == "violated"
    assert payload["trajectory_truncated"]
    assert payload["parameters"]["k"] == 2


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
    with pytest.raises(CertificationError):
        shearer_upper_bound(30, precision=8)


def test_embed_j0_trivial():
    result = embed_H_in_G(0, 3, 2)
    assert result.verified
    assert result.mapping == {}


def test_embed_j1_k3_L2():
    result = embed_H_in_G(1, 3, 2)
    assert result.verified
    assert result.stages == 1
    assert result.mapping == {0: 0, 1: 1}


def test_embed_j2():
    for k, L in ((2, 2), (2, 3), (3, 2)):
        result = embed_H_in_G(2, k, L)
        assert result.verified, (k, L)
        assert len(set(result.mapping.values())) == result.hgraph.graph.n


def test_build_guard():
    with pytest.raises(SizeGuardError):
        build_H(3, 3, 3, vertex_guard=50)
