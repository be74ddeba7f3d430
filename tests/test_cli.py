import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlll import bounds, cli, hj_family, moser_tardos, shearer
from satlll.cli import (DEFAULT_PRECISION, DEFAULT_VERTEX_GUARD, EXIT_CERTIFICATION,
                        EXIT_DIMACS, EXIT_DOMAIN, EXIT_GUARD, main)
from satlll.errors import CertificationError, DomainError, printable
from satlll.events_graph import DepGraph
from satlll.events_graph import events_from_formula
from satlll.sat_model import (DEFAULT_CLAUSE_GUARD, build_extremal_formula, dimacs_export,
                              dimacs_import)

from conftest import MAX_ITER, MAX_STEPS
from oracles import assignment_line_by_format, clauses_of, h_vertex_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_single_row(capsys):
    code, out, _ = run_cli(capsys, "table", "9", "9")
    assert code == 0
    assert out == "9\t20\t21\t22\n"


def test_table_repeat_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "table", "9", "10")
    _, second, _ = run_cli(capsys, "table", "9", "10")
    assert first == second
    assert first == "9\t20\t21\t22\n10\t37\t38\t39\n"


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "table", "9", "9")
    assert code == 0
    assert json.loads(out) == [{"k": 9, "F_LLL": 20, "F_Shearer": 21, "F_MT": 22}]


def test_certification_failure_suggests_a_precision(capsys, monkeypatch):
    # At L = F_Shearer(200), max phi_{L-1} >= 0 is not certifiable at 256
    # bits; fixedpoint retries it at the floor of 2k + 128 = 528 bits.
    argv = ("fixedpoint", "--k", "200", "--L",
            "2955834144021611738375928619524554769177806039044019000190")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert " verdict=converged step=None " in out
    # A probe refused at the floor too exits 5 and suggests twice the floor.
    probe, precisions = hj_family._phi_witness, []

    def refused_below_1056(N, k, precision):
        precisions.append(precision)
        if precision < 1056:
            raise CertificationError(f"max phi_{N} >= 0 for k={k} not certifiable at "
                                     "current precision", retry_precision=2 * precision)
        return probe(N, k, precision)

    monkeypatch.setattr(hj_family, "_phi_witness", refused_below_1056)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, precisions) == (EXIT_CERTIFICATION, "", [256, 528])
    assert err.startswith("error: max phi_")
    assert err.endswith("not certifiable at current precision (retry with --precision 1056)\n")
    code, out, _ = run_cli(capsys, "--precision", "1056", *argv)
    assert code == 0 and precisions[2:] == [1056]
    assert " verdict=converged step=None " in out


def test_table_probes_at_a_precision_floor(capsys):
    # F_Shearer(k) is probed at 2k + 128 bits or more, so the default 256
    # bits certify the rows from k = 133 up.
    code, out, _ = run_cli(capsys, "table", "133", "140")
    assert code == 0 and len(out.splitlines()) == 8
    code, out, _ = run_cli(capsys, "table", "200", "200")
    assert code == 0
    assert out == ("200\t2955797348595638953793724035309995746763891678634480330080"
                   "\t2955834144021611738375928619524554769177806039044019000190"
                   "\t2963208464171792118507639349873253649734994463520121849433\n")


def test_table_bad_range(capsys):
    code, _, err = run_cli(capsys, "table", "5", "3")
    assert code == EXIT_DOMAIN
    assert "error" in err


def test_construct_stdout(capsys):
    code, out, _ = run_cli(capsys, "construct", "--k", "3", "--L", "2", "--r", "1")
    assert code == 0
    assert out == "p cnf 5 2\n1 2 3 0\n-1 4 5 0\n"


def test_construct_to_file(capsys, tmp_path):
    target = tmp_path / "phi.cnf"
    code, out, _ = run_cli(capsys, "construct", "--k", "3", "--L", "2", "--r", "1",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "p cnf 5 2\n1 2 3 0\n-1 4 5 0\n"


def test_construct_prints_dimacs_under_json_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "construct", "--k", "3", "--L", "2", "--r", "1")
    assert (code, out) == (0, "p cnf 5 2\n1 2 3 0\n-1 4 5 0\n")


def test_construct_guard_exit(capsys):
    code, _, err = run_cli(capsys, "--guard-clauses", "4",
                           "construct", "--k", "3", "--L", "3", "--r", "4")
    assert code == EXIT_GUARD


@pytest.mark.parametrize("k, count", [("1000000000000000000000", "1999999999999999999999"),
                                      ("100000000", "199999999")])
def test_construct_refuses_a_width_past_the_variable_guard(capsys, k, count):
    # Two clauses only, but more variables than mt --cnf would read.
    start = time.perf_counter()
    result = run_cli(capsys, "construct", "--k", k, "--L", "2", "--r", "1")
    assert time.perf_counter() - start < 1
    assert result == (EXIT_GUARD, "", f"error: construction would produce {count} variables, "
                      "guard is 200000\n")


def test_check_shearer_violated_graph(capsys, tmp_path):
    target = tmp_path / "k2.json"
    target.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "p": ["1/2", "1/2"]}))
    code, out, _ = run_cli(capsys, "check-shearer", "--graph", str(target))
    assert code == 0
    assert out == "VIOLATED witness={} Q=0\n"


def test_check_shearer_satisfied_cnf(capsys, tmp_path):
    target = tmp_path / "phi.cnf"
    run_cli(capsys, "construct", "--k", "3", "--L", "2", "--r", "2",
            "--out", str(target))
    code, out, _ = run_cli(capsys, "check-shearer", "--cnf", str(target))
    assert code == 0
    assert out == "SATISFIED\n"


def test_check_shearer_json_mirror(capsys, tmp_path):
    target = tmp_path / "k2.json"
    target.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "p": ["1/2", "1/2"]}))
    code, out, _ = run_cli(capsys, "--format", "json",
                           "check-shearer", "--graph", str(target))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"satisfied": False, "witness": [], "witness_value": "0"}


def test_check_shearer_bad_dimacs(capsys, tmp_path):
    target = tmp_path / "bad.cnf"
    target.write_text("p cnf 2 1\n1 oops 0\n")
    code, _, err = run_cli(capsys, "check-shearer", "--cnf", str(target))
    assert code == EXIT_DIMACS
    assert "line 2" in err


def test_hj_agree(capsys):
    code, out, _ = run_cli(capsys, "hj", "--j", "2", "--k", "2", "--L", "2")
    assert code == 0
    assert "AGREE" in out
    assert "s_2 = 1/16" in out


def test_hj_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "hj", "--j", "1", "--k", "2", "--L", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["s_recurrence"] == "1/2"
    assert payload["r_recurrence"] == "3/4"


def test_hj_guard(capsys):
    code, _, _ = run_cli(capsys, "--guard-vertices", "4",
                         "hj", "--j", "2", "--k", "2", "--L", "2")
    assert code == EXIT_GUARD


HUGE = str(10 ** 4299)  # 4300 digits, the most that int() reads
HUGE_K = str(9 * 10 ** 4299)


@pytest.mark.parametrize("argv,message", [
    (["--guard-vertices", "15000", "hj", "--j", "15000", "--k", "2", "--L", "2"],
     "H_15000(k=2,L=2) has more than 15000 vertices, guard is 15000"),
    (["hj", "--j", "2", "--k", HUGE_K, "--L", "2"],
     f"H_2(k={HUGE_K},L=2) has more than 40 vertices, guard is 40"),
    (["construct", "--k", "2", "--L", HUGE, "--r", HUGE],
     "construction would produce more than 200000 clauses, guard is 200000"),
    (["construct", "--k", HUGE_K, "--L", "2", "--r", "1"],
     "construction would produce more than 200000 variables, guard is 200000"),
], ids=["hj-levels", "hj-k", "construct", "construct-k"])
def test_a_count_too_long_to_print_is_refused_in_one_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (EXIT_GUARD, "", f"error: {message}\n")


def test_the_longest_printable_count_is_printed(capsys):
    # |H_14000| has 4215 digits, within the int-string limit.
    count = h_vertex_count(14000, 2, 2)
    assert len(str(count)) == 4215
    assert run_cli(capsys, "--guard-vertices", "14000", "hj", "--j", "14000", "--k", "2",
                   "--L", "2") == (EXIT_GUARD, "", f"error: H_14000(k=2,L=2) has {count} "
                                   "vertices, guard is 14000\n")


def test_a_guard_of_a_million_levels_stops_counting(capsys):
    # The count at least doubles per level, so it is past the int-string
    # limit after about 14300 of them.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--guard-vertices", "1000000",
                             "hj", "--j", "1000000", "--k", "2", "--L", "2")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (EXIT_GUARD, "", "error: H_1000000(k=2,L=2) has more than "
                                "1000000 vertices, guard is 1000000\n")


def test_hj_refuses_an_unprintable_width_before_building_its_formula(capsys):
    # H_1 has 2 vertices at any k, but its formula has 2k literals and
    # r_1 = 1 - 2^-k, so the length of r_1 refuses k before the formula is built.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "hj", "--j", "1", "--k", "1000000", "--L", "2")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (EXIT_GUARD, "", "error: s_1 or r_1 has more than 4300 "
                                "digits, the int-string limit\n")


# |H_1| = 200 passes the guard at any k, and s_1 = odd/2^(k(L-1)-1) has a
# billion-bit denominator; |H_2| = 3998 passes it at k = 1000, L = 2, and s_2 =
# odd/2^1998000, where the recurrence would spend seconds forming s_2.  So the
# refusal comes from the exponents alone.
@pytest.mark.parametrize("guard,j,k,L", [(200, 1, 10000000, 101), (4000, 2, 1000, 2)])
def test_hj_refuses_an_unprintable_level_before_its_recurrence(capsys, monkeypatch,
                                                              guard, j, k, L):
    monkeypatch.setattr(hj_family, "recurrence_sr", _build_nothing)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--guard-vertices", str(guard), "hj", "--j", str(j),
                             "--k", str(k), "--L", str(L))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (EXIT_GUARD, "", f"error: s_{j} or r_{j} has more than 4300 "
                                "digits, the int-string limit\n")


@pytest.mark.parametrize("output_format", ["tsv", "json"])
def test_hj_exits_5_when_recurrence_and_brute_force_disagree(capsys, monkeypatch,
                                                             output_format):
    recurrence = hj_family.recurrence_sr
    (*_, s), (*_, r) = recurrence(2, 2, 2)
    wrong = s + Fraction(1, 4)  # printable, and not s_2

    def perturbed(j, k, L):
        s_all, r_all = recurrence(j, k, L)
        return s_all[:-1] + (wrong,), r_all

    monkeypatch.setattr(hj_family, "recurrence_sr", perturbed)
    code, out, err = run_cli(capsys, "--format", output_format, "hj", "--j", "2", "--k", "2",
                             "--L", "2")
    assert (code, err) == (EXIT_CERTIFICATION, "")
    if output_format == "json":
        assert json.loads(out) == {"j": 2, "k": 2, "L": 2, "s_recurrence": str(wrong),
                                   "s_bruteforce": str(s), "r_recurrence": str(r),
                                   "r_bruteforce": str(r), "agree": False}
    else:
        assert out == (f"s_2 = {wrong} (recurrence) = {s} (brute force)\n"
                       f"r_2 = {r} (recurrence) = {r} (brute force)\nDISAGREE\n")


# 2^14284 has 4300 digits and 2^14285 has 4301: r_1 = (2^k - 1)/2^k prints up to
# k = 14284 at L = 2, and s_1 = odd/2^(k(L-1)-1) up to k = 7142 at L = 3 and at
# k = 2857 = 14285 / 5 at L = 6.
@pytest.mark.parametrize("k,L,expected", [(14284, 2, 0), (14285, 2, EXIT_GUARD),
                                          (7142, 3, 0), (7143, 3, EXIT_GUARD),
                                          (2857, 6, 0), (2858, 6, EXIT_GUARD)])
def test_hj_first_level_is_refused_exactly_where_it_stops_printing(capsys, monkeypatch,
                                                                  k, L, expected):
    if expected:
        monkeypatch.setattr(hj_family, "recurrence_sr", _build_nothing)
    code, out, err = run_cli(capsys, "hj", "--j", "1", "--k", str(k), "--L", str(L))
    assert code == expected
    if expected:
        assert (out, err) == ("", "error: s_1 or r_1 has more than 4300 digits, "
                              "the int-string limit\n")
    else:
        assert err == "" and out.endswith("AGREE\n")
        assert max(map(len, re.split(r"[ /]", out))) == 4300


@pytest.mark.parametrize("argv,variable", [(["--guard-vertices", "0"], None),
                                           (["--guard-clauses", "-1"], None),
                                           ([], "SATLLL_GUARD_VERTICES")])
def test_guards_must_be_positive(capsys, monkeypatch, argv, variable):
    if variable:
        monkeypatch.setenv(variable, "0")
    assert run_cli(capsys, *argv, "bounds", "--k", "9") == (
        EXIT_DOMAIN, "", "error: guards must be positive\n")


@pytest.mark.parametrize("n,expected", [(900, (0, "SATISFIED\n", "")),
                                        (1500, (EXIT_GUARD, "", "error: maximum recursion"))])
def test_deep_path_is_decided_or_refused_in_one_line(capsys, tmp_path, n, expected):
    # Z_W recurses about once per vertex of a path: past Python's recursion
    # limit the run exits as over a guard, with one error line.
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": n, "edges": [[i, i + 1] for i in range(n - 1)],
                                "p": ["1/10"] * n}))
    code, out, err = run_cli(capsys, "--guard-vertices", "2000", "check-shearer",
                             "--graph", str(path))
    assert (code, out, err[:len(expected[2])]) == expected
    assert err.count("\n") == (code != 0)


def test_fixedpoint_text(capsys):
    code, out, _ = run_cli(capsys, "fixedpoint", "--k", "2", "--L", "2")
    assert code == 0
    assert "verdict=violated" in out
    assert "step=3" in out


def test_fixedpoint_converges_at_k_20000_within_seconds(capsys):
    # phi_1's probe at k = 20000: Newton starts from a double near its root
    # where it walked about 14 000 steps from t = 1, and the bracket is
    # decided on 130-bit enclosures of powers that have 2.6 million bits.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "fixedpoint", "--k", "20000", "--L", "2")
    assert time.perf_counter() - start < 10
    assert code == 0 and " verdict=converged step=None " in out


@pytest.mark.parametrize("cap,length,truncated", [("0", 0, True), ("2", 2, True),
                                                   ("4", 4, False), ("1000", 4, False)])
def test_fixedpoint_json_caps_the_trajectory(capsys, cap, length, truncated):
    # (2, 2) ends violated at step 3, so its trajectory a_0..a_3 has 4 entries.
    code, out, _ = run_cli(capsys, "--format", "json", "fixedpoint",
                           "--k", "2", "--L", "2", "--max-trajectory", cap)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["parameters", "threshold", "trajectory", "trajectory_truncated",
                             "verdict"]
    assert payload["parameters"] == {"k": 2, "L": 2, "precision": DEFAULT_PRECISION,
                                     "max_iter": MAX_ITER}
    assert payload["verdict"]["kind"] == "violated" and payload["verdict"]["step"] == 3
    assert len(payload["trajectory"]) == length
    assert payload["trajectory_truncated"] is truncated
    whole = hj_family.fixed_point_iteration(2, 2, MAX_ITER, DEFAULT_PRECISION).trajectory
    assert payload["trajectory"] == list(whole[:length])


@pytest.mark.parametrize("read", [cli._plain_args, cli.PARSER.parse_args],
                         ids=["reader", "argparse"])
def test_cli_defaults_are_the_ones_tests_pass_to_the_library(read):
    fixedpoint = read(["fixedpoint", "--k", "2", "--L", "2"])
    assert (fixedpoint.max_iter, fixedpoint.max_trajectory) == (MAX_ITER, 1000)
    mt = read(["mt", "--cnf", "x.cnf"])
    assert (mt.rule, mt.seed, mt.max_steps) == ("first-index", 0, MAX_STEPS)


@pytest.mark.parametrize("output_format", ["tsv", "json"])
def test_fixedpoint_refuses_a_negative_max_trajectory_before_iterating(
        capsys, monkeypatch, output_format):
    monkeypatch.setattr(hj_family, "fixed_point_iteration", _build_nothing)
    code, out, err = run_cli(capsys, "--format", output_format, "fixedpoint",
                             "--k", "2", "--L", "2", "--max-trajectory", "-1")
    assert (code, out, err) == (EXIT_DOMAIN, "", "error: max_trajectory must be >= 0, got -1\n")


def refuse_constant(constant):
    raise AssertionError(f"{constant} is not RFC 8259 JSON")


def test_fixedpoint_json_writes_infinities_as_text(capsys):
    # a_67 falls below -2^2000, beyond a double, so the value is -inf.
    argv = ["fixedpoint", "--k", "60", "--L", "7099884519254838"]
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    payload = json.loads(out, parse_constant=refuse_constant)
    assert payload["verdict"] == {"kind": "violated", "step": 67, "value": "-inf"}
    assert payload["trajectory"][-1] == "-inf"
    assert all(isinstance(a, float) for a in payload["trajectory"][:-1])
    _, text, _ = run_cli(capsys, *argv)
    assert " value=-inf " in text


def test_mt_run(capsys, tmp_path):
    target = tmp_path / "inst.cnf"
    target.write_text("p cnf 6 2\n1 2 3 0\n4 5 6 0\n")
    code, out, _ = run_cli(capsys, "mt", "--cnf", str(target), "--seed", "5")
    assert code == 0
    assert "terminated=True" in out
    assert "satisfies=True" in out


def test_mt_json(capsys, tmp_path):
    target = tmp_path / "inst.cnf"
    target.write_text("p cnf 6 2\n1 2 3 0\n4 5 6 0\n")
    code, out, _ = run_cli(capsys, "--format", "json",
                           "mt", "--cnf", str(target), "--seed", "5",
                           "--rule", "uniform-random")
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["terminated"] is True
    assert payload["satisfies_formula"] is True
    stats = payload["stats"]
    assert list(stats) == ["total_resamples", "per_event_resamples", "terminated", "steps",
                           "seed", "max_steps", "rule"]
    assert (stats["rule"], stats["seed"], stats["max_steps"]) == ("uniform-random", 5, MAX_STEPS)
    # total_resamples and steps both count the loop's iterations.
    assert stats["total_resamples"] == sum(stats["per_event_resamples"]) == stats["steps"]


def test_mt_reads_a_satlib_ending(capsys, tmp_path):
    # SATLIB files (uf20-91 etc.) end with a "%" line and then "0".
    target = tmp_path / "satlib.cnf"
    target.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n%\n0\n")
    code, out, err = run_cli(capsys, "mt", "--cnf", str(target))
    assert (code, err) == (0, "")
    assert out.startswith("terminated=True resamples=")
    assert "satisfies=True" in out


def test_mt_empty_formula(capsys, tmp_path):
    target = tmp_path / "empty.cnf"
    target.write_text("c no clauses\np cnf 5 0\n")
    code, out, err = run_cli(capsys, "mt", "--cnf", str(target), "--seed", "3")
    assert (code, err) == (0, "")
    first, second = out.splitlines()
    assert first == "terminated=True resamples=0 satisfies=True"
    assert [token.split("=")[0] for token in second.split()] == ["1", "2", "3", "4", "5"]


def mt_output_per_variable(formula, seed, max_steps, json_format):
    """mt's output formatted from a {variable: bool} dict, one variable at a time."""
    events = events_from_formula(formula)
    rule = moser_tardos.SelectionRule.FIRST_INDEX
    values, stats = moser_tardos.run_mt(events, formula.variable_count, rule, seed, max_steps)
    assignment = {v: bool(values[v - 1]) for v in range(1, formula.variable_count + 1)}
    satisfies = stats.terminated and all(
        any(assignment[abs(z)] == (z > 0) for z in clause) for clause in clauses_of(formula))
    if json_format:
        stats_json = {"total_resamples": sum(stats.per_event_resamples),
                      "per_event_resamples": list(stats.per_event_resamples),
                      "terminated": stats.terminated, "steps": stats.steps, "seed": seed,
                      "max_steps": max_steps, "rule": rule.value}
        return json.dumps({"stats": stats_json, "satisfies_formula": satisfies,
                           "assignment": {str(v): assignment[v] for v in sorted(assignment)}
                           if stats.terminated else None}, indent=2) + "\n"
    lines = [f"terminated={stats.terminated} resamples={sum(stats.per_event_resamples)} "
             f"satisfies={satisfies}"]
    if stats.terminated:
        lines.append(" ".join(f"{v}={'T' if assignment[v] else 'F'}" for v in sorted(assignment)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, max_steps, variables", [
    ("p cnf 0 0\n", "100", 0),
    ("p cnf 1 0\n", "100", 1),
    ("p cnf 2 1\n1 -2 0\n", "100", 2),
    (dimacs_export(build_extremal_formula(9, 22, 200, DEFAULT_CLAUSE_GUARD)), "1000000", 67_201),
    ("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", "5", 2),  # never terminates
], ids=["m0", "m1", "m2", "m67201", "unterminated"])
def test_mt_output_equals_per_variable_formatting(capsys, tmp_path, text, max_steps,
                                                  variables):
    target = tmp_path / "inst.cnf"
    target.write_text(text)
    formula = dimacs_import(text)
    assert formula.variable_count == variables
    for seed in (0, 7):
        for json_format in (False, True):
            argv = ["mt", "--cnf", str(target), "--seed", str(seed), "--max-steps", max_steps]
            code, out, err = run_cli(capsys, *(["--format", "json"] if json_format else []),
                                     *argv)
            assert (code, err) == (0, "")
            assert out == mt_output_per_variable(formula, seed, int(max_steps), json_format)
            if max_steps == "5":
                assert (json.loads(out)["assignment"] is None if json_format
                        else out.startswith("terminated=False") and out.count("\n") == 1)


def test_assignment_line_matches_one_format():
    # Every group boundary up to seven digits, each digit count's first and
    # last variable, and a group that holds one variable.
    counts = [*range(1201), *(10 ** d + e for d in range(1, 7) for e in (-1, 0, 1))]
    low_bit = bytes(i & 1 for i in range(256))
    for m in counts:
        values = random.Random(m).randbytes(m).translate(low_bit)
        assert cli._assignment_line(values) == assignment_line_by_format(values), m


def test_mt_prints_a_six_digit_assignment_line(capsys, tmp_path):
    formula = build_extremal_formula(9, 22, 300, DEFAULT_CLAUSE_GUARD)
    assert formula.variable_count == 100_801
    target = tmp_path / "x9_22_300.cnf"
    target.write_text(dimacs_export(formula))
    code, out, err = run_cli(capsys, "mt", "--cnf", str(target), "--seed", "7")
    values, _ = moser_tardos.run_mt(events_from_formula(formula), formula.variable_count,
                                    moser_tardos.SelectionRule.FIRST_INDEX, 7, MAX_STEPS)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [assignment_line_by_format(values)]


def test_check_shearer_empty_formula(capsys, tmp_path):
    target = tmp_path / "empty.cnf"
    target.write_text("p cnf 5 0\n")
    assert run_cli(capsys, "check-shearer", "--cnf", str(target)) == (0, "SATISFIED\n", "")


def test_bounds_text(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--k", "9")
    assert code == 0
    assert "F_LLL(9) = 20" in out
    assert "F_MT(9) = 22" in out
    assert "harris_alpha(L=22)" in out and "satisfied=True" in out
    assert "harris_alpha(L=23)" in out and "satisfied=False" in out


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "bounds", "--k", "9")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["k", "F_LLL", "F_MT", "gap_inequality", "harris_alpha"]
    assert payload["F_LLL"] == 20 and payload["F_MT"] == 22
    gap = payload["gap_inequality"]
    assert list(gap) == ["criterion", "satisfied", "parameters", "witness", "details"]
    _, rhs = bounds.gap_inequality(9, 22 - 20)
    assert gap == {"criterion": "gap_inequality", "satisfied": True, "parameters": {"k": 9},
                   "witness": None, "details": {"lhs": 2, "rhs": rhs}}
    assert payload["harris_alpha"]["22"]["satisfied"] is True
    assert payload["harris_alpha"]["23"]["satisfied"] is False


def test_bounds_at_k_2_is_out_of_domain_at_l_0(capsys):
    assert run_cli(capsys, "bounds", "--k", "2") == (0, (
        "F_LLL(2) = 0\n"
        "F_MT(2) = 0\n"
        "gap_inequality: True (lhs=0 rhs=-0.816060)\n"
        "harris_alpha(L=0): out of domain\n"
        "harris_alpha(L=1): alpha=0.50000000 satisfied=False\n"), "")
    code, out, err = run_cli(capsys, "--format", "json", "bounds", "--k", "2")
    assert (code, err) == (0, "")
    assert '"0": null' in out
    assert json.loads(out)["harris_alpha"] == {"0": None, "1": {"alpha": 0.5, "satisfied": False}}


def test_f_lll_is_exact_past_53_bits(capsys):
    # F_LLL(61) is the first above 2^53, where a 53-bit rounding goes wrong.
    assert run_cli(capsys, "table", "61", "61") == (
        0, "61\t13906102256698535\t13907946342735604\t14021188334996907\n", "")
    code, out, _ = run_cli(capsys, "bounds", "--k", "61")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "F_LLL(61) = 13906102256698535"
    assert lines[2].startswith("gap_inequality: True (lhs=115086078298372 rhs=")
    code, out, _ = run_cli(capsys, "table", "100", "100")
    assert code == 0
    assert out.split("\t")[1] == "4663425944126044665174585815"


def test_bounds_past_the_float_range(capsys):
    # rhs of the gap inequality exceeds the largest float at k = 1100.
    code, out, err = run_cli(capsys, "bounds", "--k", "1100")
    assert (code, err) == (0, "")
    assert "gap_inequality: True (lhs=" in out and " rhs=inf)\n" in out
    code, out, err = run_cli(capsys, "--format", "json", "bounds", "--k", "1100")
    assert (code, err) == (0, "")
    assert '"rhs": "inf"' in out
    assert json.loads(out)["gap_inequality"]["details"]["rhs"] == "inf"


STRICT_JSON_INPUTS = {
    "violated.json": json.dumps({"n": 2, "edges": [[0, 1]], "p": ["1/2", "1/2"]}),
    "satisfied.json": json.dumps({"n": 3, "edges": [[0, 1], [1, 2]],
                                  "p": ["1/5", "1/7", "1/11"]}),
    "inst.cnf": "p cnf 6 2\n1 2 3 0\n4 5 6 0\n",
}


@pytest.mark.parametrize("argv", [
    ["bounds", "--k", "1100"],
    ["fixedpoint", "--k", "60", "--L", "7099884519254838"],
    ["check-shearer", "--graph", "violated.json"],
    ["check-shearer", "--graph", "satisfied.json"],
    ["hj", "--j", "2", "--k", "2", "--L", "2"],
    ["table", "5", "9"],
    ["mt", "--cnf", "inst.cnf", "--seed", "5"],
])
def test_json_output_is_strict_rfc_8259(capsys, monkeypatch, tmp_path, argv):
    # Python's json writes and reads Infinity and NaN; RFC 8259 parsers refuse them.
    for name, content in STRICT_JSON_INPUTS.items():
        (tmp_path / name).write_text(content)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_constant=refuse_constant)
    if argv[0] == "check-shearer":
        assert payload["satisfied"] == (argv[2] == "satisfied.json")


def test_bounds_refuses_from_the_first_unprintable_k(capsys, monkeypatch):
    # F_MT(14299) + 1 has 4300 digits, F_MT(14300) + 1 has 4301.
    def reached(k):
        raise DomainError(f"reached f_lll({k})")

    monkeypatch.setattr(bounds, "f_lll", reached)
    assert run_cli(capsys, "bounds", "--k", "14299") == (
        EXIT_DOMAIN, "", "error: reached f_lll(14299)\n")
    assert run_cli(capsys, "bounds", "--k", "14300") == (
        EXIT_GUARD, "", "error: F_MT(14300) + 1 has more than 4300 digits, the int-string limit\n")


def test_bounds_prints_the_last_printable_k(capsys):
    code, out, err = run_cli(capsys, "bounds", "--k", "14299")
    assert (code, err) == (0, "")
    assert out.startswith("F_LLL(14299) = ")
    assert len(out.splitlines()[1]) == len("F_MT(14299) = ") + 4300


@pytest.mark.parametrize("limit", [640, 4300])  # CPython's least and default limits
def test_printable_is_whether_str_prints(limit):
    edges = [10 ** limit - 1, 10 ** limit, 8 ** limit - 1, 8 ** limit, 16 ** limit - 1,
             16 ** limit, 2 ** (4 * limit + 1)]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for n in edges + [-n for n in edges] + [0, 1, -1]:
            try:
                str(n)
                prints = True
            except ValueError:
                prints = False
            assert printable(n) == prints, n
        sys.set_int_max_str_digits(0)
        assert all(map(printable, edges))
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("limit", [640, 4300])  # CPython's least and default limits
def test_f_mt_is_unprintable_from_four_times_the_limit(limit):
    # The refusal from k alone rests on F_MT(k) >= 10^limit for k >= 4 * limit.
    assert bounds.f_mt(4 * limit) >= 10 ** limit


@pytest.mark.parametrize("argv", [["bounds", "--k", "1000000"],
                                  ["table", "1000000", "1000000"]])
def test_huge_k_is_refused_without_computing_f_mt(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-m", "satlll.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=20)
    assert (result.returncode, result.stdout, result.stderr) == (
        EXIT_GUARD, "",
        "error: F_MT(1000000) + 1 has more than 4300 digits, the int-string limit\n")


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is imported only inside the functions that print its floats.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", "import satlll.cli, sys; assert 'mpmath' not in sys.modules"],
        capture_output=True, text=True, env=env, timeout=20)
    assert (result.returncode, result.stderr) == (0, "")


def test_common_flags_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "table", "9", "9", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["k"] == 9


def test_precision_floor(capsys):
    code, _, err = run_cli(capsys, "--precision", "16", "table", "9", "9")
    assert code == EXIT_DOMAIN


SUBCOMMANDS = ["table", "construct", "check-shearer", "hj", "fixedpoint", "mt", "bounds"]
SHARED_FLAGS = ["--precision", "--format", "--out", "--guard-vertices", "--guard-clauses"]


@pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS],
                         ids=["satlll"] + SUBCOMMANDS)
def test_help_lists_shared_flags(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert [flag for flag in SHARED_FLAGS if not re.search(rf"^  {flag} ", out, re.M)] == []


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# The argv shapes the benchmark's workloads run, with values of their kind.
WORKLOAD_ARGV = [["table", "9", "9"], ["bounds", "--k", "9"],
                 ["fixedpoint", "--k", "9", "--L", "22"],
                 ["check-shearer", "--graph", "g.json"], ["check-shearer", "--cnf", "f.cnf"],
                 ["hj", "--j", "2", "--k", "3", "--L", "2"],
                 ["mt", "--cnf", "f.cnf", "--rule", "uniform-random", "--seed", "3"],
                 ["construct", "--k", "9", "--L", "22", "--r", "3"]]


@pytest.mark.parametrize("argv", WORKLOAD_ARGV + [
    ["table", "5", "--precision", "64", "7"],  # a positional on each side of an option
    ["bounds", "--k", " 5"], ["bounds", "--k", "5_0"], ["bounds", "--k", "\u0665"],  # int()
    ["table", "--out", "table", "--format", "json", "1", "2"],  # a value named as a command
    ["mt", "--cnf", "f.cnf"], ["check-shearer", "--guard-vertices", "9", "--graph", "a b"],
])
def test_plain_args_read_as_argparse_does(argv):
    plain = cli._plain_args(argv)
    assert plain is not None and plain == cli.PARSER.parse_args(argv)


@pytest.mark.parametrize("argv", [
    [], ["table"], ["table", "5"], ["table", "5", "6", "7"], ["no-such-command"],
    ["--prec", "64", "bounds", "--k", "5"], ["bounds", "--k=5"],  # abbreviation, = form
    ["bounds", "--k", "-3"], ["mt", "--cnf", "", "--seed", "1"], ["mt", "--cnf", "-"],
    ["-h"], ["bounds", "-h"], ["bounds", "--help"], ["--", "bounds", "--k", "5"],
    ["bounds", "--", "--k", "5"], ["bounds", "--k", "5", "--k", "6"],
    ["--format", "json", "--format", "tsv", "bounds", "--k", "5"],
    ["--precision", "64", "bounds", "--k", "5", "--precision", "80"],  # a shared flag first
    ["--out", "table", "--format", "json", "table", "1", "2"],
    ["--k", "5", "bounds"], ["check-shearer", "--cnf", "a", "--graph", "b"],
    ["check-shearer"], ["bounds", "--k", "5", "--no-such-flag", "1"], ["bounds", "--k"],
    ["bounds", "--k", "x"], ["--format", "xml", "bounds", "--k", "5"],
    ["mt", "--cnf", "f.cnf", "--rule", "none"], ["bounds", "--k", "5", "--L", "2"],
    ["bounds", "--k", 5], ("bounds", "--k", "5", "extra"),
])
def test_plain_args_leave_every_other_argv_to_argparse(argv):
    assert cli._plain_args(argv) is None


# Plain forms to start from: each command with flags it reads, in any order.
SHAPES = [("table", []), ("construct", ["--k", "--L", "--r"]), ("check-shearer", ["--cnf"]),
          ("check-shearer", ["--graph"]), ("hj", ["--j", "--k", "--L"]),
          ("fixedpoint", ["--k", "--L", "--max-iter"]),
          ("fixedpoint", ["--k", "--L", "--max-trajectory"]),
          ("mt", ["--cnf", "--rule", "--seed"]), ("mt", ["--cnf", "--max-steps"]),
          ("bounds", ["--k"])]
RULES = ["first-index", "uniform-random", "lowest-probability"]
PATHS = ["f.cnf", "dir/g.json", "a b", "table"]
# ints as int() reads them: signed, with "_", surrounded by spaces, in other digits.
INTS = ["5", "12", "0", "+5", "-3", "1_000", " 5", "7 ", "\u0665", "\uff11\uff12", "-0"]
VALUES = INTS + RULES + PATHS + ["tsv", "json", "", "-", "x", "5x", "1.5", "5__0", "_5"]
GOOD_VALUES = {"--format": ["tsv", "json"], "--rule": RULES, "--cnf": PATHS, "--graph": PATHS,
               "--out": PATHS}
TOKENS = (SUBCOMMANDS + SHARED_FLAGS + sorted({flag for _, flags in SHAPES for flag in flags})
          + ["--prec", "--form", "--guard-v", "--gr", "--c", "--max", "--max-s", "--ru"]
          + ["--k=5", "--precision=64", "--cnf=f.cnf", "--format=json", "--rule=uniform-random"]
          + ["-h", "--help", "--", "-k"] + VALUES)
GOOD = {flag: st.sampled_from(GOOD_VALUES.get(flag, INTS)) for flag in TOKENS}
ANY_VALUE, ANY_TOKEN, INT = map(st.sampled_from, (VALUES, TOKENS, INTS))


@st.composite
def near_plain_argv(draw):
    """0-9 tokens: a plain form with each flag's value good for it or, one
    time in four, any value, and a shared flag on either side; then up to
    two tokens inserted or written over others."""
    command, flags = draw(st.sampled_from(SHAPES))

    def pair(flag):
        return [flag, draw(ANY_VALUE if draw(st.integers(0, 3)) == 0 else GOOD[flag])]

    before = [pair(flag) for flag in draw(st.lists(st.sampled_from(SHARED_FLAGS), max_size=1))]
    after = [pair(flag) for flag in flags] + [[draw(INT)] for _ in range(2 * (command == "table"))]
    after += [pair(flag) for flag in draw(st.lists(st.sampled_from(SHARED_FLAGS), max_size=1))]
    argv = sum(before, []) + [command] + sum(draw(st.permutations(after)), [])
    for _ in range(draw(st.integers(0, 2))):
        i, token = draw(st.integers(0, len(argv))), draw(ANY_TOKEN)
        if i < len(argv) and draw(st.booleans()):
            argv[i] = token
        else:
            argv.insert(i, token)
    return argv[:9]


@settings(max_examples=300, deadline=None)
@given(near_plain_argv() | st.lists(ANY_TOKEN, max_size=9))
def test_plain_args_equal_argparse_wherever_they_read(argv):
    plain = cli._plain_args(argv)
    if plain is None:
        return
    assert argv[0] in SUBCOMMANDS  # argparse reads anything before the command
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = cli.PARSER.parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"argparse refuses {argv} (exit {exc.code}), the reader does not")
    assert parsed == plain


K2_GRAPH = {"n": 2, "edges": [[0, 1]], "p": ["1/2", "1/2"]}
INPUT = "{input}"  # replaced by the path of the case's input file
CHECK_GRAPH, CHECK_CNF = ["check-shearer", "--graph", INPUT], ["check-shearer", "--cnf", INPUT]


def _build_nothing(*args, **kwargs):
    raise AssertionError("work ran before the guard was checked")


# Q has 8001 digits: each 0.99...9 has a 4001-digit numerator, which Fraction accepts.
LONG_Q_GRAPH = json.dumps({"n": 3, "edges": [[0, 1], [1, 2]],
                           "p": ["0." + "9" * 4000, "1/2", "0." + "9" * 4000]})
# Guards on printed values that exist only once the work is done.
GUARDS_AFTER_WORK = ("Q has",)


@pytest.mark.parametrize("argv,content,precision_env,expected,message", [
    (CHECK_GRAPH, json.dumps({**K2_GRAPH, "edges": [[0, 2]]}), None,
     EXIT_DOMAIN, "out of range"),
    (CHECK_GRAPH, json.dumps({"n": 2, "p": ["1/2", "1/2"]}), None, EXIT_DOMAIN, "'edges'"),
    (CHECK_GRAPH, json.dumps({**K2_GRAPH, "p": ["x", "1/2"]}), None, EXIT_DOMAIN, "'x'"),
    (CHECK_GRAPH, "{not json", None, EXIT_DOMAIN, "malformed graph JSON"),
    (CHECK_GRAPH, None, None, EXIT_DOMAIN, "cannot read"),
    (CHECK_CNF, None, None, EXIT_DOMAIN, "cannot read"),
    (CHECK_CNF, "p cnf 6 2\n1 2 3 0\n4 5 6 0\n", "abc", 2, "SATLLL_PRECISION"),
    (CHECK_CNF, "p cnf 2 1\n1 3 0\n", None, EXIT_DIMACS, "line 2"),
    (CHECK_GRAPH, json.dumps({**K2_GRAPH, "n": -5}), None, EXIT_DOMAIN, "non-negative"),
    (CHECK_GRAPH, json.dumps({**K2_GRAPH, "n": True}), None, EXIT_DOMAIN, "non-negative"),
    (CHECK_GRAPH, json.dumps({**K2_GRAPH, "edges": [[True, False]]}), None,
     EXIT_DOMAIN, "endpoints must be integers, got a bool"),
    (CHECK_GRAPH, json.dumps({**K2_GRAPH, "edges": [[0, True]]}), None,
     EXIT_DOMAIN, "endpoints must be integers, got a bool"),
    (["--format", "json", "fixedpoint", "--k", "2", "--L", "2", "--max-trajectory", "-1"],
     None, None, EXIT_DOMAIN, "max_trajectory"),
    (["fixedpoint", "--k", "5", "--L", "4", "--max-iter", "-3"], None, None,
     EXIT_DOMAIN, "max_iter must be >= 0, got -3"),
    (CHECK_GRAPH, json.dumps({"n": 41, "edges": [], "p": ["1/2"] * 41}), None,
     EXIT_GUARD, "graph has 41 vertices, guard is 40"),
    (CHECK_CNF, "p cnf 123 41\n" + "".join(f"{3 * i + 1} {3 * i + 2} {3 * i + 3} 0\n"
                                          for i in range(41)), None,
     EXIT_GUARD, "graph has 41 vertices, guard is 40"),
    (["hj", "--j", "5", "--k", "2", "--L", "2"], None, None,
     EXIT_GUARD, "H_5(k=2,L=2) has 62 vertices, guard is 40"),
    (["mt", "--cnf", INPUT], b"\xff\xfe", None, EXIT_DOMAIN, "cannot read"),
    (["--out", INPUT + "/x", "table", "2", "2"], None, None, EXIT_DOMAIN, "cannot write"),
    (CHECK_GRAPH, json.dumps({"n": 1, "edges": [], "p": [float("inf")]}), None,
     EXIT_DOMAIN, "OverflowError"),
    (["mt", "--cnf", INPUT], "p cnf 300000 1\n1 2 3 0\n", None,
     EXIT_GUARD, "formula declares 300000 variables, guard is 200000"),
    (["--guard-clauses", "2", "mt", "--cnf", INPUT], "p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n",
     None, EXIT_GUARD, "formula declares 3 clauses, guard is 2"),
    (CHECK_GRAPH, json.dumps({"n": 1, "edges": [], "p": ["1e-3000000"]}), None,
     EXIT_DOMAIN, "probability exponent above 4300"),
    (CHECK_GRAPH, LONG_Q_GRAPH, None, EXIT_GUARD, "Q has more than 4300 digits"),
    (["--format", "json"] + CHECK_GRAPH, LONG_Q_GRAPH, None,
     EXIT_GUARD, "Q has more than 4300 digits"),
    (["bounds", "--k", "14500", "--precision", "14700"], None, None,
     EXIT_GUARD, "F_MT(14500) + 1 has more than 4300 digits"),
    (["table", "2", "14300"], None, None,
     EXIT_GUARD, "F_MT(14300) + 1 has more than 4300 digits"),
    (["hj", "--j", "1", "--k", "20000", "--L", "2"], None, None,
     EXIT_GUARD, "s_1 or r_1 has more than 4300 digits"),
    (["mt", "--cnf", INPUT], "p cnf 3 2\n1 0\n-2 0\n", None,
     EXIT_DOMAIN, "formula width must be >= 2, got 1"),
], ids=["edge-out-of-range", "no-edges", "bad-probability", "not-json",
        "missing-graph-file", "missing-cnf-file", "bad-precision-env", "literal-above-count",
        "negative-n", "boolean-n", "boolean-edge", "boolean-endpoint",
        "negative-max-trajectory", "negative-max-iter", "graph-over-guard",
        "cnf-over-guard", "hj-over-guard", "non-utf8-input", "out-in-missing-dir",
        "infinite-probability", "mt-variables-over-guard", "mt-clauses-over-guard",
        "exponent-probability", "long-q", "long-q-json", "bounds-long-f", "table-long-f",
        "hj-long-s", "width-one"])
def test_input_failures_map_to_exit_codes(capsys, monkeypatch, tmp_path, argv, content,
                                          precision_env, expected, message):
    target = tmp_path / "input"
    if isinstance(content, bytes):
        target.write_bytes(content)
    elif content is not None:
        target.write_text(content)
    if precision_env is not None:
        monkeypatch.setenv("SATLLL_PRECISION", precision_env)
    if expected == EXIT_GUARD and not message.startswith(GUARDS_AFTER_WORK):
        monkeypatch.setattr(bounds, "f_lll", _build_nothing)
        monkeypatch.setattr(hj_family, "shearer_upper_bound", _build_nothing)
        monkeypatch.setattr(DepGraph, "from_edges", _build_nothing)
        monkeypatch.setattr(cli, "lopsidependency_graph", _build_nothing)
        monkeypatch.setattr(hj_family, "recurrence_sr", _build_nothing)
        monkeypatch.setattr(cli, "events_from_formula", _build_nothing)
        monkeypatch.setattr(moser_tardos, "run_mt", _build_nothing)
    argv = [arg.replace(INPUT, str(target)) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert message in err
    assert "Traceback" not in err


# 4300 nines pass the int-string limit and the exponent bound, but the value's
# numerator has 8600 digits, more than str() prints.
HUGE_PROBABILITY = "9" * 4300 + "e4300"


@pytest.mark.parametrize("p,line", [
    ([HUGE_PROBABILITY], "error: p[0] must lie in the open interval (0,1)\n"),
    (["1/2", HUGE_PROBABILITY], "error: p[1] must lie in the open interval (0,1)\n"),
    # -1/10^4300: a one-digit numerator over a 4301-digit denominator.
    (["-1e-4300"], "error: p[0] must lie in the open interval (0,1)\n"),
    (["1/2", "3/2"], "error: p[1]=3/2 must lie in the open interval (0,1)\n"),
    (["0", "1/2"], "error: p[0]=0 must lie in the open interval (0,1)\n"),
], ids=["huge-only", "huge-second", "huge-denominator", "printable", "zero"])
def test_out_of_range_probability_is_one_error_line(capsys, tmp_path, p, line):
    target = tmp_path / "graph.json"
    edges = [[0, 1]] if len(p) == 2 else []
    target.write_text(json.dumps({"n": len(p), "edges": edges, "p": p}))
    code, out, err = run_cli(capsys, "check-shearer", "--graph", str(target))
    assert (code, out, err) == (EXIT_DOMAIN, "", line)


@pytest.mark.parametrize("edges,kind", [({}, "dict"), ("", "str")], ids=["object", "string"])
def test_graph_edges_must_be_an_array(capsys, tmp_path, edges, kind):
    # Iterated, both give no edges, and the check went on to SATISFIED.
    target = tmp_path / "graph.json"
    target.write_text(json.dumps({"n": 2, "edges": edges, "p": ["1/3", "1/3"]}))
    code, out, err = run_cli(capsys, "check-shearer", "--graph", str(target))
    assert (code, out, err) == (EXIT_DOMAIN, "", f"error: malformed graph JSON in {target}: "
                                f"ValueError('edges must be an array, got {kind}')\n")


@pytest.mark.parametrize("p,kind", [({"1/3": 0, "1/4": 0}, "dict"), ("1/3", "str")],
                         ids=["object", "string"])
def test_graph_p_must_be_an_array(capsys, tmp_path, p, kind):
    # Iterated, an object gives its keys and a string its characters.
    target = tmp_path / "graph.json"
    target.write_text(json.dumps({"n": 2, "edges": [], "p": p}))
    code, out, err = run_cli(capsys, "check-shearer", "--graph", str(target))
    assert (code, out, err) == (EXIT_DOMAIN, "", f"error: malformed graph JSON in {target}: "
                                f"ValueError('p must be an array, got {kind}')\n")


@pytest.mark.parametrize("p", [[True, "1/2"], ["1/2", False], [True, True]],
                         ids=["true-first", "false-second", "true-twice"])
def test_bool_probability_is_not_a_number(capsys, tmp_path, p):
    # JSON true is not the probability 1, nor false 0: the error names the
    # entry as written, not a 1 or a 0 that the file does not hold.
    target = tmp_path / "graph.json"
    target.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "p": p}))
    code, out, err = run_cli(capsys, "check-shearer", "--graph", str(target))
    bad = next(entry for entry in p if type(entry) is bool)
    assert (code, out, err) == (EXIT_DOMAIN, "", f"error: malformed graph JSON in {target}: "
                                f"ValueError('{bad} is not a probability')\n")


# Each setting with its variable, its default, three distinct values and a run that
# reports the value in force: in fixedpoint's JSON parameters, or in the message of a
# guard that the run exceeds (H_5 has 62 vertices; the input declares 300000 variables).
SETTINGS = [
    ("--precision", "SATLLL_PRECISION", DEFAULT_PRECISION, (300, 320, 340),
     ["--format", "json", "fixedpoint", "--k", "2", "--L", "2", "--max-trajectory", "0"]),
    ("--guard-vertices", "SATLLL_GUARD_VERTICES", DEFAULT_VERTEX_GUARD, (10, 20, 30),
     ["hj", "--j", "5", "--k", "2", "--L", "2"]),
    ("--guard-clauses", "SATLLL_GUARD_CLAUSES", DEFAULT_CLAUSE_GUARD, (10, 20, 30),
     ["mt", "--cnf", INPUT]),
]


def _value_in_force(capsys, argv) -> int:
    code, out, err = run_cli(capsys, *argv)
    if code == 0:
        return json.loads(out)["parameters"]["precision"]
    assert code == EXIT_GUARD
    return int(re.fullmatch(r"error: .*, guard is (\d+)\n", err).group(1))


@pytest.mark.parametrize("flag,variable,default,values,command", SETTINGS,
                         ids=[setting[0] for setting in SETTINGS])
def test_setting_resolution_order(capsys, monkeypatch, tmp_path, flag, variable, default,
                                  values, command):
    target = tmp_path / "input"
    target.write_text("p cnf 300000 1\n1 2 3 0\n")
    command = [arg.replace(INPUT, str(target)) for arg in command]
    env, before, after = values
    monkeypatch.delenv(variable, raising=False)
    assert _value_in_force(capsys, command) == default
    monkeypatch.setenv(variable, str(env))
    assert _value_in_force(capsys, command) == env
    assert _value_in_force(capsys, [flag, str(before), *command]) == before
    assert _value_in_force(capsys, [flag, str(before), *command, flag, str(after)]) == after
    # Each call reads the environment anew.
    monkeypatch.setenv(variable, str(env + 1))
    assert _value_in_force(capsys, command) == env + 1
    # A malformed variable is a usage error even when the flag is given.
    monkeypatch.setenv(variable, "abc")
    with pytest.raises(SystemExit) as excinfo:
        main([flag, str(before), *command])
    assert excinfo.value.code == 2
    assert f"{variable} must be an integer, got 'abc'" in capsys.readouterr().err


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(["n", "edges", "p", ""]), children)),
    max_leaves=8)
DIMACS_LIKE = st.builds(
    lambda variables, declared, clauses: f"p cnf {variables} {declared}\n" + "".join(
        " ".join(map(str, clause)) + " 0\n" for clause in clauses),
    st.integers(-1, 12), st.integers(-1, 12),
    st.lists(st.lists(st.integers(-12, 12), max_size=4), max_size=12))


@st.composite
def graph_json_values(draw):
    """A well-formed graph, or one with a field or a list entry replaced by any JSON value."""
    n = draw(st.integers(0, 12))
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    probability = st.fractions(Fraction(1, 12), Fraction(11, 12), max_denominator=12)
    graph = {"n": n, "edges": draw(st.lists(edge, max_size=3 * n)) if n > 1 else [],
             "p": draw(st.lists(probability.map(str), min_size=n, max_size=n))}
    key = draw(st.sampled_from([None, "n", "edges", "p"]))
    if key in ("edges", "p") and graph[key] and draw(st.booleans()):
        graph[key][draw(st.integers(0, len(graph[key]) - 1))] = draw(JSON_VALUES)
    elif key is not None:
        graph[key] = draw(JSON_VALUES)
    return graph


@st.composite
def well_formed_dimacs(draw):
    width = draw(st.integers(1, 4))
    variables = draw(st.integers(width, 12))
    clause = st.lists(st.integers(1, variables), min_size=width, max_size=width, unique=True)
    clauses = [[v if draw(st.booleans()) else -v for v in c]
               for c in draw(st.lists(clause, max_size=12))]
    return f"p cnf {variables} {len(clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in clauses)


# A 12-vertex guard keeps every accepted input small enough to decide quickly.
FUZZ_FLAGS = ["--guard-vertices", "12"]


def _exit_code_for(tmp_path_factory, flag: str, content: bytes) -> int:
    target = tmp_path_factory.mktemp("fuzz") / "input"
    target.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(FUZZ_FLAGS + ["check-shearer", flag, str(target)])


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=200) | (DIMACS_LIKE | well_formed_dimacs()).map(str.encode))
def test_fuzz_cnf_input_exits_with_documented_code(tmp_path_factory, content):
    assert _exit_code_for(tmp_path_factory, "--cnf", content) in {0, 2, 3, 4, 5, 6}


@settings(max_examples=80, deadline=None)
@given(JSON_VALUES | graph_json_values())
def test_fuzz_graph_input_exits_with_documented_code(tmp_path_factory, value):
    content = json.dumps(value).encode()
    assert _exit_code_for(tmp_path_factory, "--graph", content) in {0, 2, 3, 4, 5, 6}


# A few strings, repeated across vertices.  An int, or a string or float outside
# (0,1) once parsed, replaces one entry of half the graphs.
PROBABILITY_POOL = ["1/2", "1/3", "2/7", "0.3", "5e-1", "3/4", "0.6"]
OUTSIDE = st.sampled_from(["3/2", "0", "1e0", 0.0, 1.0]) | st.integers(-1, 2)


@st.composite
def pooled_graphs(draw):
    n = draw(st.integers(1, 6))
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    entry = (st.sampled_from(PROBABILITY_POOL)
             | st.floats(0, 1, exclude_min=True, exclude_max=True))
    p = draw(st.lists(entry, min_size=n, max_size=n))
    if draw(st.booleans()):
        p[draw(st.integers(0, n - 1))] = draw(OUTSIDE)
    return {"n": n, "edges": draw(st.lists(edge, max_size=2 * n)) if n > 1 else [], "p": p}


@settings(max_examples=60, deadline=None)
@given(pooled_graphs())
def test_graph_probabilities_decide_as_their_fractions(tmp_path_factory, graph):
    target = tmp_path_factory.mktemp("pooled") / "graph.json"
    target.write_text(json.dumps(graph))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-shearer", "--graph", str(target)])
    dep = DepGraph.from_edges(graph["n"], map(tuple, graph["edges"]))
    try:
        verdict = shearer.shearer_check(dep, [Fraction(x) for x in graph["p"]])
    except DomainError as exc:
        assert (code, out.getvalue(), err.getvalue()) == (EXIT_DOMAIN, "", f"error: {exc}\n")
        return
    expected = ("SATISFIED\n" if verdict.satisfied else
                f"VIOLATED witness={{{','.join(map(str, verdict.witness))}}} "
                f"Q={verdict.witness_value}\n")
    assert (code, out.getvalue(), err.getvalue()) == (0, expected, "")
