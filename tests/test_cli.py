import json

import pytest

from satlll.cli import (EXIT_CERTIFICATION, EXIT_DIMACS, EXIT_DOMAIN,
                        EXIT_GUARD, main)


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


def test_construct_guard_exit(capsys):
    code, _, err = run_cli(capsys, "--guard-clauses", "4",
                           "construct", "--k", "3", "--L", "3", "--r", "4")
    assert code == EXIT_GUARD


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


def test_fixedpoint_text(capsys):
    code, out, _ = run_cli(capsys, "fixedpoint", "--k", "2", "--L", "2")
    assert code == 0
    assert "verdict=violated" in out
    assert "step=3" in out


def test_fixedpoint_json_truncates_trajectory(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "fixedpoint",
                           "--k", "2", "--L", "2", "--max-trajectory", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["kind"] == "violated"
    assert len(payload["trajectory"]) == 2
    assert payload["trajectory_truncated"] is True


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
    assert payload["stats"]["rule"] == "uniform-random"


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
    assert payload["F_LLL"] == 20 and payload["F_MT"] == 22
    assert payload["gap_inequality"]["satisfied"] is True
    assert payload["harris_alpha"]["22"]["satisfied"] is True
    assert payload["harris_alpha"]["23"]["satisfied"] is False


def test_common_flags_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "table", "9", "9", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["k"] == 9


def test_precision_floor(capsys):
    code, _, err = run_cli(capsys, "--precision", "16", "table", "9", "9")
    assert code == EXIT_DOMAIN


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    capsys.readouterr()


K2_GRAPH = {"n": 2, "edges": [[0, 1]], "p": ["1/2", "1/2"]}


@pytest.mark.parametrize("option,content,precision_env,expected,message", [
    ("--graph", json.dumps({**K2_GRAPH, "edges": [[0, 2]]}), None,
     EXIT_DOMAIN, "out of range"),
    ("--graph", json.dumps({"n": 2, "p": ["1/2", "1/2"]}), None, EXIT_DOMAIN, "'edges'"),
    ("--graph", json.dumps({**K2_GRAPH, "p": ["x", "1/2"]}), None, EXIT_DOMAIN, "'x'"),
    ("--graph", "{not json", None, EXIT_DOMAIN, "malformed graph JSON"),
    ("--graph", None, None, EXIT_DOMAIN, "cannot read"),
    ("--cnf", None, None, EXIT_DOMAIN, "cannot read"),
    ("--cnf", "p cnf 6 2\n1 2 3 0\n4 5 6 0\n", "abc", 2, "SATLLL_PRECISION"),
    ("--cnf", "p cnf 2 1\n1 3 0\n", None, EXIT_DIMACS, "line 2"),
], ids=["edge-out-of-range", "no-edges", "bad-probability", "not-json",
        "missing-graph-file", "missing-cnf-file", "bad-precision-env", "literal-above-count"])
def test_input_failures_map_to_exit_codes(capsys, monkeypatch, tmp_path, option, content,
                                          precision_env, expected, message):
    target = tmp_path / "input"
    if content is not None:
        target.write_text(content)
    if precision_env is not None:
        monkeypatch.setenv("SATLLL_PRECISION", precision_env)
    try:
        code = main(["check-shearer", option, str(target)])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert message in err
    assert "Traceback" not in err
