"""The verdicts of tools/bench_pairs.py, on hand-made summaries."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def verdict():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verdict


def side(median, q1, q3):
    return {"median": median, "q1": q1, "q3": q3}


@pytest.mark.parametrize("parent, change, wins, pairs, bound, expected", [
    # 9 of 10 pairs and a gap of 0.025 past the parent's spread of 0.01.
    (side(0.30, 0.295, 0.305), side(0.275, 0.27, 0.28), 9, 10, 0.2, "gain"),
    # The same gap, but 8 of 10 pairs: not a gain, and well within the bound.
    (side(0.30, 0.295, 0.305), side(0.275, 0.27, 0.28), 8, 10, 0.2, "within bound"),
    # 10 of 10 pairs, but the gap does not exceed the spread.
    (side(0.30, 0.29, 0.31), side(0.29, 0.28, 0.30), 10, 10, 0.2, "within bound"),
    # Nine tenths rounds up: 18 of 20 is enough, 17 of 19 is not.
    (side(1.0, 0.99, 1.01), side(0.9, 0.89, 0.91), 18, 20, 0.1, "gain"),
    (side(1.0, 0.99, 1.01), side(0.9, 0.89, 0.91), 17, 19, 0.1, "within bound"),
    # Past the parent's median by more than the bound, and exactly at it.
    (side(1.0, 0.99, 1.01), side(1.11, 1.1, 1.12), 0, 10, 0.1, "worse"),
    (side(1.0, 0.99, 1.01), side(1.1, 1.09, 1.11), 0, 10, 0.1, "within bound"),
    # A parent spread wider than the bound hides a shift below it.
    (side(1.0, 0.8, 1.3), side(1.05, 0.9, 1.2), 3, 10, 0.25, "unresolved"),
    (side(1.0, 0.8, 1.3), side(1.3, 1.2, 1.4), 0, 10, 0.25, "worse"),
    (side(1.0, 0.8, 1.3), side(0.4, 0.35, 0.45), 10, 10, 0.25, "gain"),
])
def test_verdicts(verdict, parent, change, wins, pairs, bound, expected):
    assert verdict(parent, change, wins, pairs, bound) == expected
