import random
from array import array
from fractions import Fraction

import pytest

from satlll.events_graph import DepGraph
from satlll.sat_model import Formula

# The defaults of fixedpoint --max-iter and mt --max-steps, which the library
# takes as required arguments; the precision's is satlll.cli.DEFAULT_PRECISION.
MAX_ITER = 100_000
MAX_STEPS = 1_000_000


def random_graph(rng: random.Random, max_vertices: int = 12,
                 edge_probability: float = 0.35) -> DepGraph:
    n = rng.randint(1, max_vertices)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_probability]
    return DepGraph.from_edges(n, edges)


def random_probabilities(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(1, 9), rng.randint(10, 24)) for _ in range(n)]


def random_formula(rng: random.Random, k: int, m: int, n_clauses: int) -> Formula:
    """Random width-k formula on m variables (distinct variables per clause)."""
    literals = []
    for _ in range(n_clauses):
        variables = rng.sample(range(1, m + 1), k)
        literals += [v if rng.random() < 0.5 else -v for v in variables]
    return Formula(k, m, array("q", literals))


def random_low_occurrence_formula(rng: random.Random, k: int, m: int,
                                  n_clauses: int) -> Formula:
    """Random width-k formula where every literal occurs at most once."""
    available = [(v, pol) for v in range(1, m + 1) for pol in (True, False)]
    rng.shuffle(available)
    literals = []
    for _ in range(n_clauses):
        picked = []
        used_vars = set()
        attempts = 0
        while len(picked) < k:
            if not available or attempts > 4 * len(available) + 8:
                raise ValueError("not enough literals for requested clause count")
            candidate = available.pop()
            attempts += 1
            if candidate[0] in used_vars:
                available.insert(0, candidate)
                continue
            picked.append(candidate)
            used_vars.add(candidate[0])
        literals += [v if pol else -v for v, pol in sorted(picked)]
    return Formula(k, m, array("q", literals))


@pytest.fixture
def rng():
    return random.Random(20240817)
