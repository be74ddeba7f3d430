"""The resampling algorithm: draw all variables, resample true bad events.

Reproducibility contract: identical (events, bias, rule, seed, max_steps)
produce identical traces.  Three independent Mersenne Twister streams are
derived from the seed: one for the initial draw, one for resampling, one
for random event selection.  Rational biases are sampled exactly by
comparing an integer draw below the denominator against the numerator.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Sequence

from .errors import DomainError
from .events_graph import BadEvent, atom_index


class SelectionRule(Enum):
    FIRST_INDEX = "first-index"
    UNIFORM_RANDOM = "uniform-random"
    LOWEST_PROBABILITY = "lowest-probability"


@dataclass
class RunStats:
    total_resamples: int
    per_event_resamples: tuple[int, ...]
    terminated: bool
    steps: int
    seed: int
    max_steps: int
    rule: SelectionRule

    def to_json_dict(self) -> dict:
        return {"total_resamples": self.total_resamples,
                "per_event_resamples": list(self.per_event_resamples),
                "terminated": self.terminated,
                "steps": self.steps,
                "seed": self.seed,
                "max_steps": self.max_steps,
                "rule": self.rule.value}


def _draw(rng: random.Random, bias: Fraction) -> bool:
    return rng.randrange(bias.denominator) < bias.numerator


def event_probability(event: BadEvent, bias: Sequence[Fraction]) -> Fraction:
    prob = Fraction(1)
    for variable, value in event.atoms:
        prob *= bias[variable] if value else 1 - bias[variable]
    return prob


def _select(true_events: list[int], rule: SelectionRule, rng: random.Random,
            probability: Callable[[int], Fraction] | None) -> int:
    """The event that rule picks from true_events, a nonempty increasing list.

    min returns the first of equal keys, so lowest-probability ties go to
    the lowest index.
    """
    if rule is SelectionRule.FIRST_INDEX:
        return true_events[0]
    if rule is SelectionRule.UNIFORM_RANDOM:
        return true_events[rng.randrange(len(true_events))]
    if rule is SelectionRule.LOWEST_PROBABILITY:
        if probability is None:
            raise DomainError("lowest-probability rule needs event probabilities")
        return min(true_events, key=probability)
    raise DomainError(f"unknown selection rule {rule!r}")


def find_true_bad_event(assignment: dict[int, bool], events: Sequence[BadEvent],
                        rule: SelectionRule, rng: random.Random,
                        probabilities: Sequence[Fraction] | None = None) -> Optional[int]:
    true_events = [i for i, e in enumerate(events) if e.holds(assignment)]
    if not true_events:
        return None
    return _select(true_events, rule, rng,
                   None if probabilities is None else probabilities.__getitem__)


def run_mt(events: Sequence[BadEvent], m: int,
           bias: Sequence[Fraction] | None = None,
           rule: SelectionRule = SelectionRule.FIRST_INDEX,
           seed: int = 0,
           max_steps: int = 1_000_000) -> tuple[dict[int, bool], RunStats]:
    """Run the resampling loop on m variables; bias[i] = P(X_i = True).

    bias is indexed 1..m (slot 0 ignored) and defaults to the uniform 1/2.
    Non-termination within max_steps surfaces as terminated=False, never
    as an exception.

    The true events are kept as an increasing list.  A resample changes
    only the events on the variables whose value it flipped: those with
    the old value become false, those with the new value are re-tested.
    So a step costs O(sum of R(v) over its k variables) plus the list
    update, and the selection is the one a full rescan would make.
    """
    if max_steps < 0:
        raise DomainError(f"max_steps must be >= 0, got {max_steps}")
    uniform = bias is None
    bias = [Fraction(1, 2)] * (m + 1) if uniform else [Fraction(x) for x in bias]
    if len(bias) != m + 1:
        raise DomainError(f"bias must have m+1={m + 1} entries (slot 0 unused)")
    if not uniform:  # the default 1/2 needs no range check
        for i in range(1, m + 1):
            if not 0 <= bias[i] <= 1:
                raise DomainError(f"bias[{i}]={bias[i]} outside [0,1]")
    for event in events:
        if any(v < 1 or v > m for v in event.variables):
            raise DomainError("event mentions a variable outside [1, m]")

    init_rng = random.Random(f"{seed}:init")
    resample_rng = random.Random(f"{seed}:resample")
    select_rng = random.Random(f"{seed}:select")
    # Computed once per event, the first time the event is true.
    probability = (cache(lambda i: event_probability(events[i], bias))
                   if rule is SelectionRule.LOWEST_PROBABILITY else None)

    assignment = {i: _draw(init_rng, bias[i]) for i in range(1, m + 1)}
    start, entries = atom_index(events, m)
    true_events = [i for i, e in enumerate(events) if e.holds(assignment)]
    per_event = [0] * len(events)
    steps = 0
    while true_events and steps < max_steps:
        chosen = _select(true_events, rule, select_rng, probability)
        flipped = []
        for variable in sorted(events[chosen].variables):
            value = _draw(resample_rng, bias[variable])
            if value != assignment[variable]:
                assignment[variable] = value
                flipped.append(2 * variable + value)
        per_event[chosen] += 1
        steps += 1
        for slot in flipped:  # the atom (v, new value); slot ^ 1 is (v, old value)
            for i in entries[start[slot ^ 1]:start[(slot ^ 1) + 1]]:
                at = bisect_left(true_events, i)
                if at < len(true_events) and true_events[at] == i:
                    del true_events[at]
            for i in entries[start[slot]:start[slot + 1]]:
                if events[i].holds(assignment):
                    at = bisect_left(true_events, i)
                    if at == len(true_events) or true_events[at] != i:
                        true_events.insert(at, i)

    stats = RunStats(total_resamples=sum(per_event),
                     per_event_resamples=tuple(per_event),
                     terminated=not true_events, steps=steps, seed=seed,
                     max_steps=max_steps, rule=rule)
    return assignment, stats
