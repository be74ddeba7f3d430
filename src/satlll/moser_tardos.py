"""The resampling algorithm: draw all variables, resample true bad events.

An event is the tuple of its clause's signed literals and holds when every
literal is false.  The values live in one bytearray indexed by signed
literal (sat_model.truth_table): truth[z] is 1 exactly when literal z is
true, and a flip of x_v writes both truth[v] and truth[-v].

Reproducibility contract: identical (events, rule, seed, max_steps)
produce identical traces.  Three independent Mersenne Twister streams are
derived from the seed: one for the initial draw, one for resampling, one
for random event selection.  Each draw is a fair coin, randrange(2) < 1,
so an event B has probability 2^-|B|.  The coins are drawn in bulk, equal
to successive randrange(2) < 1 calls as CPython's random module (3.11)
makes them; another interpreter's randrange may give other traces.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, repeat
from operator import not_
from typing import Sequence

from .errors import DomainError
from .events_graph import Event, literal_index
from .sat_model import truth_table


# randrange(2) is the top two bits of a 32-bit word, redrawn while they read
# 2 or 3: so the coin randrange(2) < 1 is 1 for a top byte below 64, 0 below
# 128, and a top byte of 128 or more is deleted.
_COIN_OF_TOP_BYTE = bytes([1] * 64 + [0] * 192)
_REDRAWN = bytes(range(128, 256))
COIN_CHUNK = 256  # words per refill of a coin stream, about 128 coins


def _coins(rng: random.Random, words: int) -> bytes:
    """The coins (0 or 1) of rng's next 32-bit words; getrandbits puts word i in
    bits 32i to 32i + 31, so byte 4i + 3 of the little-endian bytes is its top."""
    top_bytes = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
    return top_bytes.translate(_COIN_OF_TOP_BYTE, _REDRAWN)


def fair_coins(rng: random.Random, n: int) -> bytes:
    """[rng.randrange(2) < 1 for _ in range(n)] as bytes; reads words beyond them."""
    coins = b""
    while len(coins) < n:  # 2 words per missing coin give enough about half the time
        coins += _coins(rng, 2 * (n - len(coins)))
    return coins[:n]


def coin_stream(rng: random.Random):
    """The endless successive randrange(2) < 1 of rng as 0/1, drawn COIN_CHUNK words at a time."""
    return chain.from_iterable(map(_coins, repeat(rng), repeat(COIN_CHUNK)))


class SelectionRule(Enum):
    FIRST_INDEX = "first-index"
    UNIFORM_RANDOM = "uniform-random"
    LOWEST_PROBABILITY = "lowest-probability"


@dataclass
class RunStats:
    per_event_resamples: tuple[int, ...]
    terminated: bool
    steps: int  # one resample per step, so also the total resample count


def run_mt(events: Sequence[Event], m: int, rule: SelectionRule, seed: int,
           max_steps: int) -> tuple[bytes, RunStats]:
    """Run the resampling loop on m variables, each drawn as a fair coin.

    Returns the values (bytes, values[v-1] is x_v) and the stats.
    Non-termination within max_steps surfaces as terminated=False, never
    as an exception.

    The true events are kept as an increasing list of indices, and every
    rule picks by position.  Lowest-probability takes events of one width
    only (DomainError otherwise), as every formula's are: P(B) = 2^-|B| is
    then the same for all, so it picks what first-index picks.  A resample
    changes only the events on the variables whose value it flipped: those
    with the literal that became true become false, those with the literal
    that became false are re-tested, each found by bisecting the literal
    index.  So a step costs O(sum of R(v) over its k variables) plus
    O(k log N) bisects and the list update, and the selection is the one a
    full rescan would make.
    """
    if max_steps < 0:
        raise DomainError(f"max_steps must be >= 0, got {max_steps}")
    if not isinstance(rule, SelectionRule):
        raise DomainError(f"unknown selection rule {rule!r}")
    if rule is SelectionRule.LOWEST_PROBABILITY and len(set(map(len, events))) > 1:
        raise DomainError("lowest-probability needs events of one width")
    lits, holders = literal_index(events, m)  # also checks every variable is in [1, m]

    init_rng = random.Random(f"{seed}:init")
    resample_rng = random.Random(f"{seed}:resample")
    select_rng = random.Random(f"{seed}:select")

    truth = truth_table(fair_coins(init_rng, m))  # truth[z] is 1 iff literal z is true
    is_true = truth.__getitem__
    coin = coin_stream(resample_rng)

    # An event holds when no literal is true.
    true_events = list(compress(range(len(events)),
                                map(not_, map(any, map(map, repeat(is_true), events)))))
    per_event = [0] * len(events)
    steps = 0
    while true_events and steps < max_steps:
        at = (select_rng.randrange(len(true_events))
              if rule is SelectionRule.UNIFORM_RANDOM else 0)
        chosen = true_events[at]
        flipped = []
        for variable in sorted(map(abs, events[chosen])):
            new = next(coin)
            if new != truth[variable]:
                truth[variable] = new
                truth[-variable] = 1 - new
                flipped.append(variable if new else -variable)
        per_event[chosen] += 1
        steps += 1
        for z in flipped:  # literal z became true, literal -z false
            for i in holders[bisect_left(lits, z):bisect_right(lits, z)]:
                at = bisect_left(true_events, i)
                if at < len(true_events) and true_events[at] == i:
                    del true_events[at]
            for i in holders[bisect_left(lits, -z):bisect_right(lits, -z)]:
                if not any(map(is_true, events[i])):
                    at = bisect_left(true_events, i)
                    if at == len(true_events) or true_events[at] != i:
                        true_events.insert(at, i)

    return bytes(truth[1:m + 1]), RunStats(tuple(per_event), not true_events, steps)
