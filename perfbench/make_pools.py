"""Build ``pools.json``: the (a, b) inputs of the ``maximal_order`` ops.

    python3 perfbench/make_pools.py perfbench/pools.json

Enumerates the algebras (a, b) with a, b squarefree, coprime, neither 0
nor 1, and |a| <= |b| <= 100, and sorts them into three cost tiers by
their split primes: the odd primes p dividing ab with (a, b)_p = 1, each of
which costs maximal_order one ``_hereditary_split`` search.

- ``ramified``: no split prime;
- ``small_split``: one split prime, below 30;
- ``large_split``: one split prime in 80..101.  The search there is
  either quick (the first element tried splits) or a full O(p^2) scan;
  only the full scans are kept.

Each algebra is timed once, in a shuffled order so that drift of the host
does not line up with the tiers.  The ramified and large-split tiers keep
the middle half of their times: the median op of the ``orders`` mix falls
among the ramified ones and its tail among the heavy ones, so tight tiers
there keep those two figures steady.  Each tier is written sorted by time;
``Spread`` draws it in that order, so every run gets the same spread of
costs, with hundreds of algebras per tier so that a run rarely repeats one.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles as orc  # noqa: E402

BOUND = 100
# full O(p^2) scans at p >= 80 take over a second on the reference machine;
# the quick ones under 0.2 s
LARGE_MIN_MS = 500


def split_primes(a, b):
    return [p for p in orc.prime_factors(a * b)
            if p != 2 and orc.hilbert(a, b, p) == 1]


def tier_of(a, b):
    S = split_primes(a, b)
    if not S:
        return "ramified"
    if len(S) == 1 and S[0] < 30:
        return "small_split"
    if len(S) == 1 and 80 <= S[0] <= 101:
        return "large_split"
    return None


def candidates():
    vals = [n for n in range(-BOUND, BOUND + 1)
            if n not in (0, 1) and orc.is_squarefree(n)]
    for a in vals:
        for b in vals:
            if abs(a) > abs(b) or (abs(a) == abs(b) and a >= b):
                continue
            if orc.gcd(a, b) == 1 and tier_of(a, b):
                yield a, b


def middle_half(pool):
    n = len(pool)
    return pool[n // 4: n - n // 4]


def main(out_path):
    from qmtree import QuaternionAlgebra, maximal_order
    pairs = list(candidates())
    random.Random(0).shuffle(pairs)
    pools = {"ramified": [], "small_split": [], "large_split": []}
    for a, b in pairs:
        t0 = time.perf_counter_ns()
        maximal_order(QuaternionAlgebra(a, b))
        ms = (time.perf_counter_ns() - t0) // 10 ** 6
        tier = tier_of(a, b)
        if tier != "large_split" or ms >= LARGE_MIN_MS:
            pools[tier].append([a, b, ms])
    for pool in pools.values():
        pool.sort(key=lambda r: (r[2], r[0], r[1]))
    for tier in ("ramified", "large_split"):
        pools[tier] = middle_half(pools[tier])
    Path(out_path).write_text(
        "{\n" + ",\n".join(f' "{k}": {json.dumps(v)}' for k, v in pools.items())
        + "\n}\n", encoding="utf-8")
    print({k: len(v) for k, v in pools.items()})


if __name__ == "__main__":
    main(sys.argv[1])
