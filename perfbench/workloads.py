"""The four seeded workloads.

A workload hands out decks.  A deck has a fixed composition (so many ops of
each kind and cost tier) in a seeded order, with fresh seeded parameters
for every op, so runs with different seeds do the same mix of work.  Pools
of parameters are drawn along a Weyl sequence (``Spread``), so any stretch
of a run covers each pool evenly whatever the seed.

An op is ``run`` (the timed call into qmtree), an optional ``reference``
(computed outside the timed region, its result passed to the check) and
``check`` (the oracle; raises ``WrongAnswer``).  ``key`` identifies the
input, for the distinct-input count.  The qmtree functions are looked up
on their modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable, Optional

import oracles as orc
from oracles import require

HERE = Path(__file__).resolve().parent
# (a, b) inputs of maximal_order by cost tier, each in cost order on the
# reference machine (make_pools.py): no split prime, one split prime below
# 30, one split prime in 80..101 with a full _hereditary_split scan.  The
# tiers hold hundreds of algebras, so a run's draws rarely repeat one.
POOLS = {tier: [(a, b) for a, b, _ in rows] for tier, rows in json.loads(
    (HERE / "pools.json").read_text(encoding="utf-8")).items()}
RAMIFIED = POOLS["ramified"]
SMALL_SPLIT = POOLS["small_split"]
LARGE_SPLIT = POOLS["large_split"]
# maximal orders that Eichler orders, ideals and ideal trees are built on
BASES = [(-1, -1), (-1, 3), (-2, 5), (-1, 7)]
# left_ideals_of_norm costs O(ell): one ell per tier per full mix; the top
# two tiers are heavy ops
IDEAL_TIERS = [(3, 10), (10, 30), (30, 100), (100, 300), (300, 600),
               (600, 1010)]
TREE_PRIMES = (5, 7)
SMALL_ELLS = (2, 3, 5)
SEED_RANGE = 10 ** 6

# guard probes: inputs with no bound on their cost today (ROADMAP item 4)
BIG_PRIME = 10 ** 42 + 63
GUARD_LIMIT_S = 15
OP_LIMIT_S = 120

FIXTURES = HERE / "fixtures"


@dataclass
class Context:
    """What every workload is built with."""

    qm: object       # namespace of the qmtree modules, by layer name
    root: Path       # checkout root: the working directory of children
    workdir: Path    # directory for op input files
    python: str      # interpreter for child processes
    env: dict        # environment for child processes


@dataclass
class Op:
    kind: str
    key: int
    run: Callable[[], object]
    check: Callable[..., None]
    reference: Optional[Callable[[], object]] = None


class Spread:
    """Draws from a pool along a Weyl sequence: golden-ratio steps from a
    seeded start.  Any stretch of draws covers the pool evenly, so runs with
    different seeds draw nearly the same mix.  Pools are listed in cost order."""

    M = 1 << 32
    STEP = 2654435769  # M * (sqrt(5) - 1) / 2, rounded

    def __init__(self, rng, pool):
        self.pool = list(pool)
        require(self.pool, "empty parameter pool")
        self.x = rng.randrange(self.M)

    def draw(self):
        self.x = (self.x + self.STEP) % self.M
        return self.pool[self.x * len(self.pool) // self.M]


def _squarefree_levels(D, hi=400):
    """Levels prime to D, cheapest first: the cost grows with omega(N)."""
    return sorted((N for N in range(3, hi) if orc.is_squarefree(N)
                   and gcd(N, D) == 1 and len(orc.prime_factors(N)) <= 3),
                  key=lambda N: (len(orc.prime_factors(N)), N))


# ---------------------------------------------------------------- orders

class Orders:
    """maximal_order, eichler_order, left_ideals_of_norm, ideal trees."""

    mix_decks = 4
    mem_decks = 8

    def __init__(self, rng, ctx):
        self.rng, self.qm = rng, ctx.qm
        self.ramified = Spread(rng, RAMIFIED)
        self.small_split = Spread(rng, SMALL_SPLIT)
        self.large_split = Spread(rng, LARGE_SPLIT)
        self.bases = Spread(rng, BASES)
        self.levels = {ab: Spread(rng, _squarefree_levels(self._disc(ab)))
                       for ab in BASES}
        self.ells = {(ab, tier): Spread(rng, [p for p in orc.primes_between(*tier)
                                            if self._disc(ab) % p])
                     for ab in BASES for tier in IDEAL_TIERS}
        self.tree_inputs = Spread(rng, [(ab, ell) for ell in TREE_PRIMES
                                        for ab in BASES
                                        if self._disc(ab) % ell])
        self.maximal = {}
        self.queue = []

    @staticmethod
    def _disc(ab):
        return orc.algebra_discriminant(*ab)

    def _maximal_of(self, ab):
        """The base algebra's maximal order, computed by the first op that
        needs it (inside that op's timing) and kept for the run."""
        if ab not in self.maximal:
            A = self.qm.quaternion.QuaternionAlgebra(*ab)
            self.maximal[ab] = self.qm.orders.maximal_order(A)
        return self.maximal[ab]

    def _seed(self):
        return self.rng.randrange(SEED_RANGE)

    def maximal_op(self, ab):
        a, b = ab
        D = self._disc(ab)
        od, QA = self.qm.orders, self.qm.quaternion.QuaternionAlgebra
        return Op("maximal_order", hash(("max", ab)),
                  lambda: od.maximal_order(QA(a, b)),
                  lambda O: orc.check_order_discriminant(a, b, O.basis, D))

    def eichler_op(self, ab, N, seed):
        D = self._disc(ab)
        od = self.qm.orders
        return Op("eichler_order", hash(("eichler", ab, N, seed)),
                  lambda: od.eichler_order(self._maximal_of(ab), N, seed=seed),
                  lambda E: orc.check_order_discriminant(*ab, E.basis, D * N))

    def ideals_op(self, ab, ell, seed):
        od = self.qm.orders

        def run():
            O = self._maximal_of(ab)
            return O, od.left_ideals_of_norm(O, ell, seed=seed)

        def check(res):
            O, ideals = res
            orc.check_ideals_of_norm(O.basis, [I.lattice for I in ideals], ell)
        return Op("left_ideals_of_norm", hash(("ideals", ab, ell, seed)),
                  run, check)

    def ideal_tree_op(self, ab, ell, seed):
        it = self.qm.ideal_tree

        def run():
            tr = it.build_ideal_tree(self._maximal_of(ab), ell, 2, seed=seed)
            return tr, it.verify_tree_isomorphism(tr, seed=seed)

        def check(res):
            tr, report = res
            require(len(tr.nodes) == 1 + (ell + 1) + (ell + 1) * ell,
                    "ideal tree has the wrong size")
            require(report.get("ok") is True, "tree isomorphism check failed")
        return Op("build_ideal_tree", hash(("tree", ab, ell, seed)), run, check)

    def deck(self):
        """A quarter of the full mix of 20 ops.  Each quarter carries one of
        the four heavy ops, so decks cost about the same and the end of a
        run lands on a deck boundary with the mix intact."""
        if not self.queue:
            ab, ell = self.tree_inputs.draw()
            heavy = [self.maximal_op(self.large_split.draw()),
                     self._ideals(IDEAL_TIERS[-2]), self._ideals(IDEAL_TIERS[-1]),
                     self.ideal_tree_op(ab, ell, self._seed())]
            rest = [self.maximal_op(self.ramified.draw()) for _ in range(6)]
            rest += [self.maximal_op(self.small_split.draw()) for _ in range(2)]
            for _ in range(4):
                ab = self.bases.draw()
                rest.append(self.eichler_op(ab, self.levels[ab].draw(),
                                            self._seed()))
            rest += [self._ideals(tier) for tier in IDEAL_TIERS[:-2]]
            self.rng.shuffle(heavy)
            self.rng.shuffle(rest)
            self.queue = [[h] + rest[i::4] for i, h in enumerate(heavy)]
            for ops in self.queue:
                self.rng.shuffle(ops)
        return self.queue.pop()

    def _ideals(self, tier):
        ab = self.bases.draw()
        return self.ideals_op(ab, self.ells[ab, tier].draw(), self._seed())

    def guard(self):
        """maximal_order on (-1, 1009): the ell^4 hereditary-split loop."""
        code = ("import qmtree as q; "
                "q.maximal_order(q.QuaternionAlgebra(-1, 1009))")
        return "maximal_order(-1,1009)", ["-c", code]


# ---------------------------------------------------------------- tree

def _walk(rng, ell, v, n):
    """End of a random non-backtracking walk of n steps from v."""
    prev = None
    for _ in range(n):
        while True:
            w = orc.step(ell, v, rng.randrange(ell + 1))
            if w != prev:
                break
        prev, v = v, w
    return v


def _vertex(rng, ell, depth):
    return _walk(rng, ell, (1, 0, 1), depth)


def _vertex_set(rng, ell, m):
    """m distinct vertices within distance 5 of a common vertex."""
    base = _vertex(rng, ell, rng.randint(0, 4))
    out = set()
    while len(out) < m:
        out.add(_walk(rng, ell, base, rng.randint(1, 5)))
    return sorted(out)


class Tree:
    """geodesic, neighbors, distance, tree_center, spanned_subtree."""

    mix_decks = 1
    mem_decks = 20

    def __init__(self, rng, ctx):
        self.rng, self.qm = rng, ctx.qm
        self.path_len = {ell: Spread(rng, range(1, 11)) for ell in SMALL_ELLS}
        self.path_len[101] = Spread(rng, range(2, 11))
        self.path_len[1009] = Spread(rng, range(2, 9))
        # set sizes of the center and subtree ops
        top = {ell: 4 if ell == 101 else 8 for ell in SMALL_ELLS + (101,)}
        self.set_size = {(op, ell): Spread(rng, range(2, n + 1))
                         for op in ("center", "span")
                         for ell, n in top.items()}

    def _tv(self, ell, key):
        a, b, d = key
        return self.qm.tree.TreeVertex(ell, ((a, b), (0, d)))

    def geodesic_op(self, ell):
        u = _vertex(self.rng, ell, self.rng.randint(0, 5))
        v = _walk(self.rng, ell, u, self.path_len[ell].draw())
        U, V, bt = self._tv(ell, u), self._tv(ell, v), self.qm.tree
        return Op("geodesic", hash((ell, u, v)), lambda: bt.geodesic(U, V),
                  lambda path: orc.check_geodesic(ell, u, v,
                                                  [w.key() for w in path]))

    def neighbors_op(self, ell):
        v = _vertex(self.rng, ell, self.rng.randint(0, 10))
        V, bt = self._tv(ell, v), self.qm.tree
        return Op("neighbors", hash((ell, v)), lambda: bt.neighbors(V),
                  lambda nb: orc.check_neighbors(ell, v, [w.key() for w in nb]))

    def distance_op(self, ell):
        u, v = (_vertex(self.rng, ell, self.rng.randint(0, 10)) for _ in "uv")
        U, V, bt = self._tv(ell, u), self._tv(ell, v), self.qm.tree

        def check(d):
            require(d == orc.distance(ell, u, v), "wrong distance")
        return Op("distance", hash((ell, u, v)), lambda: bt.distance(U, V),
                  check)

    def center_op(self, ell, m):
        S = _vertex_set(self.rng, ell, m)
        Sv, ct = [self._tv(ell, s) for s in S], self.qm.center
        return Op("tree_center", hash((ell, tuple(S))),
                  lambda: ct.tree_center(Sv),
                  lambda c: orc.check_center(ell, S, c.kind,
                                             [w.key() for w in c.vertices]))

    def subtree_op(self, ell, m):
        S = _vertex_set(self.rng, ell, m)
        Sv, ct = [self._tv(ell, s) for s in S], self.qm.center

        def check(sub):
            orc.check_subtree(ell, S, [w.key() for w in sub.vertices],
                              [(u.key(), w.key()) for u, w in sub.edges])
        return Op("spanned_subtree", hash(("span", ell, tuple(S))),
                  lambda: ct.spanned_subtree(Sv), check)

    def deck(self):
        ops = []
        for ell in SMALL_ELLS + (101,):
            ops += [self.geodesic_op(ell), self.neighbors_op(ell),
                    self.distance_op(ell),
                    self.center_op(ell, self.set_size["center", ell].draw()),
                    self.subtree_op(ell, self.set_size["span", ell].draw())]
        # at 1009 only the path ops: a set op there would run for seconds
        ops += [self.geodesic_op(1009), self.neighbors_op(1009),
                self.distance_op(1009)]
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------- descent

def load_fixtures():
    return {p.stem: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(FIXTURES.glob("*.json"))}


class Descent:
    """scenario_from_json + run_descent on freshly transported fixtures."""

    mix_decks = 1
    mem_decks = 150

    def __init__(self, rng, ctx):
        self.rng, self.qm = rng, ctx.qm
        self.fixtures = load_fixtures()
        dsc = ctx.qm.descent
        # the untransported answers, computed before any timing starts
        self.want = {name: orc.descent_summary(
                         dsc.run_descent(dsc.scenario_from_json(obj)))
                     for name, obj in self.fixtures.items()}

    def op(self, name):
        moved = orc.transport_scenario(self.fixtures[name], self.rng)
        want, dsc = self.want[name], self.qm.descent

        def check(report):
            require(orc.descent_summary(report) == want,
                    f"transported {name} changed N, cocycle or checks")
        return Op("run_descent", hash(json.dumps(moved, sort_keys=True)),
                  lambda: dsc.run_descent(dsc.scenario_from_json(moved)),
                  check)

    def deck(self):
        names = list(self.fixtures)
        self.rng.shuffle(names)
        return [self.op(name) for name in names]


# ---------------------------------------------------------------- cli

class Cli:
    """One ``python -m qmtree`` process per op, one at a time."""

    mix_decks = 1
    mem_decks = 5

    def __init__(self, rng, ctx):
        self.rng, self.ctx, self.qm = rng, ctx, ctx.qm
        self.ramified = Spread(rng, RAMIFIED)
        self.bases = Spread(rng, BASES)
        self.levels = {ab: Spread(rng, _squarefree_levels(
            orc.algebra_discriminant(*ab), hi=40)) for ab in BASES}
        self.ells = {ab: Spread(rng, [p for p in orc.primes_between(3, 100)
                                     if orc.algebra_discriminant(*ab) % p])
                     for ab in BASES}
        self.fixtures = load_fixtures()
        self.fixture_names = Spread(rng, sorted(self.fixtures))

    def _reference(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.qm.cli.main(list(argv))
        return code, out.getvalue()

    def _op(self, kind, argv):
        cmd = [self.ctx.python, "-m", "qmtree", *argv]

        def run():
            p = subprocess.run(cmd, cwd=self.ctx.root, env=self.ctx.env,
                               capture_output=True, text=True,
                               timeout=OP_LIMIT_S)
            return p.returncode, p.stdout

        def check(res, ref):
            (code, out), (want_code, want_out) = res, ref
            require(code == want_code, f"{kind}: exit {code}, want {want_code}")
            require(json.loads(out) == json.loads(want_out),
                    f"{kind}: output differs from the in-process reference")
        # file arguments are rewritten per op: key on their contents
        files = [Path(a.split("=", 1)[-1]) for a in argv if a.endswith(".json")]
        key = hash((tuple(argv), tuple(f.read_text() for f in files)))
        return Op(kind, key, run, check, lambda: self._reference(argv))

    def _algebra_flags(self, ab):
        return [f"--a={ab[0]}", f"--b={ab[1]}"]

    def deck(self):
        rng = self.rng
        a, b = (rng.choice([-1, 1]) * rng.randint(1, 100) for _ in "ab")
        ops = [self._op("qa info", ["qa", "info", f"--a={a}", f"--b={b}"]),
               self._op("order maximal", ["order", "maximal",
                        *self._algebra_flags(self.ramified.draw())])]
        ab = self.bases.draw()
        ops.append(self._op("order eichler", [
            "order", "eichler", *self._algebra_flags(ab),
            f"--level={self.levels[ab].draw()}",
            f"--seed={rng.randrange(SEED_RANGE)}"]))
        ab = self.bases.draw()
        ops.append(self._op("ideals norm-l", [
            "ideals", "norm-l", *self._algebra_flags(ab),
            f"--l={self.ells[ab].draw()}",
            f"--seed={rng.randrange(SEED_RANGE)}"]))
        ell = rng.choice((2, 3, 5, 7))
        u = _vertex(rng, ell, rng.randint(0, 4))
        v = _walk(rng, ell, u, rng.randint(2, 8))
        ops.append(self._op("bt geodesic", [
            "bt", "geodesic", f"--u={orc.vertex_literal(ell, u)}",
            f"--v={orc.vertex_literal(ell, v)}"]))
        ell = rng.choice(SMALL_ELLS)
        S = _vertex_set(rng, ell, rng.randint(2, 8))
        centers = self.ctx.workdir / "center.json"
        centers.write_text(json.dumps([orc.vertex_literal(ell, s) for s in S]))
        ops.append(self._op("bt center", ["bt", "center",
                                          f"--vertices={centers}"]))
        scenario = self.ctx.workdir / "scenario.json"
        moved = orc.transport_scenario(
            self.fixtures[self.fixture_names.draw()], rng)
        scenario.write_text(json.dumps(moved))
        ops.append(self._op("descent run", ["descent", "run", str(scenario)]))
        rng.shuffle(ops)
        return ops

    def guard(self):
        """qa info with a 43-digit --b: trial-division factorization."""
        return ("qa info --b=<43 digits>",
                ["-m", "qmtree", "qa", "info", "--a=-1", f"--b={BIG_PRIME}"])


WORKLOADS = {"orders": Orders, "tree": Tree, "descent": Descent, "cli": Cli}
