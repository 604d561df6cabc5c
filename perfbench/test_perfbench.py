"""Tests of the benchmark itself: seeded generators, the fixture transport
and the oracles.  Run with ``python3 -m pytest -q perfbench``."""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles as orc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

QM = run.load_qmtree()


def context(tmp_path):
    return wl.Context(qm=QM, root=run.ROOT, workdir=tmp_path,
                      python=sys.executable, env=run.child_env())


def decks(name, seed, tmp_path, count=3):
    work = wl.WORKLOADS[name](random.Random(f"{name}:{seed}"),
                              context(tmp_path))
    return [[(op.kind, op.key) for op in work.deck()] for _ in range(count)]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name, tmp_path):
    first = decks(name, 7, tmp_path)
    assert first == decks(name, 7, tmp_path)
    assert first != decks(name, 8, tmp_path)


def test_orders_quarters_add_up_to_the_full_mix(tmp_path):
    kinds = {}
    for deck in decks("orders", 1, tmp_path, count=4):
        for kind, _ in deck:
            kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {"maximal_order": 9, "eichler_order": 4,
                     "left_ideals_of_norm": 6, "build_ideal_tree": 1}


def test_spread_covers_its_pool_evenly():
    for seed in range(20):
        draw = wl.Spread(random.Random(seed), range(10))
        counts = [0] * 10
        for _ in range(100):
            counts[draw.draw()] += 1
        assert 8 <= min(counts) and max(counts) <= 12


@pytest.mark.parametrize("name", sorted(wl.load_fixtures()))
def test_transport_preserves_level_cocycle_and_checks(name):
    dsc = QM.descent
    obj = wl.load_fixtures()[name]
    want = orc.descent_summary(dsc.run_descent(dsc.scenario_from_json(obj)))
    rng = random.Random(name)
    for _ in range(3):
        moved = orc.transport_scenario(obj, rng)
        if obj["local"]:
            assert moved["local"] != obj["local"]
        got = dsc.run_descent(dsc.scenario_from_json(moved))
        assert orc.descent_summary(got) == want


def test_vertex_arithmetic_matches_qmtree():
    bt = QM.tree
    rng = random.Random(5)
    for _ in range(300):
        ell = rng.choice((2, 3, 5, 101))
        rows = [[rng.randint(-40, 40) for _ in range(2)] for _ in range(2)]
        if rows[0][0] * rows[1][1] == rows[0][1] * rows[1][0]:
            continue
        assert orc.vertex_key(ell, rows) == bt.canonicalize(ell, rows).key()
    for ab in wl.RAMIFIED + wl.SMALL_SPLIT:
        assert orc.algebra_discriminant(*ab) == \
            QM.quaternion.QuaternionAlgebra(*ab).discriminant()


def tv(ell, key):
    return QM.tree.TreeVertex(ell, ((key[0], key[1]), (0, key[2])))


def test_geodesic_oracle_rejects_a_swapped_vertex():
    ell, u = 3, (1, 0, 1)
    v = wl._walk(random.Random(1), ell, u, 4)
    path = [w.key() for w in QM.tree.geodesic(tv(ell, u), tv(ell, v))]
    orc.check_geodesic(ell, u, v, path)
    wrong = list(path)
    wrong[2] = next(orc.step(ell, path[1], t) for t in range(ell + 1)
                    if orc.step(ell, path[1], t) not in path)
    with pytest.raises(orc.WrongAnswer):
        orc.check_geodesic(ell, u, v, wrong)


def test_neighbor_oracle_rejects_a_replaced_neighbor():
    ell, v = 5, (1, 2, 25)
    nb = [w.key() for w in QM.tree.neighbors(tv(ell, v))]
    orc.check_neighbors(ell, v, nb)
    with pytest.raises(orc.WrongAnswer):
        orc.check_neighbors(ell, v, nb[:-1] + [v])


def test_center_and_subtree_oracles_reject_planted_errors():
    ell = 2
    S = wl._vertex_set(random.Random(4), ell, 6)
    c = QM.center.tree_center([tv(ell, s) for s in S])
    center = [w.key() for w in c.vertices]
    orc.check_center(ell, S, c.kind, center)
    moved = orc.step(ell, center[0], 0)
    if moved in center:
        moved = orc.step(ell, center[0], 1)
    with pytest.raises(orc.WrongAnswer):
        orc.check_center(ell, S, c.kind, [moved] + center[1:])
    sub = QM.center.spanned_subtree([tv(ell, s) for s in S])
    nodes = [w.key() for w in sub.vertices]
    edges = [(a.key(), b.key()) for a, b in sub.edges]
    orc.check_subtree(ell, S, nodes, edges)
    with pytest.raises(orc.WrongAnswer):
        orc.check_subtree(ell, S, nodes, edges[1:])
    with pytest.raises(orc.WrongAnswer):
        orc.check_subtree(ell, S, [n for n in nodes if n != S[0]], edges[1:])
    # one extra edge hanging off S: still a tree, but no longer the smallest
    extra = next(w for w in (orc.step(ell, S[0], t) for t in range(ell + 1))
                 if w not in nodes)
    with pytest.raises(orc.WrongAnswer):
        orc.check_subtree(ell, S, nodes + [extra], edges + [(S[0], extra)])
    # a far vertex with a repeated edge in place of its own: |E| = |V| - 1
    far = orc.step(ell, extra, 0 if orc.step(ell, extra, 0) != S[0] else 1)
    with pytest.raises(orc.WrongAnswer):
        orc.check_subtree(ell, S, nodes + [far], edges + edges[:1])


def test_order_oracles_reject_planted_errors():
    od, QA = QM.orders, QM.quaternion.QuaternionAlgebra
    O = od.maximal_order(QA(-1, 3))
    orc.check_order_discriminant(-1, 3, O.basis, 6)
    with pytest.raises(orc.WrongAnswer):
        orc.check_order_discriminant(-1, 3, od.standard_order(QA(-1, 3)).basis, 6)
    ideals = [I.lattice for I in od.left_ideals_of_norm(O, 5)]
    orc.check_ideals_of_norm(O.basis, ideals, 5)
    with pytest.raises(orc.WrongAnswer):
        orc.check_ideals_of_norm(O.basis, ideals[:-1], 5)
    with pytest.raises(orc.WrongAnswer):
        orc.check_ideals_of_norm(O.basis, ideals[:-1] + [O.basis], 5)


def test_workload_checks_reject_planted_errors(tmp_path):
    work = wl.Orders(random.Random(1), context(tmp_path))
    op = work.ideal_tree_op((-1, -1), 5, 0)
    tree, report = op.run()
    op.check((tree, report))
    with pytest.raises(orc.WrongAnswer):
        op.check((tree, dict(report, ok=False)))

    work = wl.Descent(random.Random(1), context(tmp_path))
    op = work.op("swap5")
    report = op.run()
    op.check(report)
    with pytest.raises(orc.WrongAnswer):
        op.check(dict(report, N=report["N"] * 7))

    work = wl.Cli(random.Random(1), context(tmp_path))
    op = work._op("qa info", ["qa", "info", "--a=-1", "--b=3"])
    ref = op.reference()
    op.check(ref, ref)
    planted = json.loads(ref[1])
    planted["discriminant"] += 1
    with pytest.raises(orc.WrongAnswer):
        op.check((ref[0], json.dumps(planted)), ref)


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(100))
    value, pct, beyond = run.tail(xs)
    assert (value, beyond) == (89, 10) and pct == 90
    assert run.median([5, 1, 3, 2]) == 2


def test_op_times_are_scaled_by_the_units_next_to_them():
    u, near = run.UNIT_NS, run.NEAR_NS
    # ops 1 ms apart, each followed by one unit; the host runs at half
    # speed from the 40th op on
    starts = [i * 10 ** 6 for i in range(80)]
    lat = [10 ** 5] * 40 + [2 * 10 ** 5] * 40
    units = [(t + 2 * 10 ** 5, u if i < 40 else 2 * u)
             for i, t in enumerate(starts)]
    got = run.scaled_ops(starts, lat, units)
    assert got[:5] == got[-5:] == [10 ** 5] * 5
    # an op an hour later is scaled only by the units next to it
    starts.append(3600 * 10 ** 9)
    lat.append(10 ** 9)
    units.append((starts[-1] + 10 ** 9, 4 * u))
    assert run.scaled_ops(starts, lat, units)[-1] == 10 ** 9 // 4
    # one slow unit is outvoted by its neighbours; the sides weigh the same
    assert run.scaled(3 * u, [(0, u), (1, 3 * u), (near, 3 * u)]) == u
    assert run.scaled(3 * u, [(0, u)] * 9, [(near, 2 * u)]) == 2 * u
    assert len(run.time_units(2, [])) == 2


def test_tracer_wraps_imported_names_and_restores_them():
    bt, ct = QM.tree, QM.center
    orig = bt.geodesic
    tracer = spans.Tracer(vars(QM))
    tracer.install()
    try:
        assert ct.geodesic is bt.geodesic is not orig
        tracer.op_id = 0
        ct.tree_center([tv(3, (1, 0, 1)), tv(3, (1, 0, 27))])
    finally:
        tracer.uninstall()
    assert bt.geodesic is orig and ct.geodesic is orig
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "center.tree_center" and "tree.geodesic" in names
    dur, own = tracer.self_times()
    assert all(0 <= o <= d for o, d in zip(own, dur))
    geo = tracer.ancestor("tree.geodesic")
    assert all(names[geo[i]] == "tree.geodesic"
               for i, n in enumerate(names) if n == "tree.canonicalize")
