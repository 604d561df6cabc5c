"""qmtree benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload orders --seed 1 --seconds 20 --trace 0

Run from the checkout root.  One client keeps one op in flight.  Each op is
timed from outside the package with ``perf_counter_ns`` and its answer is
checked by an oracle that does not use qmtree (``oracles.py``).  Decks of
ops (``workloads.py``) run until ``--seconds`` have passed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics named in ``BENCHMARK.json``:

- ``setup_s``: fresh interpreter start to ``import qmtree`` done, median of
  ``SETUP_SAMPLES`` starts spread evenly over the run (between decks, and
  not counted in its seconds), so that they see the same host as the ops;
- ``ops_per_s``: correct ops per second of op time, one op in flight;
- ``op_p50_ms``, ``op_tail_ms``: the median op, and the highest op with at
  least ten ops beyond it (its percentile is in the metadata);
- these four times are scaled to a reference host speed (``host_unit``
  below); the metadata holds them as measured (``as_measured``);
- ``peak_rss_mb``: peak RSS of the process doing the work (the qmtree
  children for ``cli``) once the workload's ``mem_decks`` decks are done,
  a fixed amount of work, so that a faster program is not charged for
  filling its caches with more inputs in the same time.

With ``--trace 1`` the line holds the per-layer metrics instead, from a
run in which every other full mix of decks runs with timing spans around
qmtree's layer functions (``spans.py``), and the guard probes run.
Cache sizes are read once the workload's ``mem_decks`` decks are done, like
``peak_rss_mb``.  The
line before the last is the run's metadata.  Timings stay integer
nanoseconds until they are printed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
import types
from bisect import bisect_left, bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import oracles as orc  # noqa: E402
import spans as tr  # noqa: E402
import workloads as wl  # noqa: E402

LAYERS = list(tr.LAYERS)
SETUP_SAMPLES = 31
# decks stop being traced once this many spans are held (40 bytes each)
SPAN_CAP = 1_000_000
IMPORT_PROBE = ("import time; t = time.perf_counter_ns(); import qmtree; "
                "print(time.perf_counter_ns() - t, flush=True)")
NS_PER_MS = 10 ** 6

# The shared host's speed for pure Python drifts by up to 1.8x within
# seconds, as other guests load its cores, and that drift is most of the
# run-to-run spread of raw op times.  So a fixed piece of qmtree-free work,
# ``host_unit``, is timed right after every op and around every set-up
# probe, and each time is scaled by UNIT_NS over the unit's time just before
# and just after it: what it would have been on a host that runs the unit
# in UNIT_NS (its unloaded median on the 2-vCPU reference guest).  No change
# to qmtree can move the unit, so a faster qmtree still reads faster.
UNIT_NS = 270_000
UNIT_BASIS = ((37, -12, 5, 91), (4, 77, -31, 8), (19, 3, 62, -45),
              (-7, 28, 11, 53))
# after an op: one unit, and one more per UNIT_EVERY units' worth of op
# time, up to UNITS_MAX (at most 2% more time)
UNIT_EVERY = 50
UNITS_MAX = 20
# an op is scaled by the units taken within NEAR_NS before and after it
NEAR_NS = 50 * 10 ** 6
# units taken before and after each set-up probe
SETUP_UNITS = 3


def host_unit():
    """Big-integer tree steps and a rational determinant, as qmtree does."""
    key = (1, 0, 1)
    for t in range(40):
        key = orc.step(1009, key, t * 37 % 1010)
    return key, orc.reduced_discriminant(-1, -1, UNIT_BASIS)


def time_units(n, out):
    """Run ``n`` units; append (start, duration) of each to ``out``."""
    for _ in range(n):
        t0 = time.perf_counter_ns()
        host_unit()
        out.append((t0, time.perf_counter_ns() - t0))
    return out


def scaled(ns, *sides):
    """``ns`` at the reference host speed, given the units taken on each
    side of it: the median unit of each side that has any, weighed equally."""
    ref = [median([u for _, u in side]) for side in sides if side]
    return ns * len(ref) * UNIT_NS // sum(ref)


def scaled_ops(starts, lat, units):
    """Each op time scaled by the units started within NEAR_NS before it
    and within NEAR_NS after it.  ``units`` is in time order, and each op
    has units right after it."""
    at = [a for a, _ in units]
    out = []
    for t0, ns in zip(starts, lat):
        lo = bisect_left(at, t0 - NEAR_NS)
        mid = bisect_left(at, t0 + ns)
        hi = bisect_right(at, t0 + ns + NEAR_NS)
        out.append(scaled(ns, units[lo:mid], units[mid:hi]))
    return out


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_qmtree():
    """Import qmtree from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qmtree" / "__init__.py").is_file():
        raise SystemExit(f"error: no qmtree sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmtree
    if Path(qmtree.__file__).resolve().parent != SRC / "qmtree":
        raise SystemExit(f"error: imported qmtree from {qmtree.__file__}")
    return types.SimpleNamespace(**{
        layer: importlib.import_module(f"qmtree.{layer}") for layer in LAYERS})


def measure_setup(env, st):
    """One fresh-interpreter start to ``import qmtree`` done, as seen by the
    parent (ns), the same scaled to the reference host speed, and the
    import alone as timed inside the child (ns)."""
    t_pause = time.perf_counter_ns()
    before = time_units(SETUP_UNITS, [])
    t0 = time.perf_counter_ns()
    with subprocess.Popen([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        t1 = time.perf_counter_ns()
        p.stdout.read()
    after = time_units(SETUP_UNITS, [])
    if p.returncode != 0 or not line.strip().isdigit():
        raise SystemExit("error: `import qmtree` failed in a fresh interpreter")
    st.setup_wall.append(t1 - t0)
    st.setup_scaled.append(scaled(t1 - t0, before, after))
    st.setup_inner.append(int(line))
    st.paused += time.perf_counter_ns() - t_pause


def median(xs):
    s = sorted(xs)
    return s[(len(s) - 1) // 2]


def tail(xs):
    """The highest sample with at least ten samples beyond it, with its
    percentile and that count (the largest sample if there are fewer)."""
    s = sorted(xs)
    n = len(s)
    i = n - 11 if n > 10 else n - 1
    return s[i], 100 * (i + 1) / n, n - i - 1


def peak_rss_kb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def source_id():
    digest = hashlib.sha256()
    for p in sorted((SRC / "qmtree").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    return sha, digest.hexdigest()[:16]


def run_guard(argv, env):
    """Run a guard probe to completion or to its wall limit."""
    t0 = time.perf_counter_ns()
    try:
        p = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                           capture_output=True, timeout=wl.GUARD_LIMIT_S)
        outcome = "ok" if p.returncode == 0 else f"exit {p.returncode}"
    except subprocess.TimeoutExpired:
        outcome = "timeout"
    return outcome, time.perf_counter_ns() - t0


def run_loop(work, seconds, tracer, env):
    """Whole decks until ``seconds`` have passed and at least
    ``work.mem_decks`` decks are done, with the set-up probes due by then
    taken between decks.  With a tracer, every other full mix of
    ``work.mix_decks`` decks runs traced until ``SPAN_CAP`` spans are held,
    so traced and untraced ops have the same mix."""
    st = types.SimpleNamespace(
        starts=[], lat=[], units=[], attempted=0, failed=0, errors=[],
        kinds={}, seen={}, repeats={}, busy={True: 0, False: 0},
        ops={True: 0, False: 0},
        ref_ns=[], spawn_ns=[], peak_rss_kb=None, cache_info=None, decks=0,
        setup_wall=[], setup_scaled=[], setup_inner=[], paused=0)
    clock = time.perf_counter_ns
    budget = seconds * 10 ** 9
    t_start = clock()

    def elapsed():
        return clock() - t_start - st.paused
    while st.decks < work.mem_decks or elapsed() < budget:
        while (len(st.setup_wall) < SETUP_SAMPLES
               and elapsed() * SETUP_SAMPLES >= len(st.setup_wall) * budget):
            measure_setup(env, st)
        traced = (tracer is not None and st.decks // work.mix_decks % 2 == 1
                  and len(tracer.start) < SPAN_CAP)
        ops = work.deck()
        if traced:
            tracer.install()
        try:
            for op in ops:
                run_op(op, st, traced, tracer)
        finally:
            if traced:
                tracer.uninstall()
        st.decks += 1
        if st.decks == work.mem_decks:
            st.peak_rss_kb = peak_rss_kb(isinstance(work, wl.Cli))
            st.cache_info = work.qm.orders.reduced_discriminant.cache_info()
    while len(st.setup_wall) < SETUP_SAMPLES:
        measure_setup(env, st)
    st.wall_ns = clock() - t_start
    return st


def run_op(op, st, traced, tracer):
    """Time one op; then, untimed, its reference and its oracle."""
    clock = time.perf_counter_ns
    st.kinds[op.kind] = st.kinds.get(op.kind, 0) + 1
    seen = st.seen.setdefault(op.kind, set())
    st.repeats[op.kind] = st.repeats.get(op.kind, 0) + (op.key in seen)
    seen.add(op.key)
    if traced:
        tracer.op_id = st.attempted
    st.attempted += 1
    t0, t1 = clock(), None
    try:
        result = op.run()
        t1 = clock()
        sample_host(st, t1 - t0)
        args = [result]
        if op.reference is not None:
            r0 = clock()
            args.append(op.reference())
            r1 = clock()
            st.ref_ns.append((traced, r1 - r0))
            if not traced:
                st.spawn_ns.append((t1 - t0) - (r1 - r0))
        op.check(*args)
    except Exception as exc:  # every failure is counted and reported
        if t1 is None:
            t1 = clock()
            sample_host(st, t1 - t0)
        st.failed += 1
        if len(st.errors) < 5:
            st.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    finally:
        if traced:
            tracer.op_id = tr.NO_PARENT
    st.starts.append(t0)
    st.lat.append(t1 - t0)
    st.busy[traced] += t1 - t0
    st.ops[traced] += 1


def sample_host(st, op_ns):
    """The units that follow an op, before its reference and oracle run."""
    time_units(min(UNITS_MAX, 1 + op_ns // (UNIT_EVERY * UNIT_NS)), st.units)


def time_metrics(lat, setup, ok):
    tail_ns, tail_pct, beyond = tail(lat)
    return {"setup_s": median(setup) / 10 ** 9,
            "ops_per_s": ok * 10 ** 9 / sum(lat),
            "op_p50_ms": median(lat) / NS_PER_MS,
            "op_tail_ms": tail_ns / NS_PER_MS}, tail_pct, beyond


def end_to_end(st, mem_decks):
    ok = st.attempted - st.failed
    metrics, tail_pct, beyond = time_metrics(
        scaled_ops(st.starts, st.lat, st.units), st.setup_scaled, ok)
    metrics["peak_rss_mb"] = st.peak_rss_kb / 1024
    notes = {"as_measured": time_metrics(st.lat, st.setup_wall, ok)[0],
             "host_unit_ms": median([u for _, u in st.units]) / NS_PER_MS,
             "host_unit_ref_ms": UNIT_NS / NS_PER_MS,
             "host_units": len(st.units),
             "op_tail_percentile": round(tail_pct, 2),
             "op_tail_samples_beyond": beyond, "op_samples": len(st.lat),
             "setup_samples": len(st.setup_wall),
             "peak_rss_after_decks": mem_decks}
    return metrics, notes


def per_layer(st, tracer, guards):
    """Metrics from the traced decks; counts and self times are per traced op."""
    spans_named = {}
    dur, own = tracer.self_times()
    names = tracer.names
    for i, nid in enumerate(tracer.name):
        spans_named.setdefault(names[nid], []).append(i)
    ops = max(st.ops[True], 1)

    def calls(name):
        return len(spans_named.get(name, ()))

    def self_ms(name):
        return sum(own[i] for i in spans_named.get(name, ())) / ops / NS_PER_MS

    m = {}
    for name in names:
        m[f"{name}.calls"] = calls(name) / ops
        m[f"{name}.self_ms"] = self_ms(name)

    keys = {tracer.notes[i] for i in spans_named.get("orders.splitting_data", ())}
    m["orders.splitting_data.rebuild_ratio"] = (
        calls("orders.splitting_data") / len(keys) if keys else 0)
    info = st.cache_info
    looked = info.hits + info.misses
    m["orders.reduced_discriminant.hit_ratio"] = info.hits / looked if looked else 0
    m["orders.reduced_discriminant.cache_size"] = info.currsize

    # path steps per canonicalization inside geodesic, pooled and by prime
    geo = spans_named.get("tree.geodesic", ())
    geo_of = tracer.ancestor("tree.geodesic")
    steps, canon = {}, {}
    for i in geo:
        ell, n = tracer.notes[i]
        steps[ell] = steps.get(ell, 0) + n
    for i in spans_named.get("tree.canonicalize", ()):
        if geo_of[i] != tr.NO_PARENT:
            ell = tracer.notes[geo_of[i]][0]
            canon[ell] = canon.get(ell, 0) + 1
    useful = {ell: steps[ell] / canon[ell] for ell in sorted(canon)}
    m["tree.geodesic.useful_ratio"] = (sum(steps.values()) / sum(canon.values())
                                       if canon else 0)
    for ell in (2, 101, 1009):
        ds = [dur[i] for i in geo if tracer.notes[i][0] == ell]
        m[f"tree.geodesic.l{ell}.p50_us"] = median(ds) / 1000 if ds else 0

    center_of = tracer.ancestor("center.tree_center")
    dist_in_center = sum(1 for i in spans_named.get("tree.distance", ())
                         if center_of[i] != tr.NO_PARENT)
    centers = calls("center.tree_center")
    m["center.tree_center.distance_calls_per_call"] = (
        dist_in_center / centers if centers else 0)

    m["cli.import_ms"] = median(st.setup_inner) / NS_PER_MS
    mains = calls("cli.main")
    m["cli.main.self_ms"] = (self_ms("cli.main") * ops / mains) if mains else 0
    m["cli.spawn_overhead_ms"] = (median(st.spawn_ns) / NS_PER_MS
                                  if st.spawn_ns else 0)

    rate = {t: st.ops[t] * 10 ** 9 / st.busy[t] if st.busy[t] else 0
            for t in (True, False)}
    if st.ref_ns:  # cli: the traced calls are the in-process references
        busy = {t: sum(ns for tt, ns in st.ref_ns if tt == t) for t in rate}
        n = {t: sum(1 for tt, _ in st.ref_ns if tt == t) for t in rate}
        rate = {t: n[t] * 10 ** 9 / busy[t] if busy[t] else 0 for t in rate}
    m["trace.overhead_pct"] = (100 * (rate[False] / rate[True] - 1)
                               if rate[True] else 0)
    m["guard.timeouts"] = sum(1 for g in guards if g["outcome"] == "timeout")
    return m, {"traced_ops": st.ops[True], "spans": len(tracer.start),
               "geodesic_useful_ratio_by_ell": useful,
               "traced_ops_per_s": rate[True],
               "untraced_ops_per_s": rate[False]}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    qm = load_qmtree()
    declared = declared_metrics(args.trace)
    load_start = os.getloadavg()
    env = child_env()

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = wl.Context(qm=qm, root=ROOT, workdir=workdir,
                         python=sys.executable, env=env)
        rng = random.Random(f"{args.workload}:{args.seed}")
        work = wl.WORKLOADS[args.workload](rng, ctx)
        tracer = tr.Tracer(vars(qm)) if args.trace else None
        st = run_loop(work, args.seconds, tracer, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": load_start, "git_sha": None, "src_digest": None,
            "decks": st.decks, "wall_s": st.wall_ns / 10 ** 9,
            "attempted": st.attempted, "failed": st.failed,
            "fail_frac": st.failed / st.attempted, "errors": st.errors,
            "op_mix": st.kinds,
            "distinct_inputs": sum(len(keys) for keys in st.seen.values()),
            "repeat_frac": {kind: st.repeats[kind] / n
                            for kind, n in st.kinds.items()},
            "reduced_discriminant_cache_after_decks": work.mem_decks}
    meta["git_sha"], meta["src_digest"] = source_id()
    if args.trace:
        guards = []
        if hasattr(work, "guard"):
            label, gargv = work.guard()
            outcome, ns = run_guard(gargv, env)
            guards.append({"probe": label, "outcome": outcome,
                           "limit_s": wl.GUARD_LIMIT_S, "wall_s": ns / 10 ** 9})
        metrics, extra = per_layer(st, tracer, guards)
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{args.workload}"
        tracer.write(stem)
        meta.update(extra, guards=guards, spans_file=f"{stem}.spans",
                    guard_fail_frac=(st.failed + metrics["guard.timeouts"])
                    / (st.attempted + len(guards)))
    else:
        metrics, notes = end_to_end(st, work.mem_decks)
        meta.update(notes)
    meta["loadavg_end"] = os.getloadavg()
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": st.failed == 0,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
