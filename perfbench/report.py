"""Run every workload untraced and then traced, and print all the metrics.

    python3 perfbench/report.py --seed 1

Each run is a fresh ``run.py`` process, as long as ``BENCHMARK.json``'s
``run_seconds``.  The end-to-end metrics come from
the untraced runs, one block per workload; the per-layer metrics come from
the traced runs, one column per workload, followed by the tracing overhead
and the guard probes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_one(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                         check=True)
    meta_line, result_line = out.stdout.splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    for w in WORKLOADS:
        meta, res = run_one(w, args.seed, 0)
        print(f"== {w}: {res['attempted']} ops attempted, {res['failed']} "
              f"failed, correct={res['correct']}, "
              f"{meta['distinct_inputs']} distinct inputs, mix {meta['op_mix']}")
        raw = meta["as_measured"]
        for name, m in res["metrics"].items():
            line = f"  {name:<14} {m['value']:>14.4f} {m['unit']}"
            if name in raw:
                line += f"  ({raw[name]:.4f} as measured)"
            print(line)
        print(f"  (times are scaled to a host that runs the reference unit in "
              f"{meta['host_unit_ref_ms']} ms; this one took "
              f"{meta['host_unit_ms']:.3f} ms)")
        print(f"  (op_tail_ms is p{meta['op_tail_percentile']} with "
              f"{meta['op_tail_samples_beyond']} of {meta['op_samples']} "
              f"samples beyond; peak_rss_mb after {meta['peak_rss_after_decks']}"
              f" decks; setup_s is the median of {meta['setup_samples']})")

    traced = {w: run_one(w, args.seed, 1) for w in WORKLOADS}
    print("\n== per layer (traced runs; per traced op unless the unit says)")
    print(f"  {'metric':<46}{'unit':<11}" + "".join(f"{w:>14}" for w in WORKLOADS))
    first = traced[WORKLOADS[0]][1]["metrics"]
    for name, m in first.items():
        vals = "".join(f"{traced[w][1]['metrics'][name]['value']:>14.4f}"
                       for w in WORKLOADS)
        print(f"  {name:<46}{m['unit']:<11}{vals}")
    for w, (meta, _) in traced.items():
        print(f"  {w}: tracing overhead {meta['untraced_ops_per_s']:.3f} -> "
              f"{meta['traced_ops_per_s']:.3f} ops/s untraced -> traced, "
              f"{meta['spans']} spans over {meta['traced_ops']} traced ops; "
              f"guards {meta['guards']}")


if __name__ == "__main__":
    sys.exit(main())
