#!/usr/bin/env python3
"""Perf gate for the per-backend kernel rows of bench_micro.

Compares a fresh BENCH_micro.json against the checked-in baseline and
enforces three properties:

  1. No kernel row (name starting with BM_Kernel) regresses more than
     --tolerance (default 30%) in real_time against the same-named row of
     the baseline. Hard failure on an AVX2-capable runner; downgraded to a
     warning when the runner lacks AVX2 (the committed baseline is recorded
     on an AVX2 machine, so absolute times are not comparable there).
  2. Within the fresh run, the avx2 backend is at least --min-speedup
     (default 1.5x) faster than naive on the MatMul and PrefixSum kernel
     families. Skipped when the runner lacks AVX2.
  3. Within the fresh run, the end-to-end publish at 4 exec threads takes
     at most 1.25 times the 1-thread time, comparing medians of
     --benchmark_repetitions=5 (run with
     --benchmark_enable_random_interleaving=true, so that host noise hits
     both sides alike). Eight such runs on a 4-vCPU VM gave ratios of
     0.97-1.10; three with the MatMul pool threshold set back to 32*1024
     (every GRU MatMul handed to the pool) gave 1.36-6.86. Hard when the
     runner has at least 4 CPUs; skipped on smaller runners, where 4
     threads oversubscribe the cores.

Rows present in only one file are reported but never fail the gate, so
adding or retiring benchmarks does not require lockstep baseline updates.

Usage:
  tools/perf_gate.py --fresh build/bench/BENCH_micro.json \
                     --baseline BENCH_micro.json
"""

import argparse
import json
import sys

KERNEL_PREFIX = "BM_Kernel"
SPEEDUP_FAMILIES = ("BM_KernelMatMul", "BM_KernelPrefixSum")
PUBLISH_1T = "BM_StptPublish/1/"
PUBLISH_4T = "BM_StptPublish/4/"
MAX_PUBLISH_RATIO = 1.25
PUBLISH_MIN_CPUS = 4


def load_rows(path):
    """Maps each run name to (real_time, unit): the median over repetitions
    when the run has one, else its single iteration row."""
    with open(path) as f:
        doc = json.load(f)
    rows, medians = {}, {}
    for b in doc.get("benchmarks", []):
        row = (float(b["real_time"]), b.get("time_unit", "ns"))
        if b.get("run_type", "iteration") == "iteration":
            rows[b["name"]] = row
        elif b.get("aggregate_name") == "median":
            medians[b.get("run_name", b["name"])] = row
    rows.update(medians)
    return doc.get("context", {}), rows, set(medians)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True, help="just-produced BENCH_micro.json")
    ap.add_argument("--baseline", required=True, help="checked-in BENCH_micro.json")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="max allowed fractional regression per kernel row")
    ap.add_argument("--min-speedup", type=float, default=1.5,
                    help="required naive/avx2 ratio for MatMul and PrefixSum")
    args = ap.parse_args()

    fresh_ctx, fresh, fresh_medians = load_rows(args.fresh)
    _, baseline, _ = load_rows(args.baseline)
    has_avx2 = fresh_ctx.get("stpt_avx2") == "1"
    hard = has_avx2  # warn-only on runners without AVX2

    failures = []
    warnings = []

    # 1. Regression check, row by row.
    kernel_rows = sorted(n for n in fresh if n.startswith(KERNEL_PREFIX))
    if not kernel_rows:
        failures.append("fresh run contains no BM_Kernel* rows "
                        "(wrong --benchmark_filter?)")
    for name in kernel_rows:
        if name not in baseline:
            print(f"note: {name}: no baseline row (new benchmark), skipping")
            continue
        (t_fresh, unit), (t_base, _) = fresh[name], baseline[name]
        ratio = t_fresh / t_base
        line = (f"{name}: baseline={t_base:.0f}{unit} "
                f"fresh={t_fresh:.0f}{unit} ratio={ratio:.2f}")
        if ratio > 1.0 + args.tolerance:
            (failures if hard else warnings).append(
                f"{line} — regressed more than {args.tolerance:.0%}")
        else:
            print(line)
    for name in sorted(baseline):
        if name.startswith(KERNEL_PREFIX) and name not in fresh:
            print(f"note: {name}: row retired (present only in baseline)")

    # 2. AVX2-vs-naive speedup inside the fresh run.
    if has_avx2:
        for family in SPEEDUP_FAMILIES:
            pairs = 0
            for name, (t_naive, _) in fresh.items():
                if not name.startswith(family + "/backend:naive"):
                    continue
                other = name.replace("/backend:naive", "/backend:avx2")
                if other not in fresh:
                    continue
                pairs += 1
                speedup = t_naive / fresh[other][0]
                line = f"{family}: naive/avx2 speedup {speedup:.2f}x ({name})"
                if speedup < args.min_speedup:
                    failures.append(
                        f"{line} — below required {args.min_speedup:.2f}x")
                else:
                    print(line)
            if pairs == 0:
                failures.append(f"{family}: no naive/avx2 row pair found")
    else:
        print("runner lacks AVX2: speedup check skipped, "
              "regressions reported as warnings")

    # 3. 4-thread vs 1-thread publish inside the fresh run. Rows are found
    # by prefix, so the name suffix (min_time, iterations) may change.
    publish = [next((n for n in sorted(fresh_medians) if n.startswith(p)), None)
               for p in (PUBLISH_1T, PUBLISH_4T)]
    cpus = int(fresh_ctx.get("num_cpus", 0))
    if cpus < PUBLISH_MIN_CPUS:
        print(f"runner has {cpus} CPUs: 4-thread publish ratio check skipped")
    elif None in publish:
        failures.append(f"{PUBLISH_1T}* / {PUBLISH_4T}*: no median rows "
                        "(run with --benchmark_repetitions=5)")
    else:
        ratio = fresh[publish[1]][0] / fresh[publish[0]][0]
        line = f"BM_StptPublish: 4-thread/1-thread median ratio {ratio:.2f}"
        if ratio > MAX_PUBLISH_RATIO:
            failures.append(f"{line} — above {MAX_PUBLISH_RATIO:.2f}")
        else:
            print(line)

    for w in warnings:
        print(f"::warning title=perf gate::{w}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
