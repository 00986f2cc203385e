#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh BENCH_core.json against the
committed baseline and fail on a real kernel slowdown.

Usage:
    bench_gate.py BASELINE.json CURRENT.json [--threshold 1.30]
                  [--summary OUT.md]

The two files are metric-registry JSON dumps from bench/micro_core
(gauges named bench_core_<bench>_real_ns). Raw wall times are not
comparable across machines — the committed baseline comes from whatever
box last regenerated it, CI runs on something else entirely. The gate
therefore calibrates first: it computes current/baseline ratios for
*every* shared _real_ns gauge, takes the median ratio as the machine
speed factor, and divides it out. A uniformly slower runner moves every
ratio the same way and cancels; a single regressing kernel stands out
against the fleet.

Only the recurrence hot path is gated (BM_Gower*, BM_SimilarityMatrix*
— the packed-kernel and predecessor-delta rows, batched and not —
BM_ModeBook*, BM_FederatedSweep — the federated merge fold — and the
segment-store BM_Segment*/BM_Compaction path):
they are the paper-relevant fast path and run long enough to be stable
at --benchmark_min_time=0.01s. The other benches are reported in the
table but never fail the gate.

Extra budgets ride on the current snapshot alone (same-run quotients,
no calibration applies):
  - the BM_ModeBookLineageOverhead _overhead_ratio gauge (recording-on
    over recording-off classification time, interleaved inside one
    benchmark) must stay at or below 1.05;
  - the BM_SegmentResumeFlat _flat_ratio and _save_bytes_ratio gauges
    (per-row resume cost and per-interval flush bytes at 8x history
    over 1x) must stay at or below 1.50 — resume time and save bytes
    flat in history length are the segment store's contract.

Exit codes: 0 pass, 1 regression, 2 usage/unreadable input.
"""

import argparse
import json
import sys

# Gated benches: the Φ kernel hot path, the ModeBook classifier, the
# federated merge fold, and the segment store's tail, resume and
# compaction paths. Everything else is informational.
GATED_PREFIXES = ("bench_core_BM_Gower", "bench_core_BM_SimilarityMatrix",
                  "bench_core_BM_ModeBook", "bench_core_BM_FederatedSweep",
                  "bench_core_BM_Segment", "bench_core_BM_Compaction")
SUFFIX = "_real_ns"

# The decision-lineage overhead budget: recording every verdict into the
# LineageStore may cost at most 5% over the recording-free classifier.
# BM_ModeBookLineageOverhead times both configurations interleaved inside
# one benchmark (alternating order each iteration) and exports their
# quotient as an _overhead_ratio gauge — two standalone benches run
# seconds apart drift ±10% on a busy machine, which would drown a 5%
# budget in noise. The gate reads the ratio from the CURRENT snapshot
# only; no machine-speed calibration applies to a same-run quotient.
LINEAGE_PREFIX = "bench_core_BM_ModeBookLineageOverhead"
LINEAGE_SUFFIX = "_overhead_ratio"
LINEAGE_THRESHOLD = 1.05

# The segment store's flatness contract: resuming from an 8x-longer
# history may cost at most 1.5x more per retained row (_flat_ratio —
# mmap page adoption is flat; a matrix rebuild would be linear in T),
# and one interval's flush may write at most 1.5x the payload bytes
# (_save_bytes_ratio — O(new data); a whole-file save would rewrite the
# history). BM_SegmentResumeFlat measures both interleaved in
# one benchmark, same as the lineage budget, so no calibration applies.
SEGMENT_FLAT_PREFIX = "bench_core_BM_SegmentResumeFlat"
SEGMENT_FLAT_SUFFIXES = ("_flat_ratio", "_save_bytes_ratio")
SEGMENT_FLAT_THRESHOLD = 1.50

# Snapshot provenance written by bench/micro_core: which SIMD tier the
# host supported / dispatched to (0 scalar, 1 avx2, 2 avx512). Snapshots
# from different tiers are not wall-time comparable; per-tier BM_GowerSimd
# legs legitimately disappear on a lesser host.
TIER_GAUGES = ("bench_core_meta_simd_tier_detected",
               "bench_core_meta_simd_tier_active")
TIER_NAMES = {0: "scalar", 1: "avx2", 2: "avx512"}


def tier_name(value):
    if value is None:
        return "unrecorded"
    return TIER_NAMES.get(int(value), f"tier{int(value)}")


def load_real_ns(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    gauges = data.get("gauges", {})
    out = {
        name: value
        for name, value in gauges.items()
        if name.endswith(SUFFIX) and isinstance(value, (int, float)) and value > 0
    }
    if not out:
        print(f"bench_gate: no {SUFFIX} gauges in {path}", file=sys.stderr)
        sys.exit(2)
    tiers = {g: gauges.get(g) for g in TIER_GAUGES}
    return out, tiers, gauges


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def short_name(gauge):
    name = gauge[len("bench_core_"):] if gauge.startswith("bench_core_") else gauge
    return name[: -len(SUFFIX)] if name.endswith(SUFFIX) else name


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=1.30,
                        help="normalized ratio above which a gated bench "
                             "fails (default 1.30 = +30%%)")
    parser.add_argument("--summary", default=None,
                        help="write the comparison as a markdown table here "
                             "(for CI job summaries)")
    args = parser.parse_args()

    base, base_tiers, _ = load_real_ns(args.baseline)
    cur, cur_tiers, cur_gauges = load_real_ns(args.current)
    shared = sorted(set(base) & set(cur))
    if not shared:
        print("bench_gate: baseline and current share no benches",
              file=sys.stderr)
        sys.exit(2)

    # Snapshots from different SIMD tiers (or a FENRIR_SIMD-overridden
    # run) time different kernels: warn, and excuse the per-tier
    # BM_GowerSimd legs a lesser host cannot run. The calibration below
    # still applies — it cancels uniform machine speed, not a tier jump —
    # so the verdicts are advisory under a mismatch.
    tier_mismatch = base_tiers != cur_tiers
    if tier_mismatch:
        print("bench_gate: WARNING — comparing snapshots across SIMD "
              "tiers (baseline detected/active "
              f"{tier_name(base_tiers[TIER_GAUGES[0]])}/"
              f"{tier_name(base_tiers[TIER_GAUGES[1]])}, current "
              f"{tier_name(cur_tiers[TIER_GAUGES[0]])}/"
              f"{tier_name(cur_tiers[TIER_GAUGES[1]])}); kernel wall "
              "times are not comparable", file=sys.stderr)

    # A gated bench present in the baseline but absent from the current
    # run would silently drop out of the comparison — the gate would
    # "pass" while no longer gating anything. Renamed or crashed benches
    # must be loud. Exception: under a tier mismatch, per-tier SIMD legs
    # the current host cannot run are expected to be absent.
    missing = [name for name in sorted(set(base) - set(cur))
               if name.startswith(GATED_PREFIXES)]
    if tier_mismatch:
        skipped = [n for n in missing if "BM_GowerSimd" in n]
        for name in skipped:
            print(f"bench_gate: skipping {short_name(name)} "
                  "(tier unavailable on this host)", file=sys.stderr)
        missing = [n for n in missing if "BM_GowerSimd" not in n]
    if missing:
        print("bench_gate: gated benchmark(s) missing from "
              f"{args.current}:", file=sys.stderr)
        for name in missing:
            print(f"  {short_name(name)}", file=sys.stderr)
        print("bench_gate: benches available in the current run:",
              file=sys.stderr)
        for name in sorted(cur):
            print(f"  {short_name(name)}", file=sys.stderr)
        print("  (renamed bench? update GATED_PREFIXES and regenerate the "
              "baseline; crashed bench? rerun build/bench/micro_core)",
              file=sys.stderr)
        sys.exit(2)

    # The lineage-overhead check reads the interleaved-measurement ratio
    # gauge from the current snapshot alone. A missing gauge means the
    # overhead bench was renamed or crashed — the budget would silently
    # stop being enforced, so that is loud, not a pass.
    lineage_rows = []
    lineage_failures = []
    for name in sorted(cur_gauges):
        if not (name.startswith(LINEAGE_PREFIX)
                and name.endswith(LINEAGE_SUFFIX)):
            continue
        ratio = cur_gauges[name]
        if not isinstance(ratio, (int, float)) or ratio <= 0:
            print(f"bench_gate: {name} in {args.current} is not a "
                  f"positive number ({ratio!r})", file=sys.stderr)
            sys.exit(2)
        verdict = "ok"
        if ratio > LINEAGE_THRESHOLD:
            verdict = "REGRESSION"
            lineage_failures.append((name, ratio))
        bench = name[len("bench_core_"):-len(LINEAGE_SUFFIX)]
        lineage_rows.append((bench, ratio, verdict))
    if not lineage_rows:
        print(f"bench_gate: no {LINEAGE_PREFIX}*{LINEAGE_SUFFIX} gauge in "
              f"{args.current}; the lineage-overhead budget cannot be "
              "judged (renamed bench? update LINEAGE_PREFIX; crashed "
              "bench? rerun build/bench/micro_core)", file=sys.stderr)
        sys.exit(2)

    # The segment-store flatness budgets, also same-run quotients. A
    # missing gauge means BM_SegmentResumeFlat was renamed or crashed —
    # the flat-resume contract would silently stop being enforced.
    segment_rows = []
    segment_failures = []
    for suffix in SEGMENT_FLAT_SUFFIXES:
        found = False
        for name in sorted(cur_gauges):
            if not (name.startswith(SEGMENT_FLAT_PREFIX)
                    and name.endswith(suffix)):
                continue
            found = True
            ratio = cur_gauges[name]
            if not isinstance(ratio, (int, float)) or ratio <= 0:
                print(f"bench_gate: {name} in {args.current} is not a "
                      f"positive number ({ratio!r})", file=sys.stderr)
                sys.exit(2)
            verdict = "ok"
            if ratio > SEGMENT_FLAT_THRESHOLD:
                verdict = "REGRESSION"
                segment_failures.append((name, ratio))
            segment_rows.append((name[len("bench_core_"):], ratio, verdict))
        if not found:
            print(f"bench_gate: no {SEGMENT_FLAT_PREFIX}*{suffix} gauge in "
                  f"{args.current}; the segment-store flat-resume budget "
                  "cannot be judged (renamed bench? update "
                  "SEGMENT_FLAT_PREFIX; crashed bench? rerun "
                  "build/bench/micro_core)", file=sys.stderr)
            sys.exit(2)

    ratios = {name: cur[name] / base[name] for name in shared}
    speed = median(ratios.values())  # machine-speed calibration factor

    rows = []
    failures = []
    for name in shared:
        normalized = ratios[name] / speed
        gated = name.startswith(GATED_PREFIXES)
        verdict = "ok"
        if gated and normalized > args.threshold:
            verdict = "REGRESSION"
            failures.append((name, normalized))
        elif not gated:
            verdict = "info"
        rows.append((short_name(name), base[name], cur[name], ratios[name],
                     normalized, verdict))

    header = (f"bench gate: {len(shared)} shared benches, "
              f"median speed factor {speed:.3f}, "
              f"threshold {args.threshold:.2f} "
              f"({len([r for r in rows if r[5] != 'info'])} gated)")
    print(header)
    for name, b, c, raw, norm, verdict in rows:
        print(f"  {name:<44} {b:>14.0f} -> {c:>14.0f} ns"
              f"  raw x{raw:.3f}  norm x{norm:.3f}  {verdict}")
    print(f"lineage overhead (interleaved, current run, budget "
          f"x{LINEAGE_THRESHOLD:.2f}):")
    for bench, ratio, verdict in lineage_rows:
        print(f"  {bench:<44} recording-on / recording-off"
              f"  x{ratio:.3f}  {verdict}")
    print(f"segment-store flatness (interleaved, current run, budget "
          f"x{SEGMENT_FLAT_THRESHOLD:.2f}):")
    for bench, ratio, verdict in segment_rows:
        print(f"  {bench:<44} 8x history / 1x history"
              f"  x{ratio:.3f}  {verdict}")

    if args.summary:
        try:
            with open(args.summary, "w") as f:
                f.write("### Bench gate\n\n")
                f.write(f"{header}\n\n")
                f.write("| bench | baseline ns | current ns | raw ratio "
                        "| normalized | verdict |\n")
                f.write("|---|---:|---:|---:|---:|---|\n")
                for name, b, c, raw, norm, verdict in rows:
                    mark = ("**REGRESSION**" if verdict == "REGRESSION"
                            else verdict)
                    f.write(f"| {name} | {b:.0f} | {c:.0f} | {raw:.3f} "
                            f"| {norm:.3f} | {mark} |\n")
                f.write(f"\nLineage overhead (interleaved, current run, "
                        f"budget x{LINEAGE_THRESHOLD:.2f}):\n\n")
                f.write("| bench | on/off ratio | verdict |\n")
                f.write("|---|---:|---|\n")
                for bench, ratio, verdict in lineage_rows:
                    mark = ("**REGRESSION**" if verdict == "REGRESSION"
                            else verdict)
                    f.write(f"| {bench} | {ratio:.3f} | {mark} |\n")
                f.write(f"\nSegment-store flatness (interleaved, current "
                        f"run, budget x{SEGMENT_FLAT_THRESHOLD:.2f}):\n\n")
                f.write("| gauge | 8x/1x ratio | verdict |\n")
                f.write("|---|---:|---|\n")
                for bench, ratio, verdict in segment_rows:
                    mark = ("**REGRESSION**" if verdict == "REGRESSION"
                            else verdict)
                    f.write(f"| {bench} | {ratio:.3f} | {mark} |\n")
        except OSError as e:
            print(f"bench_gate: cannot write summary {args.summary}: {e}",
                  file=sys.stderr)
            sys.exit(2)

    if lineage_failures:
        print("bench_gate: FAIL — decision lineage recording costs more "
              f"than its {(LINEAGE_THRESHOLD - 1) * 100:.0f}% budget over "
              "the recording-free classifier:", file=sys.stderr)
        for name, ratio in lineage_failures:
            print(f"  {name}: x{ratio:.3f}", file=sys.stderr)
        print("  (the ring insert in LineageStore::record is the "
              "budgeted cost; rerun build/bench/micro_core to confirm)",
              file=sys.stderr)
        sys.exit(1)
    if segment_failures:
        print("bench_gate: FAIL — segment-store cost grows with history "
              f"(>{SEGMENT_FLAT_THRESHOLD:.2f}x at 8x history; resume "
              "and per-interval save must be flat in history length):",
              file=sys.stderr)
        for name, ratio in segment_failures:
            print(f"  {name}: x{ratio:.3f}", file=sys.stderr)
        print("  (page adoption in SegmentStore::load and the O(new "
              "rows) tail flush are the budgeted paths; rerun "
              "build/bench/micro_core to confirm)", file=sys.stderr)
        sys.exit(1)
    if failures:
        print("bench_gate: FAIL — kernel wall-time regression "
              f"(>{(args.threshold - 1) * 100:.0f}% after machine-speed "
              "normalization):", file=sys.stderr)
        for name, norm in failures:
            print(f"  {short_name(name)}: x{norm:.3f}", file=sys.stderr)
        print("  (rerun locally with: cmake --build build && "
              "build/bench/micro_core --benchmark_min_time=0.01s; "
              "label the PR skip-bench-gate to override)", file=sys.stderr)
        sys.exit(1)
    print("bench_gate: PASS")
    sys.exit(0)


if __name__ == "__main__":
    main()
