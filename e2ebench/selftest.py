#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at tiny input sizes.

    python3 e2ebench/selftest.py

Run from the repository root (it builds through run.py like a real run).
For every workload it checks that

  * an untraced run prints every gated and wall-clock end-to-end metric
    with its unit, and a JSON result naming exactly the gated metrics
    that BENCHMARK.json lists, with zero failed operations;
  * a traced run prints the whole per-layer table with units, and a JSON
    result naming exactly BENCHMARK.json's per-layer metrics;
  * a second seed runs unchanged and passes the gate;
  * a deliberately perturbed reference makes the gate report failed
    operations, so the gate is shown able to fail.

Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("groot_4min_resume", "broot_paper_5m", "broot_daily_batch")

GATED = {"setup_s": "s", "cpu_ms_per_obs": "ms", "verdict_cpu_p50_ms": "ms",
         "peak_rss_mb": "MB"}
WALL = {"setup_wall_s": "s", "obs_per_s": "1/s", "verdict_p50_ms": "ms"}
ONLINE_WALL = {"store_mb": "MB"}
LAYER_TABLE = {
    "core.dataset_io.load_s": "s", "core.dataset_io.mb_per_s": "MB/s",
    "core.dataset_io.rss_growth_mb": "MB", "core.cleaning.interpolate_s": "s",
    "core.cleaning.micro_s": "s", "core.cleaning.cells_filled": "count",
    "core.pipeline.phi_matrix_s": "s", "core.pipeline.hac_s": "s",
    "core.pipeline.event_detection_s": "s", "core.pipeline.report_s": "s",
    "core.distance_matrix.append_ms_p50": "ms",
    "core.distance_matrix.append_s": "s", "core.distance_matrix.repin_s": "s",
    "core.distance_matrix.rows_delta": "count",
    "core.distance_matrix.rows_kernel": "count",
    "core.distance_matrix.anchor_probes": "count",
    "core.distance_matrix.delta_share": "ratio",
    "core.parallel.jobs": "count", "core.parallel.imbalance_ratio": "ratio",
    "core.modebook.observe_ms_p50": "ms", "core.modebook.observe_s": "s",
    "core.modebook.scan_length_mean": "count", "core.modebook.modes": "count",
    "core.modebook.restore_s": "s", "io.segment_store.load_s": "s",
    "io.segment_store.spill_ms_p50": "ms", "io.segment_store.spill_s": "s",
    "io.segment_store.flush_ms_p50": "ms",
    "io.segment_store.flush_ms_max": "ms", "io.segment_store.flushes": "count",
    "io.segment_store.seals": "count", "io.segment_store.bytes_per_obs": "B",
    "io.segment_store.close_s": "s", "obs.journal.append_s": "s",
    "obs.status_board.publish_s": "s", "obs.metrics_window.sample_s": "s",
    "obs.lineage.records": "count", "obs.events.emitted": "count",
    "obs.events.suppressed": "count", "obs.logs.bytes_per_obs": "B",
    "obs.journal.write_errors": "count", "obs.lineage.flush_errors": "count",
    "trace.unattributed_share": "share", "trace.overhead": "ratio",
}
TABLE_LINE = re.compile(r"^#\s+(\S+)\s+(\S+)\s+(\S+)$")


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def bench(workload, seed, trace, perturb=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
           str(trace), "--tiny"]
    if perturb:
        cmd.append("--perturb-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                    proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    printed = {}
    for line in lines[:-1]:
        m = TABLE_LINE.match(line)
        if m:
            printed[m.group(1)] = m.group(3)
    return result, printed


def expect_units(workload, what, got, want):
    for name, unit in want.items():
        if got.get(name) != unit:
            fail("%s: %s %s has unit %r, want %r" %
                 (workload, what, name, got.get(name), unit))


def main():
    spec_path = os.path.join(os.getcwd(), "BENCHMARK.json")
    spec = json.load(open(spec_path)) if os.path.exists(spec_path) else None
    if spec:
        expect_units("BENCHMARK.json", "end_to_end", {
            m["name"]: m["unit"] for m in spec["end_to_end"]}, GATED)
    for workload in WORKLOADS:
        online = workload != "broot_daily_batch"
        result, printed = bench(workload, 11, 0)
        if not result["correct"] or result["failed"] != 0:
            fail("%s: gate failed on the plain run: %s" % (workload, result))
        if result["attempted"] < 1:
            fail("%s: nothing attempted" % workload)
        metrics = {k: v["unit"] for k, v in result["metrics"].items()}
        if metrics != GATED:
            fail("%s: JSON metrics %s" % (workload, metrics))
        expect_units(workload, "printed", printed, GATED)
        expect_units(workload, "printed", printed, WALL)
        if online:
            expect_units(workload, "printed", printed, ONLINE_WALL)
            tail = ("verdict_p99_ms" if workload == "groot_4min_resume"
                    else "verdict_p90_ms")
            # Tiny runs have too few verdicts for a tail percentile; the
            # full sizes print it (checked by name only when present).
            if tail in printed and printed[tail] != "ms":
                fail("%s: %s unit %s" % (workload, tail, printed[tail]))

        result, printed = bench(workload, 11, 1)
        if not result["correct"]:
            fail("%s: gate failed on the traced run: %s" % (workload, result))
        expect_units(workload, "per-layer", printed, LAYER_TABLE)
        if spec:
            want = {m["name"]: m["unit"] for m in spec["per_layer"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail("%s: traced JSON metrics differ from BENCHMARK.json: "
                     "missing %s, extra %s" % (
                         workload, sorted(set(want) - set(got)),
                         sorted(set(got) - set(want))))
        if not os.path.exists(os.path.join(
                ".bench_out", "%s-seed11" % workload, "trace.json")):
            fail("%s: no Chrome trace written" % workload)

        result, _ = bench(workload, 12, 0)
        if not result["correct"] or result["failed"] != 0:
            fail("%s: second seed failed: %s" % (workload, result))

        result, _ = bench(workload, 11, 0, perturb=True)
        if result["correct"] or result["failed"] == 0:
            fail("%s: perturbed reference not caught: %s" % (workload, result))
        print("selftest: %s ok (perturbed reference: %d of %d failed)" %
              (workload, result["failed"], result["attempted"]))
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
