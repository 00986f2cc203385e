#!/usr/bin/env python3
"""Fenrir end-to-end benchmark: one command per workload run.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
                            [--tiny] [--perturb-reference]

Run from the repository root. The script

  1. builds the Fenrir libraries, fenrirctl and the e2e_bench harness from
     the sources into .bench_build/ (CMake; incremental after the first run);
  2. generates the workload's inputs from the seed, once per seed, into
     .bench_cache/, together with the CLI references the correctness gate
     compares against (`fenrirctl watch --store` stdout for
     groot_4min_resume, `fenrirctl clean --micro 0.001` + `fenrirctl
     analyze` for broot_daily_batch) -- none of this is timed;
  3. runs the harness for S seconds of fixed-size passes and passes its
     output through. The last stdout line is the JSON result:
     {"correct", "attempted", "failed", "metrics"}.

With --trace 1 the Chrome trace and span profile of the traced passes are
kept under .bench_out/. Everything the benchmark writes stays under the
current directory. Exit status is non-zero, with no JSON line, when the
build, the input generation or the harness fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("groot_4min_resume", "broot_paper_5m", "broot_daily_batch")
CACHE_KEEP = 12  # seeds kept per workload; least recently used go first


def note(msg):
    print("# " + msg, flush=True)


def run(cmd, **kwargs):
    subprocess.run(cmd, check=True, **kwargs)


def build(bench_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    t0 = time.monotonic()
    # Build chatter goes to stderr: stdout carries only the result.
    run(configure, stdout=sys.stderr)
    run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr)
    return time.monotonic() - t0


def prepare_inputs(args, bins, cache_root):
    """Inputs and CLI references for (workload, seed), generated once.

    The routing world (the paper case study) is simulated once per
    workload into <cache>/<workload>/world/; each seed then draws its own
    measurement noise over it.
    """
    name = args.workload + ("-tiny" if args.tiny else "")
    wl_root = os.path.join(cache_root, name)
    final = os.path.join(wl_root, "seed-%d" % args.seed)
    if os.path.exists(os.path.join(final, "done")):
        os.utime(final)
        return final, wl_root, None
    os.makedirs(wl_root, exist_ok=True)
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.monotonic()
    gen = [bins["e2e_bench"], "gen", args.workload, "--seed", str(args.seed),
           "--world", os.path.join(wl_root, "world"), "--inputs", tmp]
    gen += ["--tiny"] if args.tiny else []
    out = subprocess.run(gen, check=True, stdout=subprocess.PIPE, text=True)
    for line in out.stdout.splitlines():
        note(line)
    ctl = bins["fenrirctl"]
    if args.workload == "groot_4min_resume":
        # The shipped CLI, resumed exactly as the benchmark resumes: a
        # first session over the first half, then the whole series.
        logs = ["--store", os.path.join(tmp, "ref-store"),
                "--journal", os.path.join(tmp, "ref-watch.jsonl"),
                "--lineage", os.path.join(tmp, "ref-lineage.jsonl"),
                "--events-out", os.path.join(tmp, "ref-events.jsonl")]
        run([ctl, "watch", os.path.join(tmp, "groot_first.csv")] + logs,
            stdout=subprocess.DEVNULL)
        with open(os.path.join(tmp, "watch_reference.txt"), "w") as f:
            run([ctl, "watch", os.path.join(tmp, "groot.csv")] + logs,
                stdout=f)
        shutil.rmtree(os.path.join(tmp, "ref-store"))
        for log in ("ref-watch.jsonl", "ref-lineage.jsonl",
                    "ref-events.jsonl"):
            os.remove(os.path.join(tmp, log))
    elif args.workload == "broot_daily_batch":
        cleaned = os.path.join(tmp, "cleaned.csv")
        run([ctl, "clean", os.path.join(tmp, "archive.csv"), cleaned,
             "--micro", "0.001"], stdout=subprocess.DEVNULL)
        with open(os.path.join(tmp, "report_reference.txt"), "w") as f:
            run([ctl, "analyze", cleaned], stdout=f)
        os.remove(cleaned)
    with open(os.path.join(tmp, "done"), "w") as f:
        f.write("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    # Bounded cache: keep the most recently used seeds.
    seeds = sorted((os.path.getmtime(os.path.join(wl_root, d)), d)
                   for d in os.listdir(wl_root) if d.startswith("seed-")
                   and not d.endswith(".tmp"))
    for _, d in seeds[:-CACHE_KEEP]:
        shutil.rmtree(os.path.join(wl_root, d), ignore_errors=True)
    return final, wl_root, time.monotonic() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (seconds instead of minutes)")
    ap.add_argument("--perturb-reference", action="store_true",
                    help="corrupt the references to show the gate failing")
    args = ap.parse_args()
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build", "e2ebench")
    try:
        build_s = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("e2ebench: build failed: %s" % e, file=sys.stderr)
        return 1
    bins = {b: os.path.join(build_dir, b) for b in ("e2e_bench", "fenrirctl")}
    note("build checked in %.2f s" % build_s)

    try:
        inputs, wl_root, gen_s = prepare_inputs(
            args, bins, os.path.join(root, ".bench_cache"))
    except (subprocess.CalledProcessError, OSError) as e:
        print("e2ebench: input generation failed: %s" % e, file=sys.stderr)
        return 1
    note("inputs %s (%s)" % (os.path.relpath(inputs, root),
                             "generated in %.2f s, untimed" % gen_s
                             if gen_s is not None else "cached"))

    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [bins["e2e_bench"], "run", args.workload, "--seed", str(args.seed),
           "--world", os.path.join(wl_root, "world"), "--inputs", inputs,
           "--work", work,
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    watch_ref = os.path.join(inputs, "watch_reference.txt")
    report_ref = os.path.join(inputs, "report_reference.txt")
    if os.path.exists(watch_ref):
        cmd += ["--watch-reference", watch_ref]
    if os.path.exists(report_ref):
        cmd += ["--report-reference", report_ref]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("e2ebench: harness failed (exit %d)" % proc.returncode,
                  file=sys.stderr)
            return 1
        try:
            json.loads(lines[-1])
        except ValueError:
            print("e2ebench: harness printed no result", file=sys.stderr)
            return 1
        if args.trace:
            keep_trace(work, lines, os.path.join(
                root, ".bench_out", "%s-seed%d" % (args.workload, args.seed)))
            note("trace artifacts in .bench_out/%s-seed%d" %
                 (args.workload, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)
    return 0


def keep_trace(work, lines, out):
    """Moves a traced run's Chrome trace, span profile and tables to out."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    for artifact in ("trace.json", "profile.txt"):
        src = os.path.join(work, artifact)
        if os.path.exists(src):
            shutil.move(src, os.path.join(out, artifact))
    with open(os.path.join(out, "layers.txt"), "w") as f:
        f.write("\n".join(lines[:-1]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
