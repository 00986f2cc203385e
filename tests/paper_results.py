#!/usr/bin/env python3
"""The paper's results as a regression contract.

Runs the Table 4, Figure 2, 3, 5 and 6 binaries at their default seeds
and checks the values EXPERIMENTS.md documents, on the lines the
binaries print. Deterministic runs are checked exactly (Figure 2's
split date and cross-mode Φ among them); the Google Φ means and the
B-Root mode count, which depend on simulated noise, are checked within
a band. Figures 3 and 6 run on 4-bit packed rows and Figure 5 (88
front-end clusters) on 8-bit rows, so the checks pin both widths.

    python3 tests/paper_results.py TABLE4 FIG2 FIG3 FIG5 FIG6

Each argument is the path of that binary. Exits 1, listing every
failed check, when any value drifts.
"""
import re
import subprocess
import sys
import tempfile

FAILURES = []


def run_all(binaries):
    """Runs the binaries side by side; returns each one's stdout."""
    # They print to stdout only; a scratch cwd keeps any stray artifact
    # out of the build tree.
    with tempfile.TemporaryDirectory() as cwd:
        procs = [subprocess.Popen([b], cwd=cwd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for b in binaries]
        outs = []
        for binary, proc in zip(binaries, procs):
            stdout, stderr = proc.communicate()
            if proc.returncode != 0:
                FAILURES.append("%s exited %d: %s" %
                                (binary, proc.returncode, stderr[-500:]))
            outs.append(stdout)
    return outs


def find(name, text, pattern):
    """Groups of the first line matching @p pattern, or None (recorded)."""
    m = re.search(pattern, text, re.MULTILINE)
    if m is None:
        FAILURES.append("%s: no line matches %r" % (name, pattern))
    return m.groups() if m else None


def exact(name, text, pattern, want):
    got = find(name, text, pattern)
    if got is not None and got != want:
        FAILURES.append("%s: %r gave %s, want %s" % (name, pattern, got, want))


def banded(name, text, pattern, low, high):
    got = find(name, text, pattern)
    if got is not None and not low <= float(got[0]) <= high:
        FAILURES.append("%s: %r gave %s, want %g..%g" %
                        (name, pattern, got[0], low, high))


def main(argv):
    if len(argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    table4, fig2, fig3, fig5, fig6 = run_all(argv[1:])

    exact("table4", table4, r"^log: (\d+) raw entries -> (\d+) grouped events",
          ("107", "56"))
    exact("table4", table4, r"^external \(TP/FN\)\s+(\d+)\s+(\d+)$",
          ("19", "0"))
    exact("table4", table4, r"^internal only \(FP\?/TN\)\s+(\d+)\s+(\d+)$",
          ("8", "29"))
    exact("table4", table4, r"^unmatched detections .*: (\d+)$", ("10",))
    exact("table4", table4,
          r"^accuracy ([\d.]+), recall ([\d.]+), precision ([\d.]+)$",
          ("0.86", "1.00", "0.70"))

    exact("fig2", fig2, r"^modes: (\d+)", ("2",))
    exact("fig2", fig2, r"^split: (\d{4}-\d{2}-\d{2})", ("2025-01-16",))
    exact("fig2", fig2, r"^phi\(Mi, Mii\) = \[([\d.]+), ([\d.]+)\]",
          ("0.21", "0.22"))

    exact("fig6", fig6, r"^modes: (\d+)", ("3",))
    exact("fig6", fig6, r"^phi\(Mi, Mii\)\s+= \[([\d.]+), ([\d.]+)\]",
          ("0.83", "0.84"))
    exact("fig6", fig6, r"^phi\(Mi, Miii\) = \[([\d.]+), ([\d.]+)\]",
          ("0.90", "0.91"))

    banded("fig3", fig3, r"^modes discovered: (\d+)", 9, 11)
    banded("fig5", fig5, r"^within one week \(2024\)\s+\d+\s+([\d.]+)",
           0.83, 0.87)
    banded("fig5", fig5, r"^across weeks \(2024\)\s+\d+\s+([\d.]+)",
           0.23, 0.27)

    for failure in FAILURES:
        print("FAIL " + failure)
    if not FAILURES:
        print("paper results: all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
