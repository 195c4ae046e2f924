#!/usr/bin/env python3
"""Paired benchmark of the working tree against a base revision.

    tools/ab.py BASE [WORKLOAD ...] [--trace]

Exports BASE with `git archive`, and the working tree as `git stash create`
(HEAD when the tree is clean) through `git archive`, into a temporary
directory, and runs each export's own perfbench/run.py from that export's
root with CARGO_TARGET_DIR=.bench_build, so each side builds and runs its
own sources. Untracked files under src/ stop the script, because the head
export would miss them.

Each workload (default: every workload in BENCHMARK.json) runs 10
alternating pairs of BENCHMARK.json's run_seconds: pair i uses --seed i, and
odd pairs run the base first. A run that does not print "correct": true
with 0 failed stops the script with exit status 2.

For each workload and metric the report gives both sides' median and
quartiles, and the pairs the head won (ties count for neither side).
Quartiles are statistics.quantiles(runs, n=4, method="inclusive"): linear
interpolation between order statistics, numpy's default. The quartile
distance is the base's third quartile minus its first. Each end-to-end
metric gets a verdict, taken in this order:

  better      the head wins >= 9 of 10 pairs and its median beats the
              base's by more than the base's quartile distance;
  worse       the head's median is worse than the base's by more than the
              metric's BENCHMARK.json bound, a fraction of the base median;
  unresolved  the base's quartile distance exceeds that bound, and not every
              head run beats every base run;
  same        none of the above.

The gate (exit status 1) fails when some verdict is worse, or when on
cpu_us_per_request, latency_p50_ms or peak_rss_mb the head loses >= 9 of 10
pairs and its median is worse than the base's by more than the base's
quartile distance: the gain rule mirrored. The last stdout line is one JSON
object: both revisions with each side's first perfbench trial line, the
gate, and per workload and metric every run, the medians, the quartiles, the
pairs won and lost, and the verdict.

--trace passes --trace 1 to perfbench. Its result line carries only the
per-layer metrics, which have no bounds, so the report is a diagnosis:
medians, quartiles and pairs won, with no verdict, and the gate passes.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
GATED = ("cpu_us_per_request", "latency_p50_ms", "peak_rss_mb")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", REPO, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def head_revision() -> tuple:
    """(label, commit to export) of the working tree."""
    untracked = [line[3:] for line in git("status", "--porcelain").splitlines()
                 if line.startswith("?? src/")]
    if untracked:
        sys.exit("ab.py: untracked files under src/ would be missing from "
                 "the head export: " + " ".join(untracked))
    head, stash = git("rev-parse", "HEAD"), git("stash", "create")
    return (head + "-dirty", stash) if stash else (head, head)


def export(commit: str, root: str) -> None:
    os.makedirs(root)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", root], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"ab.py: git archive {commit} failed")


def run(root: str, workload: str, seed: int, seconds: float,
        trace: bool) -> tuple:
    """(trial line, metrics) of one perfbench run in the export at `root`."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(command, cwd=root, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    trial = next((json.loads(line[len("trial"):]) for line in lines
                  if line.startswith("trial ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.stderr.write(proc.stderr[-4000:] + proc.stdout[-4000:])
        print(f"ab.py: {workload} --seed {seed} in {root} failed (exit "
              f"{proc.returncode}): {lines[-1] if lines else 'no output'}",
              file=sys.stderr)
        sys.exit(2)
    return trial, {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(runs: list) -> list:
    q = statistics.quantiles(runs, n=4, method="inclusive")
    return [q[0], q[2]]


def compare(base: list, head: list, better: str, bound=None) -> dict:
    """Medians, quartiles, pairs won and lost, and (given a bound) the
    verdict of one metric's paired runs."""
    def beats(a, b):
        return a < b if better == "lower" else a > b

    n = len(base)
    median = [statistics.median(base), statistics.median(head)]
    quarts = [quartiles(base), quartiles(head)]
    spread = quarts[0][1] - quarts[0][0]
    gain = median[0] - median[1] if better == "lower" else median[1] - median[0]
    summary = {"better": better, "base": base, "head": head, "median": median,
               "quartiles": quarts,
               "won": sum(beats(h, b) for b, h in zip(base, head)),
               "lost": sum(beats(b, h) for b, h in zip(base, head))}
    if bound is None:
        return summary
    limit = bound * abs(median[0])
    if 10 * summary["won"] >= 9 * n and gain > spread:
        summary["verdict"] = "better"
    elif -gain > limit:
        summary["verdict"] = "worse"
    elif spread > limit and not all(beats(h, b) for h in head for b in base):
        summary["verdict"] = "unresolved"
    else:
        summary["verdict"] = "same"
    return summary


def fails_gate(name: str, summary: dict) -> bool:
    """The check.sh --bench rule for one metric's summary."""
    if summary.get("verdict") == "worse":
        return True
    (base, head), (q1, q3) = summary["median"], summary["quartiles"][0]
    worse_by = head - base if summary["better"] == "lower" else base - head
    return (name in GATED and 10 * summary["lost"] >= 9 * len(summary["base"])
            and worse_by > q3 - q1)


def main() -> int:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Paired perfbench runs of "
                                     "the working tree against BASE.")
    parser.add_argument("base")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {names}")
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    base_rev = git("rev-parse", "--verify", args.base + "^{commit}")
    head_label, head_commit = head_revision()
    record = {"base": {"rev": base_rev}, "head": {"rev": head_label},
              "pairs": PAIRS, "run_seconds": bench["run_seconds"],
              "trace": args.trace, "workloads": {}}
    failures = []
    with tempfile.TemporaryDirectory(prefix="ab.") as scratch:
        roots = {"base": os.path.join(scratch, "base"),
                 "head": os.path.join(scratch, "head")}
        export(base_rev, roots["base"])
        export(head_commit, roots["head"])
        for workload in args.workloads or names:
            runs = {"base": [], "head": []}
            for seed in range(1, PAIRS + 1):
                for side in ("base", "head") if seed % 2 else ("head", "base"):
                    trial, values = run(roots[side], workload, seed,
                                        bench["run_seconds"], args.trace)
                    record[side].setdefault("trial", trial)
                    runs[side].append(values)
                    print(f"ab.py: {workload} seed {seed} {side} done",
                          file=sys.stderr)
            print(f"{workload}: {PAIRS} pairs of {bench['run_seconds']} s; "
                  "base median [quartiles] -> head median [quartiles], "
                  "pairs won, verdict")
            table = record["workloads"][workload] = {}
            for name in (n for n in metrics if n in runs["base"][0]):
                summary = table[name] = compare(
                    [r[name] for r in runs["base"]],
                    [r[name] for r in runs["head"]],
                    metrics[name]["better"], metrics[name].get("bound"))
                (mb, mh), ((b1, b3), (h1, h3)) = summary["median"], summary["quartiles"]
                print(f"  {name:34s} {mb:.6g} [{b1:.6g}, {b3:.6g}] -> "
                      f"{mh:.6g} [{h1:.6g}, {h3:.6g}]  {summary['won']}/{PAIRS}  "
                      f"{summary.get('verdict', '')}")
                if fails_gate(name, summary):
                    failures.append(f"{workload} {name}")
    record["gate"] = "fail" if failures else "pass"
    if failures:
        print("gate failed: " + ", ".join(failures))
    print(json.dumps(record, separators=(",", ":")))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
