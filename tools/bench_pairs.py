"""Alternating parent/change pairs of the benchmark, summarized as one JSON
perf record.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH.json

The settings are fixed so that every record answers the same question:
every workload of ``BENCHMARK.json``, seeds 1 and 2, 10 pairs per workload
and seed, and runs of ``run_seconds`` from ``BENCHMARK.json``.  Run from
anywhere inside the repository.  Each revision is exported with
``git archive`` into a temporary directory and ``python3 bench/run.py`` runs
from that copy, so the two sides run their own committed files and nothing
in the working tree is written but the output file.  Pair i runs the parent
first when i is even and the change first when it is odd; runs are strictly
one at a time.

For every workload and seed the record holds, per end-to-end metric of
``BENCHMARK.json``: each side's runs, median and quartiles, the parent's
interquartile range, how much worse the change's median is (a negative
fraction is better) and how many pairs the change won, ties counting for
neither.  Next to ``peak_rss_mb`` it keeps each run's count of attempted
problems.  It also holds ``TRACE_RUNS`` alternating 10 s ``--trace 1`` runs
per workload and side on the first seed, every run and each side's median
of every metric, so that a per-layer saving can be placed; and both SHAs.
The file is rewritten after every pair, so an interrupted session keeps
what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                      text=True, check=True,
                      cwd=os.path.dirname(os.path.abspath(__file__))).stdout.strip()
SEEDS = (1, 2)
PAIRS = 10
TRACE_RUNS = 3        # traced runs per workload and side, alternating
TRACE_SECONDS = 10.0  # length of each traced run


def _export(rev: str, dest: str) -> str:
    """Extract the committed files of `rev` into `dest`; return its SHA."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def _run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _side(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3}


def _trace_medians(runs: list) -> dict:
    """Each metric's median over traced runs, for the metrics all of them
    report."""
    names = set.intersection(*(set(r["metrics"]) for r in runs))
    return {name: statistics.median(r["metrics"][name]["value"] for r in runs)
            for name in sorted(names)}


def _summary(pairs: list, metrics: list) -> dict:
    """Per-metric comparison of [(parent_result, change_result), ...]."""
    out = {"correct": all(p["correct"] and c["correct"] for p, c in pairs),
           "attempted": {"parent": sum(p["attempted"] for p, _ in pairs),
                         "change": sum(c["attempted"] for _, c in pairs)},
           "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                      "change": sum(c["failed"] for _, c in pairs)},
           "metrics": {}}
    for m in metrics:
        sign = 1.0 if m["better"] == "lower" else -1.0
        parent = [p["metrics"][m["name"]]["value"] for p, _ in pairs]
        change = [c["metrics"][m["name"]]["value"] for _, c in pairs]
        ps, cs = _side(parent), _side(change)
        out["metrics"][m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": ps, "change": cs, "parent_iqr": ps["q3"] - ps["q1"],
            "worse_by": sign * (cs["median"] - ps["median"]) / ps["median"],
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    if "peak_rss_mb" in out["metrics"]:
        # The bench keeps one output digest per problem per round, so a run
        # that gets through more problems peaks higher: each run's count of
        # problems sits next to its peak, to split the two.
        out["metrics"]["peak_rss_mb"]["attempted"] = {
            "parent": [p["attempted"] for p, _ in pairs],
            "change": [c["attempted"] for _, c in pairs]}
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--change", default="HEAD", help="revision of the change side")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    out_path = os.path.abspath(args.out)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        record = {
            "parent": {"rev": args.parent, "sha": _export(args.parent, trees["parent"])},
            "change": {"rev": args.change, "sha": _export(args.change, trees["change"])},
            "settings": {"pairs": PAIRS, "seconds": seconds, "trace_runs": TRACE_RUNS,
                         "trace_seconds": TRACE_SECONDS, "seeds": list(SEEDS)},
            "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version()},
            "workloads": {},
        }

        def save():
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")

        for workload in (w["name"] for w in bench["workloads"]):
            entry = record["workloads"][workload] = {"seeds": {}}
            for seed in SEEDS:
                pairs = []
                for i in range(PAIRS):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    res = {side: _run(trees[side], workload, seed, seconds, 0)
                           for side in order}
                    pairs.append((res["parent"], res["change"]))
                    print(f"{workload} seed {seed} pair {i + 1}/{PAIRS}: "
                          f"{res['parent']['metrics']['problems_per_s']['value']:.2f} -> "
                          f"{res['change']['metrics']['problems_per_s']['value']:.2f} "
                          "problems/s", file=sys.stderr)
                    if len(pairs) >= 2:
                        entry["seeds"][str(seed)] = _summary(pairs, bench["end_to_end"])
                        save()
            traced = {"parent": [], "change": []}
            for i in range(TRACE_RUNS):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    traced[side].append(_run(trees[side], workload, SEEDS[0], TRACE_SECONDS, 1))
            entry["trace"] = {"seed": SEEDS[0], "runs": traced,
                              "medians": {side: _trace_medians(runs)
                                          for side, runs in traced.items()}}
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
