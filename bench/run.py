"""Benchmark of the ``minorant`` solvers: one seeded workload per run.

    python3 bench/run.py --workload finite-scan --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
run fails (exit 2, no result) when it is not there.  A run

1. generates the workload's problems from ``--seed`` (``workloads.py``);
2. solves whole rounds of them in a child process (``solver.py``) for
   ``--seconds``, one process at a time, with BLAS/OpenMP threads set to 1;
3. with ``--trace 0`` times fresh ``python -m minorant.cli`` processes on
   the workload's smallest document; with ``--trace 1`` re-runs the rounds
   under the span tracer (``spans.py``) and times bare interpreter start
   and the ``minorant.cli`` import;
4. checks every output with the independent checker (``checker.py``) and
   that every round gave the same outputs;
5. prints one JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``.

Scratch files live under ``bench/out/``; the span file of a traced run is
kept there as ``trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 7        # fresh CLI processes per run; setup_s is their median
START_RUNS = 7        # bare and importing interpreters per traced run
SOLVER_TIMEOUT = 150  # seconds; the whole run must end within 180

END_TO_END_UNITS = {"setup_s": "s", "problems_per_s": "1/s", "solve_ms_p50": "ms",
                    "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _wall(argv, timeout=60) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    return time.perf_counter() - t0, proc


def _median_start_ms(code: str) -> float:
    walls = []
    for _ in range(START_RUNS):
        wall, proc = _wall([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"python -c {code!r} failed: {proc.stderr.strip()}")
        walls.append(wall)
    return statistics.median(walls) * 1e3


def _setup(workload: str, seed: int, workdir: str, errors: list) -> tuple:
    """Median wall time of fresh `python -m minorant.cli` processes on the
    workload's smallest document; returns (seconds, attempted, failed)."""
    import workloads

    kind, payload = workloads.setup_problem(workload, seed)
    doc = workloads.document(kind, payload)
    src = os.path.join(workdir, "setup-doc.json")
    with open(src, "w", encoding="utf-8") as fh:
        fh.write(doc)
    walls, reports, failed = [], [], 0
    for i in range(SETUP_RUNS):
        dst = os.path.join(workdir, f"setup-report{i}.json")
        wall, proc = _wall([sys.executable, "-m", "minorant.cli", kind,
                            "--input", src, "--output", dst])
        walls.append(wall)
        if proc.returncode != 0:
            failed += 1
            errors.append(f"setup process exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        with open(dst, encoding="utf-8") as fh:
            reports.append(fh.read())
    if reports:
        import checker

        errors += [f"setup {kind}: {e}" for e in checker.check_report(doc, reports[0])]
        if len(set(reports)) != 1:
            errors.append("setup: the same document gave different reports")
    return statistics.median(walls), SETUP_RUNS, failed


def _check_outputs(workload: str, problems, result: dict) -> list:
    import checker
    import workloads

    errors = []
    for i, ((kind, payload), out) in enumerate(zip(problems, result["outputs"])):
        if "error" in out or out.get("exit", 0) != 0:
            continue  # counted in `failed`
        where = f"problem {i} ({kind})"
        try:
            if workload == "cli-docs":
                errs = checker.check_report(workloads.document(kind, payload), out["report"])
            else:
                errs = checker.check(kind, payload, out)
        except (KeyError, TypeError, ValueError) as e:
            errs = [f"malformed output: {type(e).__name__}: {e}"]
        errors += [f"{where}: {e}" for e in errs]
    for i, digests in enumerate(result["digests"]):
        if len(set(digests)) != 1:
            errors.append(f"problem {i}: outputs differ between rounds")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "minorant", "cli.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    problems = workloads.problems(args.workload, args.seed)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        job = {"mode": "cli" if args.workload == "cli-docs" else "lib",
               "seconds": args.seconds, "trace": bool(args.trace), "workdir": workdir,
               "trace_file": os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")}
        if job["mode"] == "cli":
            job["docs"] = [(kind, workloads.document(kind, p)) for kind, p in problems]
        else:
            job["problems"] = problems
        job_path = os.path.join(workdir, "job.json")
        result_path = os.path.join(workdir, "result.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "solver.py"), job_path,
                               result_path], env=_env(), cwd=ROOT, timeout=SOLVER_TIMEOUT)
        if proc.returncode != 0:
            print(f"error: solving process exited {proc.returncode}", file=sys.stderr)
            return 2
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)

        errors: list = []
        attempted, failed = result["attempted"], result["failed"]
        if args.trace:
            start_ms = _median_start_ms("pass")
            import_ms = _median_start_ms("import minorant.cli") - start_ms
            metrics = {name: {"value": float(v), "unit": _layer_unit(name)}
                       for name, v in result["layers"].items()}
            metrics["python.start_ms"] = {"value": start_ms, "unit": "ms"}
            metrics["cli.import_ms"] = {"value": import_ms, "unit": "ms"}
            if result["absent"]:
                print("absent layers: " + ", ".join(result["absent"]), file=sys.stderr)
        else:
            setup_s, n, bad = _setup(args.workload, args.seed, workdir, errors)
            attempted += n
            failed += bad
            # times[r][i]: problem i in timed round r.  Medians over rounds
            # keep a burst of load from other processes out of the figures.
            times = result["times_ns"]
            per_problem = [statistics.median(col) for col in zip(*times)]
            values = {
                "setup_s": setup_s,
                "problems_per_s": len(per_problem) / (statistics.median(map(sum, times)) / 1e9),
                "solve_ms_p50": statistics.median(per_problem) / 1e6,
                "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        errors += _check_outputs(args.workload, problems, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in errors[:20]:
        print(f"check: {e}", file=sys.stderr)
    if len(errors) > 20:
        print(f"check: ... {len(errors) - 20} more", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms"):
        return "ms"
    if name == "cli.report_bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
