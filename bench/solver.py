"""Solving process of the benchmark.

Run by ``run.py`` as a child so that the checker's own imports (scipy) do
not count towards this process's peak memory.  It imports only numpy and
``minorant``, solves whole rounds of a workload's problem list until the
requested time has passed, and writes times, round-0 outputs and per-round
output digests to a JSON file.  Nothing is checked here.

    python3 bench/solver.py JOB.json RESULT.json
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

from minorant import cli, core, hbl, mok, synth

import spans


def _fn(spec: dict) -> core.MaxAffineFn:
    return core.MaxAffineFn(np.array([p["a"] for p in spec["pieces"]]),
                            np.array([p["b"] for p in spec["pieces"]]))


def _sub(spec: dict) -> core.PolyhedralSublinear:
    return core.PolyhedralSublinear(np.array(spec["pieces"]))


def _vec(v) -> list:
    return np.asarray(v, dtype=np.float64).reshape(-1).tolist()


def _midpoint(rep) -> dict:
    return {
        "status": rep.status,
        "witnesses": [[i, j, c] for (i, j), c in sorted(rep.witnesses.items())],
        "violation": None if rep.violation is None else {
            "pair": list(rep.violation[0]), "value": float(rep.violation[1])},
    }


def _mok_out(cert) -> dict:
    return {"linear": _vec(cert.L.w), "weights": _vec(cert.weights), "value": cert.value,
            "target": cert.target, "gap": cert.gap, "midpoint": _midpoint(cert.midpoint)}


def _synth_out(cert) -> dict:
    return {
        "affine": {"w": _vec(cert.affine.w), "c": cert.affine.c},
        "lifted": {"Lam": _vec(cert.lifted.Lam.w), "lam": cert.lifted.lam},
        "weights": _vec(cert.weights), "delta": cert.delta, "lhs": cert.lhs, "rhs": cert.rhs,
        "gap": cert.gap, "t_star": cert.t_star,
        "domination": {"worst_deficit": cert.domination.worst_deficit},
        "condition": _midpoint(cert.condition), "approximate": cert.approximate,
        "fallback": cert.fallback,
    }


def _hbl_out(result) -> dict:
    cert, approximate = result if isinstance(result, tuple) else (result, False)
    return {"maps": [_vec(L.w) for L in cert.maps], "weights": [_vec(w) for w in cert.weights],
            "value": cert.value, "target": cert.target, "gap": cert.gap,
            "midpoint": _midpoint(cert.midpoint), "approximate": approximate}


def library_call(kind: str, p: dict):
    """(call, to_output) for one in-process problem.  Inputs are built here,
    outside the timed interval; each call looks the solver up on its module
    so that traced wrappers are seen."""
    if kind == "solve-mok":
        S, D = _sub(p["s"]), [np.array(d) for d in p["d"]]
        return (lambda: mok.solve_mok(S, D)), _mok_out
    if kind == "synth-sun":
        F = _fn(p["f"])
        if "points" in p["z"]:
            Z = [np.array(z) for z in p["z"]["points"]]
        else:
            Z = core.Polytope(np.array(p["z"]["vertices"]))
        return (lambda: synth.synth_tight_minorant(F, Z)), _synth_out
    if kind == "synth-affine":
        F, b = _fn(p["f"]), p["b"]
        if "points" in b:
            B = synth.FiniteScoredSet(np.array(b["points"]), np.array(b["scores"]))
        else:
            B = synth.LiftedPolytope(core.Polytope(np.array(b["vertices"])),
                                     np.array(b["score_lin"]), b["score_off"])
        return (lambda: synth.synth_affine_from_scored_set(F, B)), _synth_out
    if kind == "synth-cahbl":
        F, z = _fn(p["f"]), p["z"]
        j = core.AffineTransform(np.array(z["j"]["matrix"]), np.array(z["j"]["offset"]))
        k = core.AffineMap(np.array(z["k"]["lin"]), z["k"]["off"])
        Z = core.Polytope(np.array(z["vertices"]))
        return (lambda: synth.synth_composed_minorant(F, j, k, Z)), _synth_out
    if kind == "solve-hbl" and "sublinears" in p:
        inst = hbl.HblInstance([_sub(s) for s in p["sublinears"]],
                               [np.array(t) for t in p["tables"]])
        return (lambda: hbl.solve_hbl_n(inst)), _hbl_out
    if kind == "solve-hbl":
        S, j, k = _sub(p["s"]), np.array(p["j"]), np.array(p["k"])
        return (lambda: hbl.solve_hbl_jk(S, j, k)), _hbl_out
    if kind == "min-convex":
        F, V = _fn(p["f"]), np.array(p["vertices"])
        return ((lambda: synth.min_convex_over_polytope(F, V)),
                lambda out: {"x": _vec(out[0]), "value": float(out[1])})
    raise ValueError(f"no in-process form for {kind!r}")


def cli_call(index: int, kind: str, doc: str, workdir: str):
    """(call, to_output) for one CLI document run through run_command with
    --input/--output files; the output is the exit code and report text."""
    src = os.path.join(workdir, f"doc{index}.json")
    dst = os.path.join(workdir, f"report{index}.json")
    with open(src, "w", encoding="utf-8") as fh:
        fh.write(doc)
    argv = [kind, "--input", src, "--output", dst]

    def to_output(code):
        if not os.path.exists(dst):
            return {"exit": code, "report": None}
        with open(dst, encoding="utf-8") as fh:
            report = fh.read()
        os.remove(dst)  # so a later round that writes nothing is seen
        return {"exit": code, "report": report}

    return (lambda: cli.run_command(argv)), to_output


def _digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def _peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Runner:
    """Solves whole rounds of the problem list and keeps what run.py needs."""

    def __init__(self, calls):
        self.calls = calls
        self.outputs = None              # round 0, for the checker
        self.digests = [[] for _ in calls]
        self.failed = 0
        self.attempted = 0

    def round(self, times_ns=None, wrap=None) -> int:
        """One pass over the problem list, appending the list of per-problem
        solve times to `times_ns`; returns the round's wall time in ns."""
        outputs, times = [], []
        t_round = time.perf_counter_ns()
        for i, (call, to_output) in enumerate(self.calls):
            fn = wrap(call) if wrap else call
            self.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                raw = fn()
            except Exception as e:  # a failing operation is counted, not fatal
                dt = time.perf_counter_ns() - t0
                out = {"error": f"{type(e).__name__}: {e}"}
            else:
                dt = time.perf_counter_ns() - t0
                out = to_output(raw)
            if "error" in out or out.get("exit", 0) != 0:
                self.failed += 1
            times.append(dt)
            outputs.append(out)
            self.digests[i].append(_digest(out))
        if self.outputs is None:
            self.outputs = outputs
        if times_ns is not None:
            times_ns.append(times)
        return time.perf_counter_ns() - t_round

    def timed(self, seconds: float, times_ns):
        """Whole rounds until `seconds` of wall time have passed; returns
        (rounds, wall ns)."""
        rounds, wall = 0, 0
        while rounds == 0 or wall < seconds * 1e9:
            wall += self.round(times_ns)
            rounds += 1
        return rounds, wall


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    if job["mode"] == "cli":
        calls = [cli_call(i, kind, doc, job["workdir"])
                 for i, (kind, doc) in enumerate(job["docs"])]
    else:
        calls = [library_call(kind, p) for kind, p in job["problems"]]
    runner = Runner(calls)
    runner.round()  # warm-up: lazy imports and first-call costs; its outputs are checked

    result = {}
    if not job["trace"]:
        times_ns = []
        runner.timed(job["seconds"], times_ns)
        result.update(times_ns=times_ns, peak_rss_kb=_peak_rss_kb())
    else:
        rounds, plain_ns = runner.timed(job["seconds"] / 2, None)
        tracer = spans.Tracer()
        tracer.install()
        root = lambda call: tracer.span(spans.ROOT, call)
        try:
            traced_ns = sum(runner.round(None, root) for _ in range(rounds))
        finally:
            tracer.uninstall()
        tracer.write(job["trace_file"])
        layers = spans.layer_metrics(tracer.spans, rounds)
        layers["trace.overhead_s"] = (traced_ns - plain_ns) / 1e9 / rounds
        result.update(layers=layers, absent=tracer.absent)
    result.update(outputs=runner.outputs, digests=runner.digests,
                  attempted=runner.attempted, failed=runner.failed)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
