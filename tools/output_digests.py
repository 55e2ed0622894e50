"""One SHA-256 per benchmark problem, so that two revisions can be checked
for byte-identical outputs with one ``diff``.

    python3 tools/output_digests.py --seeds 1 2 3 > change.txt
    python3 tools/output_digests.py --seeds 1 2 3 --tree PARENT > parent.txt
    diff parent.txt change.txt

For each seed and each workload of ``bench/workloads.py`` every problem is
solved once the way ``bench/solver.py`` solves it: in process for
``finite-scan`` and ``polytope-lp``, and through ``minorant.cli.run_command``
with input and output files for ``cli-docs``.  Each line reads
``workload seed index kind status sha256``.  The status is the CLI exit code,
or ``ok``/``error`` for an in-process solve.  The digest is the one the
benchmark keeps per round: SHA-256 of the sorted-key JSON of the output,
that is every certificate field, or the exit code and the report text.

``--tree`` names the checkout whose ``src/`` and ``bench/`` are imported
(default: the one holding this script, working-tree edits included).  A
checkout of another revision can be made with
``git archive REV | tar -x -C PARENT``.  Nothing in the tree is written;
the CLI documents and reports go to a temporary directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="workload seeds")
    ap.add_argument("--tree", default=ROOT, help="checkout to import minorant and bench from")
    args = ap.parse_args()
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import solver
    import workloads

    with tempfile.TemporaryDirectory(prefix="output-digests-") as workdir:
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                problems = workloads.problems(workload, seed)
                if workload == "cli-docs":
                    calls = [solver.cli_call(i, kind, workloads.document(kind, p), workdir)
                             for i, (kind, p) in enumerate(problems)]
                else:
                    calls = [solver.library_call(kind, p) for kind, p in problems]
                runner = solver.Runner(calls)
                runner.round()
                for i, (kind, _) in enumerate(problems):
                    out = runner.outputs[i]
                    status = out.get("exit", "error" if "error" in out else "ok")
                    print(f"{workload} {seed} {i} {kind} {status} {runner.digests[i][0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
