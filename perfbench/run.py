"""The repository's benchmark: one command, three seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced replay (see ``perfbench/README.md``).
Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  All
scratch files live under ``.perfbench/`` in the repository root.
"""

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep-cold", "long-point", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    from perfbench import harness
    from perfbench.inputs import FULL
    from perfbench.measure import digest

    for name in harness.PROGRAM_ENV:
        os.environ.pop(name, None)
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            (scratch / "spans").mkdir(exist_ok=True)
            spans = scratch / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            outcome = harness.traced(args.workload, args.seed, FULL, workdir, spans)
        else:
            outcome, ref = harness.timed(args.workload, args.seed, args.seconds, FULL, workdir)
            outcome.lines.append(f"digest {args.workload} seed={args.seed} {digest(ref.stats)}")
    except harness.RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in outcome.lines:
        print(line)
    print(json.dumps(outcome.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
