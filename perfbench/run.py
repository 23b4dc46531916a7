#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/perfbench.exe with dune
(build output goes to stderr), runs it, and passes its stdout through; the
last line is the JSON result.  It also checks that the metrics printed are
exactly the ones BENCHMARK.json declares.  With --trace 1 the traced pass
writes its spans to perfbench/_out/spans-NAME.tsv.  Exits non-zero, without
a result, when the build, the run or any output check fails.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SPANS = os.path.join("perfbench", "_out")


def main(argv):
    if not os.path.isfile("BENCHMARK.json"):
        print("run.py: run from the repository root", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    if traced:
        os.makedirs(SPANS, exist_ok=True)
        args += ["--spans", SPANS]
    run = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"run.py: benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    declared = spec["per_layer" if traced else "end_to_end"]
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: metric {m['name']} missing or not in {m['unit']}", file=sys.stderr)
            return 1
    if len(result["metrics"]) != len(declared):
        print("run.py: the benchmark printed metrics BENCHMARK.json does not declare", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
