"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it runs run.py at the small size, once
untraced and once traced, and checks that:

- both runs are correct, with no failed instance;
- traced and untraced samples produced byte-identical payloads (one sha256
  across all samples of both runs), so tracing never changes the output;
- the untraced run reports exactly the end-to-end metrics and the traced
  run exactly the per-layer metrics, each with its unit, the latter
  including unattributed_s (timed wall minus the summed span self times).

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "small"]
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    summary, result = out.stdout.splitlines()[-2:]
    return json.loads(summary), json.loads(result)


def check(workload, bench):
    problems = []
    runs = {trace: run(workload, trace) for trace in (0, 1)}
    digests = set()
    for trace, (summary, result) in runs.items():
        if not result["correct"] or result["failed"]:
            problems.append("trace %d: incorrect, failures %r" % (trace, summary["failures"]))
        if summary["seed"] != 7:
            problems.append("trace %d: seed not recorded" % trace)
        digests.update(summary["payload_sha256"])
        wanted = bench["per_layer" if trace else "end_to_end"]
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        if got != {m["name"]: m["unit"] for m in wanted}:
            problems.append("trace %d: metric names or units differ from BENCHMARK.json" % trace)
        for name, entry in result["metrics"].items():
            if not isinstance(entry["value"], (int, float)):
                problems.append("trace %d: %s is not a number" % (trace, name))
    if len(digests) != 1:
        problems.append("payloads differ between traced and untraced samples: %r" % sorted(digests))
    if "unattributed_s" not in runs[1][1]["metrics"]:
        problems.append("traced run lacks unattributed_s")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        problems = check(workload, bench)
        print("%s %s" % ("FAIL" if problems else "ok  ", workload))
        for problem in problems:
            print("    " + problem)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
