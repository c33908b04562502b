"""demtensor benchmark: one workload, measured for a fixed time budget.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/.  Every sample is a fresh single-threaded interpreter (worker.py),
because demtensor's caches are process-global and a command line user pays
their cold cost on every call.  Samples run one after another while the
next one is expected to fit in --seconds (at least one always runs), and
set-up is timed in every sample plus a few set-up-only starts.

Times are reported in reference seconds: measured seconds scaled by the
machine's speed, sampled while each sample runs (speed.py), because this
CPU is shared and its speed drifts by up to 2x between runs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced samples and reports the per-layer metrics
of the traced ones, with the tracing overhead measured against the
untraced ones.  The second-to-last line of stdout is a summary (seed,
sample counts, payload digest, error rate); the last line is the result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from speed import to_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_STARTS = 11  # set-ups timed per run, counting the samples' own
HARD_LIMIT_S = 170.0
MIN_PASSES = 5  # fewer passes in a short sample: count its set-up passes too
NEAR_PASSES = 4  # an instance is scaled by the passes this close to it, too


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a failed instance)."""


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class Runner:
    def __init__(self, workload, seed, size):
        self.args = [workload, str(seed), size]
        self.started = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")

    def elapsed(self):
        return perf_counter() - self.started

    def sample(self, trace, setup_only=False):
        """Start one worker; return (set-up seconds, its result line)."""
        argv = [sys.executable, os.path.join(HERE, "worker.py")] + self.args + [str(trace)]
        if setup_only:
            argv.append("--setup-only")
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            out, _ = proc.communicate(timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            raise BenchmarkError("a sample ran past the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if ready != "ready\n" or proc.returncode != 0:
            raise BenchmarkError("worker %r exited with code %s" % (argv[2:], proc.returncode))
        return setup_s, json.loads(out.splitlines()[-1])


def percentile(values, q):
    """The q-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner, seconds, trace):
    setups, plain, traced = [], [], []
    for _ in range(SETUP_STARTS - 1):
        setup_s, result = runner.sample(0, setup_only=True)
        setups.append((setup_s, to_reference(result["setup_passes_s"])))
    budget_start = runner.elapsed()
    kinds = (0, 1) if trace else (0,)
    while True:
        round_start = runner.elapsed()
        for kind in kinds:
            setup_s, result = runner.sample(kind)
            if kind == 0:
                setups.append((setup_s, to_reference(result["setup_passes_s"])))
                plain.append(result)
            else:
                traced.append(result)
        took = runner.elapsed() - round_start
        if runner.elapsed() - budget_start + took > seconds:
            break
    return setups, plain, traced


def sample_factor(sample):
    """Reference seconds per measured second over a sample's timed loop."""
    passes = sample["passes_s"]
    if len(passes) < MIN_PASSES:
        passes = passes + sample["setup_passes_s"]
    return to_reference(passes)


def instance_latencies_ms(sample):
    """Each latency in reference milliseconds, scaled by the passes that ran
    during the instance and the NEAR_PASSES on either side of it."""
    passes = sample["passes_s"]
    starts = sample["passes_before"]
    ends = starts[1:] + [len(passes)]
    out = []
    for took, first, last in zip(sample["latencies_s"], starts, ends):
        near = passes[max(0, first - NEAR_PASSES):max(last, first + 1) + NEAR_PASSES]
        factor = to_reference(near) if near else sample_factor(sample)
        out.append(took * 1000.0 * factor)
    return out


def end_to_end(setups, plain):
    """Times in reference seconds (speed.py); memory as measured."""
    latencies_ms = [t for s in plain for t in instance_latencies_ms(s)]
    return {
        "wall_s": statistics.median(s["wall_s"] * sample_factor(s) for s in plain),
        "setup_s": statistics.median(t * f for t, f in setups),
        "instance_p50_ms": percentile(latencies_ms, 50),
        "instance_p98_ms": percentile(latencies_ms, 98),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
    }


def per_layer(plain, traced, units):
    """Medians over the traced samples, times in reference seconds."""
    def scaled(sample, name):
        value = sample["layers"][name]
        return value * sample_factor(sample) if units[name] == "s" else value

    out = {name: statistics.median(scaled(s, name) for s in traced) for name in traced[0]["layers"]}
    out["traced_wall_s"] = statistics.median(s["wall_s"] * sample_factor(s) for s in traced)
    out["untraced_wall_s"] = statistics.median(s["wall_s"] * sample_factor(s) for s in plain)
    out["trace_overhead_s"] = out["traced_wall_s"] - out["untraced_wall_s"]
    out["reference_factor"] = statistics.median(sample_factor(s) for s in plain)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small is the reduced size the self-test runs")
    args = parser.parse_args(argv)
    bench = spec()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error("unknown workload %r" % args.workload)
    if not os.path.isfile(os.path.join(ROOT, "src", "demtensor", "__init__.py")):
        print("error: no demtensor source under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.size)
    try:
        setups, plain, traced = measure(runner, args.seconds, args.trace)
    except BenchmarkError as caught:
        print("error: %s" % caught, file=sys.stderr)
        return 2
    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    digests = sorted({s["payload_sha256"] for s in samples})
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, wanted = per_layer(plain, traced, units), bench["per_layer"]
    else:
        values, wanted = end_to_end(setups, plain), bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "samples": len(plain),
        "traced_samples": len(traced),
        "setups": len(setups),
        "measured_wall_s": [s["wall_s"] for s in plain],
        "measured_setup_s": statistics.median(t for t, _ in setups),
        "reference_factors": [sample_factor(s) for s in plain],
        "payload_sha256": digests,
        "error_rate": failed / attempted,
        "failures": [f for s in samples for f in s["failures"]][:5],
    }))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
