"""One benchmark sample in a fresh interpreter.

Usage (run.py starts it with src/ on PYTHONPATH):

    python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE [--setup-only]

The worker imports demtensor, installs the tracer when TRACE is 1, builds
the workload's root systems and Weyl groups, and prints "ready": the parent
times set-up up to that line, and the calibration passes right after it
give the machine's speed at that moment (speed.py).  It then makes the
instances, runs the timed loop with the speed probe running (its clock,
which leaves the calibration passes out, also times the spans), and prints
one JSON line with the sample's timings, payload digest, failures and
(traced) per-layer metrics.  The correctness checks run after
the tracer is removed, so they never show up in the layer numbers.
"""

import json
import resource
import sys

import workloads  # imports demtensor
from spans import Tracer
from speed import SpeedProbe, one_pass

SETUP_PASSES = 20  # calibration passes right after set-up, to scale it


def main(argv):
    name, seed, size, trace = argv[:4]
    workload = workloads.WORKLOADS[name](int(seed), size)
    probe = SpeedProbe()
    tracer = None
    if trace == "1":
        tracer = Tracer(clock=probe.clock)
        tracer.install(extra_modules=(workloads,))
    workload.setup()
    print("ready", flush=True)
    setup_passes = [one_pass() for _ in range(SETUP_PASSES)]
    if "--setup-only" in argv:
        print(json.dumps({"setup_passes_s": setup_passes}))
        return 0
    instances = workload.instances()
    if tracer is not None:
        tracer.mark()
    probe.start()
    wall_s = workload.run(instances, probe)
    probe.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(wall_s)
    payload = workload.payload(instances)
    if layers is not None:
        is_cli = isinstance(workload, workloads.CliWorkload)
        layers["cli.output_bytes"] = len(payload) if is_cli else 0
    failures = workload.sample_checks()
    digest = workloads.sha256(payload)
    want = workload.reference_digest()
    if want is not None and digest != want:
        failures.append("payload digest %s differs from the reference %s" % (digest, want))
    # A failed sample-level check fails every instance of the sample.
    sample_failed = bool(failures)
    failed = 0
    for inst in instances:
        problem = inst.error or workload.check_instance(inst)
        if problem is not None:
            failures.append("%s %r: %s" % (name, inst.args[1:] or inst.args, problem))
        if problem is not None or sample_failed:
            failed += 1
    print(json.dumps({
        "wall_s": wall_s,
        "setup_passes_s": setup_passes,
        "passes_s": probe.passes,
        "latencies_s": [inst.latency_s for inst in instances],
        "passes_before": [inst.passes_before for inst in instances],
        "peak_rss_mb": rss_mb,
        "attempted": len(instances),
        "failed": failed,
        "failures": failures[:5],
        "payload_sha256": digest,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
