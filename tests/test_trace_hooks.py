"""The benchmark's tracer still finds every name it wraps or reads.

`perfbench/spans.py` wraps the package's functions by name from outside and
reads their `lru_cache` counters; `--trace 1` reports the per-layer metrics
that BENCHMARK.json lists.  A refactor that drops or renames one of those
names breaks the trace, which this test catches in well under a second.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer names filled in outside Tracer.metrics: the output size by the
# worker, the wall clocks and the speed factor by run.py.
REPORTED_OUTSIDE = {
    "cli.output_bytes", "traced_wall_s", "untraced_wall_s", "trace_overhead_s", "reference_factor",
}


def test_tracer_reports_every_per_layer_metric(monkeypatch, cold_caches):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from spans import Tracer

    import demtensor.cli  # noqa: F401  every layer module must be loaded
    from demtensor import cartan, crystal, decomp, demazure, keypoly, weyl

    tracer = Tracer()
    tracer.install()
    try:
        group = weyl.weyl_group(cartan.root_system("A", 2))
        v = w = group.from_word((1, 2))
        report = decomp.decompose(group, v, w, (1, 1), (1, 0))
        keypoly.product_report(group, v, w, (1, 1), (1, 0))
        # decompose decides inside the product; the LS-path B_x(nu) of a
        # Demazure verdict is compared here, as `verify` does
        entry = next(entry for entry in report.entries if entry.demazure)
        target = demazure.generate_demazure(group, entry.witness, entry.shifted_shape)
        assert crystal.is_isomorphic(group.rs, entry.component, target.subset)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(wall_s=1.0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        wanted = {metric["name"] for metric in json.load(handle)["per_layer"]}
    assert wanted - set(metrics) == REPORTED_OUTSIDE
    # the integer pipeline is still reached through the traced names
    assert not report.condition_holds
    assert metrics["decomp.decompose_calls"] == 1
    assert metrics["decomp.components"] == len(report.entries)
    assert metrics["keypoly.product_reports"] == 1
    for name in ("crystal.component_calls", "crystal.iso_tests", "demazure.string_checks",
                 "demazure.generate_calls"):
        assert metrics[name] > 0, name
    assert metrics["crystal.iso_tests"] == metrics["crystal.iso_matches"] == 1
