"""The benchmark's traced run still yields every per-layer metric.

perfbench/tracer.py wraps chanauth's functions by name from outside the
package.  When one it wraps is renamed or deleted, or a counter hook no
longer fits its parameters, the metrics that depend on it come back None
and perfbench/run.py drops them from its result line as absent.  This runs
the tracer over ``chanauth run configs/fig3.cfg`` in process and checks
that every per_layer metric BENCHMARK.json declares has a value.  The
tracer is loaded by file path, so nothing is added to sys.path.
"""

import importlib.util
import json
from pathlib import Path

from chanauth import cli

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_has_every_per_layer_metric(tmp_path):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["run", str(ROOT / "configs" / "fig3.cfg"), "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # The traced run reports trace_overhead_s itself, from untraced runs.
    wanted = {metric["name"] for metric in per_layer} - {"trace_overhead_s"}
    metrics = tracer.layer_metrics()
    assert set(metrics) == wanted
    assert [name for name, value in metrics.items() if value is None] == []
    assert tracer.broken == set()
