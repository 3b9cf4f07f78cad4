"""The benchmark's tracer binds to library functions by name: every span a
workload expects must name a public function defined in its module, or the
traced benchmark run fails. This catches a rename or deletion here instead.

The check runs in a subprocess because installing the tracer patches
``numpy.fft`` and ``scipy.fft`` for the rest of the process.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import importlib, inspect, json
import run, trace_child

trace_child.install(trace_child.Tracer())
names = sorted({name for wl in run.WORKLOADS.values() for spec in wl.expect_spans for name in spec.split("<")})
bad = []
for name in names:
    layer, func = name.split(".")
    mod = importlib.import_module("tcm2d." + layer)
    fn = getattr(mod, func, None)
    if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__ and hasattr(fn, "__wrapped__")):
        bad.append(name)
print(json.dumps({"checked": len(names), "bad": bad}))
"""


def test_expected_spans_name_traced_functions():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["checked"] > 20
    assert result["bad"] == []
