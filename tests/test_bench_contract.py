"""What the benchmark relies on, checked in the test suite.

The benchmark's tracer binds to library functions by name: every span a
workload expects must name a public function defined in its module, or the
traced benchmark run fails. This catches a rename or deletion here instead.
That check runs in a subprocess because installing the tracer patches
``numpy.fft`` and ``scipy.fft`` for the rest of the process. So does one
traced ``run``, which checks what the tracer's hooks read of the arguments
and results of the functions they wrap, and so does every command of each
workload at n = 16, whose summaries must hold every span the workload
expects, each under the parent it names (``run.check_spans``).

The benchmark's correctness gate compares every run's final diagnostics
record and every eps sweep's distances and flags with ``bench/reference.json``,
and checks the verdict lines that ``check`` and ``twin`` print; the same gate
runs here, in-process, on every command of each workload at seed 0.
"""

import copy
import json
import os
import re
import subprocess
import sys

import pytest

from tcm2d.cli import main

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


def test_traced_run_counts_what_it_wrote(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nn = 16\n\n[time]\ndt = 0.002\nhorizon = 0.01\n\n[init]\npreset = random_band\n\n"
                   "[output]\ndiag_stride = 2\nsnap_stride = 1\n")
    summary, out = tmp_path / "summary.json", tmp_path / "run"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "trace_child.py"), str(summary), "run", "--config", str(cfg),
         "--out", str(out)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(summary.read_text())
    rows = len((out / "diagnostics.csv").read_text().splitlines()) - 1
    assert rows == 5 // 2 + 1
    assert traced["exit_code"] == 0 and traced["counters"]["storage.bytes_written"] > 0
    assert traced["funcs"]["records.make_record"]["calls"] == rows


@pytest.mark.parametrize("workload", ["run_n256", "session_n64"])
def test_outputs_match_reference(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import run

    wl = run.WORKLOADS[workload]
    reference = run.load_reference(workload, 0)
    assert reference is not None
    cfgs = run.write_configs(wl, tmp_path)
    for cfg_name, cmd in wl.commands:
        args = run.fill(cmd, cfgs[cfg_name], tmp_path, 0)
        code = main(args)
        out = capsys.readouterr()
        child = run.Child(code=code, wall_s=0.0, cpu_s=0.0, maxrss_mb=0.0, stdout=out.out, stderr=out.err)
        assert run.gate(args, child, tmp_path, reference) is None, args


@pytest.mark.parametrize("workload", ["run_n256", "session_n64"])
def test_traced_workload_has_every_expected_span(workload, tmp_path, monkeypatch):
    # every command of the workload under the tracer, at a small n: every
    # span the workload expects, with its parent where it names one, is
    # recorded; and each parent relation is checked, so that moving its calls
    # under another parent (the twin's steps under model.simulate, say)
    # fails the check
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import run

    wl = run.WORKLOADS[workload]
    cfgs = run.write_configs(wl, tmp_path)
    for path in cfgs.values():  # the configs' band, |k| <= 4, lies within the modes n = 16 keeps
        text, subs = re.subn(r"(?m)^n = \d+$", "n = 16", path.read_text())
        assert subs == 1
        path.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    traces = []
    for i, (cfg_name, cmd) in enumerate(wl.commands):
        summary = tmp_path / f"trace{i}.json"
        argv = [sys.executable, os.path.join(ROOT, "bench", "trace_child.py"), str(summary),
                *run.fill(cmd, cfgs[cfg_name], tmp_path, 0)]
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        traces.append(json.loads(summary.read_text()))
    run.check_spans(wl, traces)

    for spec in (spec for spec in wl.expect_spans if "<" in spec):
        name, _, parent = spec.partition("<")
        other = "model.simulate" if parent != "model.simulate" else "cli.main"
        planted = copy.deepcopy(traces)
        for trace in planted:
            parents = trace["funcs"].get(name, {}).get("parents", {})
            parents[other] = parents.get(other, 0) + parents.pop(parent, 0)
        with pytest.raises(RuntimeError, match=re.escape(spec)):
            run.check_spans(wl, planted)
