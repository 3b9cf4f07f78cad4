"""End-to-end and per-layer benchmark of the tcm2d command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one ``python -m tcm2d ...`` command, run as a child
process, one at a time, from this single process. A workload is a fixed
sequence of commands on configs derived from ``configs/sample_run.cfg``;
``--seed`` is handed to each command as ``--seed-override``. The sequence
(a "pass") is repeated until ``--seconds`` have elapsed and medians over
passes are reported. Every command's output goes through a correctness
gate; a failed gate or a non-zero exit counts as a failed operation.

``--trace 0`` reports the end-to-end metrics from untraced children.
``--trace 1`` alternates untraced passes with passes whose commands run
under ``bench/trace_child.py``, and reports the per-layer metrics and the
tracing overhead. The last line of stdout is the result JSON; the line
before it records the environment, so that results from different machines
are never compared.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from trace_child import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SAMPLE_CONFIG = ROOT / "configs" / "sample_run.cfg"
REFERENCE = BENCH_DIR / "reference.json"
SCRATCH = ROOT / ".bench_tmp"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 100.0

# Correctness tolerances against the stored per-seed reference. A change of
# roundoff (another FFT layout or summation order) stays far inside REL_TOL;
# a wrong coefficient does not. Columns whose value is roundoff itself get an
# absolute floor instead.
REL_TOL = 1e-9
ABS_FLOOR = {"mean_theta": 1e-12, "mean_u_x": 1e-12, "mean_u_y": 1e-12, "div_u_rel": 1e-12, "theta_tail_frac": 1e-12}
SWEEP_ABS_FLOOR = 1e-14

# A fixed numpy job that runs no tcm2d code, timed as a child once a round.
# Every step keeps the arrays' norms, so no value overflows or underflows.
# The shared VM this benchmark was written on changes speed by up to 1.5x
# for minutes at a time with other tenants' load, which moves every time a
# run measures; the median time of this job over the run measures that
# speed. End-to-end times are reported in seconds of a machine on which the
# job takes CALIBRATION_REF_S, and the raw times go to the environment line.
CALIBRATION = """\
import numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
b = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
p = np.exp(2j * np.pi * rng.random((64, 64)))
for _ in range(3000):
    a = np.fft.ifft2(np.fft.fft2(a) * p) * p.conj()
for _ in range(80):
    b = np.fft.ifft2(np.fft.fft2(b) * 0.5) * 2.0
s = 0
for i in range(400000):
    s += i * i
"""
CALIBRATION_REF_S = 1.0

# Imports tcm2d, parses the workload's config and builds the initial state:
# what every invocation pays before its first step.
SETUP_PROBE = """\
import dataclasses, json, sys
import numpy, scipy
import tcm2d
from tcm2d import config, model
cfg, _ = config.parse_config_file(sys.argv[1])
model.make_initial(dataclasses.replace(cfg, seed=int(sys.argv[2])))
print(json.dumps({"tcm2d": tcm2d.__file__, "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


@dataclasses.dataclass(frozen=True)
class Workload:
    configs: dict  # config name -> {(section, key): value}, applied to the sample config
    commands: tuple  # (config name, tcm2d argument list); {cfg}, {tmp}, {seed} are filled in
    expect_spans: tuple  # "layer.func" or "layer.func<layer.parent", each must be called


SWEEP_LEVELS = "0.2,0.1,0.05,0"

# Why each workload exists is stated in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "run_n256": Workload(
        configs={"run": {("grid", "n"): "256", ("time", "horizon"): "0.04", ("output", "diag_stride"): "5",
                         ("output", "snap_stride"): "20"}},
        commands=(("run", ("run", "--config", "{cfg}", "--out", "{tmp}/run", "--seed-override", "{seed}")),),
        expect_spans=("cli.cmd_run", "config.parse_config_file", "model.make_initial", "model.simulate<cli.cmd_run",
                      "model.imex_step<model.simulate", "records.make_record", "spectral.leray_project",
                      "storage.write_state_snapshot", "storage.write_diagnostics_csv", "storage.write_manifest"),
    ),
    "session_n64": Workload(
        configs={"dense": {("time", "horizon"): "0.3", ("output", "diag_stride"): "1", ("output", "snap_stride"): "1"},
                 "ensemble": {("time", "horizon"): "0.1", ("output", "snap_stride"): "1"}},
        commands=(("dense", ("run", "--config", "{cfg}", "--out", "{tmp}/run", "--seed-override", "{seed}")),
                  ("dense", ("check", "--run-dir", "{tmp}/run")),
                  ("ensemble", ("sweep-eps", "--config", "{cfg}", "--levels", SWEEP_LEVELS, "--out", "{tmp}/sweep",
                                "--seed-override", "{seed}")),
                  ("ensemble", ("twin", "--config", "{cfg}", "--delta", "1e-8", "--out", "{tmp}/twin",
                                "--seed-override", "{seed}"))),
        expect_spans=("cli.cmd_run", "cli.cmd_check", "cli.cmd_sweep_eps", "cli.cmd_twin", "config.parse_config_file",
                      "model.simulate<cli.cmd_run", "model.imex_step<model.simulate",
                      "records.make_record<model.simulate", "storage.write_state_snapshot", "storage.verify_manifest",
                      "storage.read_diagnostics_csv", "storage.read_state_snapshot",
                      "derived.residual_w_equation<cli.run_checks", "derived.residual_phi_equation<cli.run_checks",
                      "derived.residual_flux_equation<cli.run_checks", "gronwall.fit_min_k",
                      "gronwall.conclusion_check", "diagnostics.epsilon_sweep", "diagnostics.twin_divergence",
                      "model.simulate<diagnostics.epsilon_sweep", "model.imex_step<diagnostics.twin_divergence",
                      "model.make_initial<diagnostics.twin_divergence"),
    ),
}


# ---------------------------------------------------------------------------
# children


@dataclasses.dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # compile tcm2d the same way on every invocation, whatever the caller's
    # environment, and write nothing under src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list, workdir: Path) -> Child:
    """Run one child to completion; wall time from spawn to reap, CPU and
    peak RSS from the rusage that ``os.wait4`` returns for it alone."""
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out_fh,
                                stderr=err_fh)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


# ---------------------------------------------------------------------------
# workload inputs


def write_configs(wl: Workload, workdir: Path) -> dict:
    """Write each of the workload's configs into ``workdir``; returns name -> path."""
    paths = {}
    for name, overrides in wl.configs.items():
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        cp.read_string(SAMPLE_CONFIG.read_text())
        for (section, key), value in overrides.items():
            cp.set(section, key, value)
        paths[name] = workdir / f"{name}.cfg"
        with open(paths[name], "w", encoding="utf-8") as fh:
            cp.write(fh)
    return paths


def config_value(path: Path, section: str, key: str) -> float:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(path)
    return float(cp.get(section, key))


def steps_per_pass(wl: Workload, cfgs: dict) -> int:
    """IMEX steps the workload's commands take, all members and twins counted."""
    total = 0
    for cfg_name, cmd in wl.commands:
        cfg = cfgs[cfg_name]
        nsteps = round(config_value(cfg, "time", "horizon") / config_value(cfg, "time", "dt"))
        if cmd[0] == "run":
            total += nsteps
        elif cmd[0] == "sweep-eps":
            total += nsteps * len(SWEEP_LEVELS.split(","))
        elif cmd[0] == "twin":
            total += 2 * nsteps
    return total


def fill(cmd, cfg: Path, tmp: Path, seed: int) -> list:
    return [arg.format(cfg=cfg, tmp=tmp, seed=seed) for arg in cmd]


# ---------------------------------------------------------------------------
# correctness gate


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _close(got: float, want: float, floor: float) -> bool:
    return abs(got - want) <= max(REL_TOL * abs(want), floor)


def _num(text: str) -> float:
    return float(text.strip().removeprefix("np.float64(").removesuffix(")"))


def final_record(run_dir: Path) -> dict:
    lines = (run_dir / "diagnostics.csv").read_text().splitlines()
    return dict(zip(lines[0].split(","), (float(x) for x in lines[-1].split(","))))


def sweep_result(out: Path) -> dict:
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    flags = {}
    for line in (out / "sweep_summary.txt").read_text().splitlines():
        if line.startswith("monotone decrease"):
            key, _, value = line.partition(": ")
            flags[key] = value.strip() == "True"
    return {
        "eps": [_num(r[0]) for r in rows],
        "dist_velocity": [_num(r[1]) for r in rows],
        "dist_theta": [_num(r[2]) for r in rows],
        "monotone": flags,
    }


def gate(cmd: list, child: Child, tmp: Path, reference: dict | None) -> str | None:
    """Returns None if the command's output is correct, else the reason."""
    if child.code != 0:
        return f"exit code {child.code}: {child.stderr.strip()[-300:]}"
    kind = cmd[0]
    if kind == "run":
        run_dir = tmp / "run"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for entry in manifest["files"]:
            if _sha256(run_dir / entry["path"]) != entry["sha256"]:
                return f"manifest checksum mismatch for {entry['path']}"
        if reference is not None:
            got = final_record(run_dir)
            want = reference["final_record"]
            if set(got) != set(want):
                return "diagnostics.csv columns differ from the reference"
            bad = [c for c in want if not _close(got[c], want[c], ABS_FLOOR.get(c, 0.0))]
            if bad:
                return f"final record differs from the reference in {len(bad)} columns, " + ", ".join(
                    f"{c} ({got[c]!r} vs {want[c]!r})" for c in bad[:3])
    elif kind == "check":
        lines = child.stdout.strip().splitlines()
        if not lines or lines[-1] != "PASS overall":
            return "check did not print PASS overall"
    elif kind == "sweep-eps":
        if reference is not None:
            got, want = sweep_result(tmp / "sweep"), reference["sweep"]
            if got["eps"] != want["eps"] or got["monotone"] != want["monotone"]:
                return f"sweep levels or monotone flags differ from the reference: {got['monotone']}"
            for key in ("dist_velocity", "dist_theta"):
                if not all(_close(g, w, SWEEP_ABS_FLOOR) for g, w in zip(got[key], want[key])):
                    return f"sweep {key} differs from the reference: {got[key]} vs {want[key]}"
    elif kind == "twin":
        if "within envelope at every record: True" not in child.stdout:
            return "twin separation left its envelope"
    return None


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# passes


@dataclasses.dataclass
class Pass:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    attempted: int
    failed: int
    traces: list  # trace_child summaries, one per command (traced passes only)


def run_pass(wl: Workload, cfgs: dict, seed: int, reference: dict | None, traced: bool) -> Pass:
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=SCRATCH))
    try:
        children, traces, failed = [], [], 0
        for i, (cfg_name, cmd) in enumerate(wl.commands):
            args = fill(cmd, cfgs[cfg_name], tmp, seed)
            if traced:
                summary = tmp / f"trace{i}.json"
                argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(summary), *args]
            else:
                argv = [sys.executable, "-m", "tcm2d", *args]
            child = run_child(argv, tmp)
            children.append(child)
            try:
                problem = gate(args, child, tmp, reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem is not None:
                failed += 1
                print(f"FAILED tcm2d {' '.join(args)}: {problem}", file=sys.stderr)
            if traced and child.code == 0:
                traces.append(json.loads(summary.read_text()))
        return Pass(
            wall_s=sum(c.wall_s for c in children),
            cpu_s=sum(c.cpu_s for c in children),
            maxrss_mb=max(c.maxrss_mb for c in children),
            attempted=len(children),
            failed=failed,
            traces=traces,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_setup_probe(cfg: Path, seed: int, workdir: Path) -> tuple[float, dict]:
    child = run_child([sys.executable, "-c", SETUP_PROBE, str(cfg), str(seed)], workdir)
    if child.code != 0:
        raise RuntimeError(f"setup probe failed: {child.stderr.strip()[-300:]}")
    info = json.loads(child.stdout.strip().splitlines()[-1])
    if not Path(info["tcm2d"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"tcm2d imported from {info['tcm2d']}, not from {SRC}")
    return child.wall_s, info


def run_calibration(workdir: Path) -> float:
    child = run_child([sys.executable, "-c", CALIBRATION], workdir)
    if child.code != 0:
        raise RuntimeError(f"calibration job failed: {child.stderr.strip()[-300:]}")
    return child.wall_s


def repeat(seconds: float, min_rounds: int, one_round) -> list:
    """Call ``one_round`` at least ``min_rounds`` times, then again while the
    next round, at the median round time so far, is expected to end within
    ``seconds`` of the start."""
    started = time.perf_counter()
    results, durations = [], []
    while len(results) < min_rounds or time.perf_counter() - started + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        results.append(one_round())
        durations.append(time.perf_counter() - t0)
    return results


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl: Workload, cfgs: dict, seed: int, seconds: float, reference, workdir: Path):
    # A calibration job and a set-up probe before every pass, and one more
    # calibration after the last, spread all three samples over the run. The
    # probe parses the config of the workload's first command.
    probe_cfg = cfgs[wl.commands[0][0]]
    rounds = repeat(seconds, MIN_PASSES, lambda: (run_calibration(workdir),
                                                  run_setup_probe(probe_cfg, seed, workdir),
                                                  run_pass(wl, cfgs, seed, reference, traced=False)))
    _, (_, info), _ = rounds[-1]
    calibrations = [c for c, _, _ in rounds] + [run_calibration(workdir)]
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    setups = [wall for _, (wall, _), _ in rounds]
    passes = [p for _, _, p in rounds]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wall = scale * statistics.median(p.wall_s for p in passes)
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (scale * statistics.median(p.cpu_s for p in passes), "s"),
        "steps_per_s": (steps_per_pass(wl, cfgs) / wall, "1/s"),
        "setup_s": (scale * statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p.maxrss_mb for p in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    info["pass_wall_s"] = [p.wall_s for p in passes]
    info["setup_wall_s"] = setups
    info["calibration_wall_s"] = calibrations
    return metrics, attempted, failed, info


def _sum(traces: list, get) -> float:
    return sum(get(t) for t in traces)


def _func(trace: dict, name: str, key: str, default=0):
    return trace["funcs"].get(name, {}).get(key, default)


def _percentile(values: list, q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def check_spans(wl: Workload, traces: list) -> None:
    """Fail loudly when a span the workload must produce recorded no calls."""
    missing = []
    for spec in wl.expect_spans:
        name, _, parent = spec.partition("<")
        if parent:
            calls = _sum(traces, lambda t: t["funcs"].get(name, {}).get("parents", {}).get(parent, 0))
        else:
            calls = _sum(traces, lambda t: _func(t, name, "calls"))
        if not calls:
            missing.append(spec)
    if not _sum(traces, lambda t: _func(t, "model.imex_step", "fwd")):
        missing.append("FFT calls inside model.imex_step")
    if missing:
        raise RuntimeError(f"traced run recorded no calls for: {', '.join(missing)}")


def pass_layer_values(traces: list) -> dict:
    """Per-layer values of one traced pass (totals over its commands)."""

    def f(name, key):
        return _sum(traces, lambda t: _func(t, name, key))

    def outer(prefixes):
        return _sum(traces, lambda t: sum(v["outer_s"] for k, v in t["funcs"].items() if k.startswith(prefixes)))

    def counter(name):
        return _sum(traces, lambda t: t["counters"].get(name, 0))

    steps = f("model.imex_step", "calls")
    records = f("records.make_record", "calls")
    out = {
        "spectral.fft_fwd_per_step": (f("model.imex_step", "fwd") / steps if steps else 0.0, "count"),
        "spectral.fft_inv_per_step": (f("model.imex_step", "inv") / steps if steps else 0.0, "count"),
        "spectral.fft_s": (_sum(traces, lambda t: t["fft_s"]), "s"),
        "spectral.fft_share_of_step": (f("model.imex_step", "fft_s") / f("model.imex_step", "total_s"), "ratio"),
        "spectral.fft_bytes_computed": (_sum(traces, lambda t: t["fft_bytes"]), "B"),
        "spectral.leray_project_s": (f("spectral.leray_project", "total_s"), "s"),
        "model.step_nonfft_ms": (1e3 * (f("model.imex_step", "total_s") - f("model.imex_step", "fft_s")) / steps,
                                 "ms"),
        "records.fft_per_record": ((f("records.make_record", "fwd") + f("records.make_record", "inv")) / records
                                   if records else 0.0, "count"),
        "storage.write_s": (outer("storage.write_"), "s"),
        "storage.read_s": (outer(("storage.read_", "storage.list_")), "s"),
        "storage.verify_s": (outer("storage.verify_"), "s"),
        "storage.bytes_written": (counter("storage.bytes_written"), "B"),
        "storage.bytes_read": (counter("storage.bytes_read"), "B"),
        "storage.files_written": (counter("storage.files_written"), "count"),
        "derived.residual_s": (outer("derived.residual_"), "s"),
        "gronwall.fit_s": (f("gronwall.fit_min_k", "total_s"), "s"),
        "gronwall.conclusion_s": (f("gronwall.conclusion_check", "total_s"), "s"),
        "diagnostics.epsilon_sweep_s": (f("diagnostics.epsilon_sweep", "total_s"), "s"),
        "diagnostics.twin_divergence_s": (f("diagnostics.twin_divergence", "total_s"), "s"),
        "diagnostics.snapshots_held": (counter("diagnostics.snapshots_held"), "count"),
        "config.parse_s": (outer("config.parse_"), "s"),
        "cli.import_s": (statistics.mean(t["import_s"] for t in traces), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (_sum(traces, lambda t: t["layer_self_s"].get(layer, 0.0)), "s")
        out[f"{layer}.calls"] = (_sum(traces, lambda t: t["layer_calls"].get(layer, 0)), "count")
    return out


# counts that a deterministic program repeats exactly on every pass
EXACT = ("spectral.fft_fwd_per_step", "spectral.fft_inv_per_step", "spectral.fft_bytes_computed",
         "records.calls", "records.fft_per_record", "storage.files_written", "diagnostics.snapshots_held")


def per_layer(wl: Workload, cfgs: dict, seed: int, seconds: float, reference):
    rounds = repeat(seconds, MIN_TRACED_PASSES, lambda: (run_pass(wl, cfgs, seed, reference, traced=False),
                                                         run_pass(wl, cfgs, seed, reference, traced=True)))
    plain = [p for p, _ in rounds]
    traced = [t for _, t in rounds]
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    usable = [p.traces for p in traced if len(p.traces) == len(wl.commands)]
    if not usable:
        raise RuntimeError("no traced pass completed")
    for traces in usable:
        check_spans(wl, traces)
    values = [pass_layer_values(traces) for traces in usable]
    metrics = {}
    for name, (_, unit) in values[0].items():
        series = [v[name][0] for v in values]
        if name in EXACT and len(set(series)) > 1:
            raise RuntimeError(f"{name} differs between traced passes: {series}")
        metrics[name] = (statistics.median(series), unit)
    steps_ms = [1e3 * d for traces in usable for t in traces for d in _func(t, "model.imex_step", "durations", [])]
    record_ms = [1e3 * d for traces in usable for t in traces for d in _func(t, "records.make_record", "durations", [])]
    metrics["model.step_ms_p50"] = (_percentile(steps_ms, 0.5), "ms")
    metrics["model.step_ms_p90"] = (_percentile(steps_ms, 0.9), "ms")
    metrics["records.record_ms_p50"] = (_percentile(record_ms, 0.5), "ms")
    traced_wall = statistics.median(p.wall_s for p in traced)
    plain_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    fft_calls = {}
    for traces in usable:
        for t in traces:
            for k, v in t["fft_calls"].items():
                fft_calls[k] = fft_calls.get(k, 0) + v
    info = {
        **usable[0][0]["versions"],
        "passes": len(traced),
        "fft_backend": sorted({k.rsplit(".", 1)[0] for k in fft_calls}),
        "fft_calls": fft_calls,
        "step_samples": len(steps_ms),
        "record_samples": len(record_ms),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
    }
    return metrics, attempted, failed, info


# ---------------------------------------------------------------------------
# entry point


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "threads": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (SRC / "tcm2d" / "__init__.py").is_file() or not SAMPLE_CONFIG.is_file():
        print(f"bench: no tcm2d source tree at {ROOT}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    reference = load_reference(args.workload, args.seed)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        cfgs = write_configs(wl, workdir)
        if args.trace:
            metrics, attempted, failed, info = per_layer(wl, cfgs, args.seed, args.seconds, reference)
        else:
            metrics, attempted, failed, info = end_to_end(wl, cfgs, args.seed, args.seconds, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    env = environment()
    env.update(info)
    env.update(workload=args.workload, seed=args.seed, reference=reference is not None)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
