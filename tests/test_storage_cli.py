import ast
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tcm2d as t
from tcm2d import cli, model, storage
from tcm2d.cli import main
from tcm2d.config import parse_config_file, parse_config_text, render_config
from tcm2d.diagnostics import PERTURBATION_SHAPES
from tcm2d.errors import CflViolation, ChecksumMismatch, ConfigParseError, NonFiniteState, TcmError
from tcm2d.model import MIN_SPACING, PRESETS
from tcm2d.spectral import LENGTH_MAX, N_MAX, WEIGHT_MAX

from conftest import band_state, with_nan


MINIMAL_CFG = """
[grid]
n = 32

[time]
dt = 0.005
horizon = 0.05

[model]
eps = 0.1

[init]
preset = taylor_green

[output]
diag_stride = 1
snap_stride = 5
"""

SAMPLE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "sample_run.cfg")

SAMPLE_RENDERED = """[grid]
n = 64
length = 6.283185307179586

[time]
dt = 0.002
horizon = 1.0

[model]
eps = 0.1
dealias = true
cfl_max = 0.5

[init]
preset = random_band
amplitude = 1.0
mode_x = 1
mode_y = 0
band_lo = 1
band_hi = 4
u_amp = 1.0
v_amp = 0.5
theta_amp = 0.5
seed = 42

[output]
diag_stride = 2
snap_stride = 50
"""

DIAGNOSTICS_HEADER = (
    "t,energy,dissipation,u_l2,v_l2,theta_l2,grad_u_l2,grad_v_l2,grad_theta_l2,grad_w_l2,"
    "lap_u_l2,lap_w_l2,lap_theta_l2,grad_lap_u_l2,grad_lap_w_l2,theta_l4,theta_linf,u_linf,"
    "v_linf,uv_linf,grad_u_linf,grad_u_l4,grad_w_l4,phi_linf,a_func,b_func,theta_tail_frac,"
    "mean_theta,mean_u_x,mean_u_y,div_u_rel"
)


class TestConfigParsing:
    def test_minimal(self):
        cfg = parse_config_text(MINIMAL_CFG)
        assert cfg.n == 32 and cfg.dt == 0.005 and cfg.eps == 0.1
        assert cfg.length == pytest.approx(2 * np.pi)  # default

    def test_render_roundtrip(self):
        cfg = parse_config_text(MINIMAL_CFG)
        again = parse_config_text(render_config(cfg))
        assert again == cfg

    def test_render_bytes_pinned(self):
        cfg, _ = parse_config_file(SAMPLE_CFG)
        assert render_config(cfg) == SAMPLE_RENDERED
        with_dir = dataclasses.replace(cfg, outdir="runs/sample")
        assert render_config(with_dir) == SAMPLE_RENDERED + "dir = runs/sample\n"

    def test_unknown_key(self):
        with pytest.raises(ConfigParseError, match="unknown key"):
            parse_config_text(MINIMAL_CFG + "\nwobble = 3\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigParseError, match="unknown section"):
            parse_config_text("[nope]\nx = 1\n" + MINIMAL_CFG)

    def test_bad_value_mentions_field(self):
        bad = MINIMAL_CFG.replace("dt = 0.005", "dt = fast")
        with pytest.raises(ConfigParseError, match=r"\[time\] dt"):
            parse_config_text(bad)

    def test_eps_out_of_range(self):
        bad = MINIMAL_CFG.replace("eps = 0.1", "eps = 0.7")
        with pytest.raises(ConfigParseError, match="eps"):
            parse_config_text(bad)

    def test_missing_required(self):
        with pytest.raises(ConfigParseError, match="missing required"):
            parse_config_text("[grid]\nn = 32\n")


def spectra(s):
    return [f.spec for f in (*s.u, *s.v, s.theta)]


def same_spectra(a, b):
    return all(np.array_equal(x, y) for x, y in zip(spectra(a), spectra(b)))


class TestSnapshots:
    def test_bit_exact_roundtrip(self, tmp_path):
        s = band_state(n=32, seed=1, eps=0.25)
        path, digest = storage.write_state_snapshot(tmp_path / "snaps", s, 7)
        assert os.listdir(tmp_path / "snaps") == ["step_00000007.bin"] == [os.path.basename(path)]
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
        back = storage.read_state_snapshot(tmp_path / "snaps", 7)
        assert same_spectra(back, s)
        assert np.array_equal(back.theta.phys, s.theta.phys)
        assert back.eps == s.eps and back.t == s.t

    def test_header_self_describing(self, tmp_path):
        s = dataclasses.replace(band_state(n=16, seed=2), t=1.5)
        path = tmp_path / "f.bin"
        storage.write_field_snapshot(path, s)
        back = storage.read_field_snapshot(path)
        assert back.grid.n == 16 and back.t == 1.5 and back.eps == 0.1
        with open(path, "rb") as fh:
            header = fh.readline()
            raw = fh.read()
        assert header == b"TCM3 n=16 L=6.283185307179586 t=1.5 eps=0.1 fields=u_x,u_y,v_x,v_y,theta\n"
        # the documented layout, read without the package: with k = n // 3 =
        # 5, rows [0, 5] then [11, 16) of columns [0, 5], scattered into the
        # half plane
        assert len(raw) == 5 * (2 * 5 + 1) * (5 + 1) * 16
        block = np.frombuffer(raw, dtype="<c16").reshape(5, 11, 6)
        spec = np.zeros((5, 16, 9), dtype=complex)
        spec[:, :6, :6], spec[:, 11:, :6] = block[:, :6], block[:, 6:]
        assert np.array_equal(np.fft.irfft2(spec[4], s=(16, 16)), s.theta.phys)

    def test_read_back_state_steps_bit_for_bit(self, tmp_path):
        # band_hi = 10 = n // 3, the largest band on the two-thirds block
        cfg = t.SimConfig(n=32, dt=1e-3, horizon=0.02, preset="random_band", eps=0.1, band_hi=10, snap_stride=10)
        stepped = t.simulate(cfg).snapshots[-1]
        storage.write_state_snapshot(str(tmp_path), stepped, 20)
        back = storage.read_state_snapshot(str(tmp_path), 20)
        assert same_spectra(back, stepped) and back.t == stepped.t and back.eps == stepped.eps
        assert same_spectra(t.imex_step(back, cfg.dt), t.imex_step(stepped, cfg.dt))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data[:-1], "payload bytes"),
            (lambda data: data.replace(b",theta", b",p", 1), "fields="),
            (lambda data: data.replace(b"eps=0.1", b"eps=1.5", 1), "eps"),
            (lambda data: data.replace(b"TCM3", b"TCM2", 1), "not a TCM3 snapshot"),
        ],
        ids=["truncated", "fields", "eps", "magic"],
    )
    def test_malformed_snapshot(self, tmp_path, edit, message):
        path = tmp_path / "f.bin"
        storage.write_field_snapshot(path, band_state(n=16, seed=2))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ConfigParseError, match=message) as info:
            storage.read_field_snapshot(path)
        assert f"{path}: line 1" in str(info.value)

    def test_stale_snapshot_removal_keeps_other_files(self, tmp_path):
        # a run that writes step 0 into a directory that holds step 1 of a
        # longer earlier run, the per-field files of a TCM1 run and others
        snap_dir = os.path.join(tmp_path, storage.SNAPSHOT_DIR)
        state = band_state(n=16, seed=1, hi=3)
        stale = [storage.write_state_snapshot(snap_dir, state, 1)[0]]
        stale += [os.path.join(snap_dir, name) for name in ("step_00000000.theta.bin", "step_00000001.u_x.bin")]
        other = ["notes.txt", "step_1.theta.bin", "step_00000001.p.bin", "step_00000001.theta.bin.bak"]
        for path in stale[1:] + [os.path.join(snap_dir, name) for name in other]:
            Path(path).touch()
        with storage.RunWriter(str(tmp_path), "", "0.0") as out:
            out.snapshot(0, state)
        assert sorted(os.listdir(snap_dir)) == sorted(other + ["step_00000000.bin"])
        assert not any(os.path.exists(p) for p in stale)

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    def test_payload_is_the_kept_block(self, tmp_path, n):
        path = tmp_path / "f.bin"
        cfg = t.SimConfig(n=n, dt=1e-3, horizon=0.0, preset="random_band", band_hi=n // 3, seed=n)
        s = t.make_initial(cfg)
        storage.write_field_snapshot(path, s)
        with open(path, "rb") as fh:
            fh.readline()
            payload = len(fh.read())
        k = n // 3
        assert payload == 5 * (2 * k + 1) * (k + 1) * 16
        assert same_spectra(storage.read_field_snapshot(path), s)

    @pytest.mark.parametrize("index, name", list(enumerate(storage.FIELD_NAMES)))
    def test_mode_off_the_block_is_dropped(self, tmp_path, index, name):
        # grid samples one of which has a mode just past n // 3 = 5: the
        # field built from them drops it, so the state is the one without
        # it, and its snapshot reads back bit for bit
        s = band_state(n=16, seed=3, hi=3)
        samples = [f.phys for f in (*s.u, *s.v, s.theta)]
        f = [t.SpectralField.from_phys(s.grid, x) for x in samples]
        without = t.State.from_fields(t.VectorField(f[0], f[1]), t.VectorField(f[2], f[3]), f[4], s.t, s.eps)
        samples[index] = samples[index] + 1e-3 * np.cos(6 * np.arange(16) * s.grid.spacing)[:, None]
        f = [t.SpectralField.from_phys(s.grid, x) for x in samples]
        built = t.State.from_fields(t.VectorField(f[0], f[1]), t.VectorField(f[2], f[3]), f[4], s.t, s.eps)
        assert np.max(np.abs(built.spec - without.spec)) <= 1e-15 * np.max(np.abs(without.spec))
        assert np.max(np.abs(built.spec - s.spec)) <= 1e-13 * np.max(np.abs(s.spec))
        path = tmp_path / "f.bin"
        storage.write_field_snapshot(path, built)
        back = storage.read_field_snapshot(path)
        assert np.array_equal(back.spec, built.spec) and same_spectra(back, built)

    def test_run_reads_no_field_of_a_state(self, tmp_path, monkeypatch):
        # step, record and snapshot pass each state's block through as it
        # is: a run into a run directory scatters no state into a half plane
        cfg = t.SimConfig(n=64, dt=2e-3, horizon=0.01, preset="random_band", eps=0.1, seed=5)
        for name in ("u", "v", "theta"):
            monkeypatch.setattr(t.State, name, property(lambda s, name=name: pytest.fail(f"read State.{name}")))
        write_run(tmp_path / "run", cfg)
        monkeypatch.undo()
        assert storage.manifest_snapshot_steps(storage.verify_manifest(str(tmp_path / "run"))) == list(range(6))
        assert same_spectra(storage.read_state_snapshot(str(tmp_path / "run" / "snapshots"), 5), t.simulate(cfg).snapshots[-1])

    def test_block_geometry_is_stated_once(self):
        # k = n // 3 is one expression of the package, in the module that
        # fields, states and the snapshot format all read the block from
        src = os.path.dirname(t.__file__)
        thirds = []
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                thirds += [
                    (name, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                    and isinstance(node.right, ast.Constant) and node.right.value == 3
                ]
        assert [name for name, _ in thirds] == ["spectral.py"]
        for n in (8, 16, 64, 256):
            g = t.Grid(n)
            # the block is exactly the half-plane modes the two-thirds rule
            # keeps, each once
            half = np.broadcast_arrays(np.fft.fftfreq(n, 1.0 / n)[:, None], np.fft.rfftfreq(n, 1.0 / n)[None, :])
            want = {(int(a), int(b)) for a, b in zip(*(h.ravel() for h in half)) if max(abs(a), b) <= n / 3}
            block = [(int(a), int(b)) for a, b in zip(*(h.ravel() for h in np.broadcast_arrays(g.kx_int, g.ky_int)))]
            assert len(block) == len(set(block)) == math.prod(g.spec_shape) and set(block) == want


def write_run(run_dir, cfg: t.SimConfig):
    """Run ``cfg`` into ``run_dir`` through the run-directory writer."""
    with storage.RunWriter(str(run_dir), render_config(cfg), t.__version__) as out:
        t.simulate(cfg, out.snapshot, out.record)


class TestDiagnosticsCsv:
    def test_roundtrip_exact(self, tmp_path):
        cfg = t.SimConfig(n=16, dt=1e-2, horizon=0.05, preset="taylor_green", diag_stride=1)
        write_run(tmp_path, cfg)
        back = storage.read_diagnostics_csv(tmp_path / "diagnostics.csv")
        series = t.simulate(cfg).diagnostics
        for col in t.COLUMNS:
            assert np.array_equal(back.col(col), series.col(col))

    def test_header_row(self, tmp_path):
        cfg = t.SimConfig(n=16, dt=1e-2, horizon=0.0, preset="taylor_green")
        write_run(tmp_path, cfg)
        first = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
        assert first == ",".join(t.COLUMNS)
        assert first == DIAGNOSTICS_HEADER


class TestGronwallCsv:
    def test_roundtrip(self, tmp_path):
        ts = np.linspace(0, 1, 5)
        path = tmp_path / "g.csv"
        storage.write_gronwall_csv(path, ts, 1 + ts, 1 + 2 * ts, 0 * ts, 0 * ts + 1)
        times, A, B, alpha, beta = storage.read_gronwall_csv(path)
        assert np.array_equal(times, ts)
        assert np.array_equal(B, 1 + 2 * ts)

    def test_bad_row_number(self, tmp_path):
        path = tmp_path / "g.csv"
        with open(path, "w") as fh:
            fh.write("time,A,B,alpha,beta\n0,1,1,0,0\n0.5,1,oops,0,0\n")
        with pytest.raises(ConfigParseError, match="g.csv: line 3"):
            storage.read_gronwall_csv(path)


class TestManifest:
    def test_verify_and_tamper(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("payload")
        storage.write_manifest(tmp_path, "cfg", "0.0", 0.0, {str(f): hashlib.sha256(b"payload").hexdigest()})
        storage.verify_manifest(tmp_path)
        f.write_text("tampered")
        with pytest.raises(ChecksumMismatch):
            storage.verify_manifest(tmp_path)

    def test_opens_no_file_but_the_manifest(self, tmp_path, monkeypatch):
        # the listed files need not exist: their checksums come from the writers
        opened = []
        real_open = open
        monkeypatch.setattr("builtins.open", lambda path, *a, **k: opened.append(str(path)) or real_open(path, *a, **k))
        files = {str(tmp_path / "snapshots" / "step_00000000.bin"): "0" * 64, str(tmp_path / "config.cfg"): "1" * 64}
        path = storage.write_manifest(tmp_path, "cfg", "0.0", 0.0, files)
        monkeypatch.undo()
        assert opened == [path] == [str(tmp_path / "manifest.json")]
        with open(path) as fh:
            assert json.load(fh)["files"] == [{"path": "config.cfg", "sha256": "1" * 64},
                                              {"path": os.path.join("snapshots", "step_00000000.bin"), "sha256": "0" * 64}]

    def test_missing_file(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("payload")
        storage.write_manifest(tmp_path, "cfg", "0.0", 0.0, {str(f): hashlib.sha256(b"payload").hexdigest()})
        os.remove(f)
        with pytest.raises(ChecksumMismatch, match="missing"):
            storage.verify_manifest(tmp_path)


def write_cfg(tmp_path, text=MINIMAL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_main_leaves_the_collector_unfrozen(tmp_path, capsys):
    assert main(["run", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "o")]) == 0
    assert gc.get_freeze_count() == 0


def test_entry_freezes_the_collector_before_exit(tmp_path):
    # the console script exits with main's code, every object frozen so that
    # interpreter shutdown does not collect them
    code = (
        "import gc, sys\nfrom tcm2d import cli\nsys.argv = ['tcm2d', '--version']\n"
        "try:\n    cli.entry()\nexcept SystemExit as exc:\n    print(exc.code, gc.get_freeze_count() > 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(t.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out.splitlines()[-1] == "0 True"


def test_cli_import_loads_no_scipy():
    # the library needs numpy only; scipy costs every command its import time
    src = os.path.dirname(os.path.dirname(t.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, tcm2d.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestCliRun:
    def test_minimal_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        lines = Path(out, "diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) >= 3  # header + at least two records
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_one_file_per_snapshot(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace("snap_stride = 5", "snap_stride = 1"))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        names = [f"step_{step:08d}.bin" for step in range(11)]
        assert sorted(os.listdir(os.path.join(out, "snapshots"))) == names
        assert "11 snapshots" in capsys.readouterr().out
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["format"] == "TCM3"
        assert sorted(e["path"] for e in manifest["files"] if e["path"].startswith("snapshots")) == [
            os.path.join("snapshots", name) for name in names
        ]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["run", "--config", cfg, "--out", out]) == 0
            outs.append(Path(out, "diagnostics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            MINIMAL_CFG.replace("preset = taylor_green", "preset = random_band\nseed = 1"),
        )
        blobs = []
        for seed, name in ((1, "a"), (2, "b")):
            out = str(tmp_path / name)
            assert main(["run", "--config", cfg, "--out", out, "--seed-override", str(seed)]) == 0
            blobs.append(Path(out, "diagnostics.csv").read_bytes())
        assert blobs[0] != blobs[1]

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace("eps = 0.1", "eps = 0.7"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("TCM-ERROR ")
        payload = json.loads(err.split(" ", 1)[1])
        assert payload["error"] == "ConfigParseError"

    @pytest.mark.parametrize(
        "field, old, new",
        [("horizon", "horizon = 0.05", "horizon = nan"), ("u_amp", "[init]", "[init]\nu_amp = nan"),
         ("dt", "dt = 0.005", "dt = inf")],
    )
    def test_non_finite_config_exit_code(self, tmp_path, capsys, field, old, new):
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace(old, new))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err.split(" ", 1)[1])
        assert payload["error"] == "ConfigParseError" and payload["detail"].startswith(f"{field} must be finite")

    def test_cfl_exit_code(self, tmp_path, capsys):
        text = MINIMAL_CFG.replace("dt = 0.005", "dt = 2.5").replace("horizon = 0.05", "horizon = 5.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        payload = json.loads(capsys.readouterr().err.split(" ", 1)[1])
        assert payload["error"] == "CflViolation" and payload["step"] == 1 and payload["t"] == 0.0
        assert payload["ratio"] > payload["limit"] == 0.5

    def test_non_finite_state_exit_code(self, tmp_path, capsys, monkeypatch):
        from tcm2d import model

        make_initial = model.make_initial
        monkeypatch.setattr(model, "make_initial", lambda cfg: with_nan(make_initial(cfg), "u_x"))
        cfg = write_cfg(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("TCM-ERROR ")
        payload = json.loads(err.split(" ", 1)[1])
        assert payload["error"] == "NonFiniteState" and payload["t"] == 0.0 and payload["field"] == "u"
        assert payload["step"] == 1

    @pytest.mark.parametrize("k", [1, 4])
    def test_stopped_run_keeps_its_rows(self, tmp_path, capsys, monkeypatch, k):
        # the state goes non-finite at step k: the directory keeps its own
        # config and the rows and snapshots of steps 0..k-1, byte for byte
        # as an unpatched run writes them, and has no manifest
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace("snap_stride = 5", "snap_stride = 1"))
        full, stopped = tmp_path / "full", tmp_path / "stopped"
        assert main(["run", "--config", cfg, "--out", str(full)]) == 0
        imex_step, steps = model.imex_step, []

        def faulty(s, dt, cfl_max):
            steps.append(s)
            return imex_step(with_nan(s, "v_x") if len(steps) == k else s, dt, cfl_max)

        monkeypatch.setattr(model, "imex_step", faulty)
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out", str(stopped)]) == 3
        payload = json.loads(capsys.readouterr().err.split(" ", 1)[1])
        assert payload["error"] == "NonFiniteState" and payload["step"] == k and payload["field"] == "v"
        assert sorted(os.listdir(stopped)) == ["config.cfg", "diagnostics.csv", "snapshots"]
        assert (stopped / "config.cfg").read_bytes() == Path(cfg).read_bytes()
        rows = (full / "diagnostics.csv").read_bytes().splitlines(keepends=True)
        assert (stopped / "diagnostics.csv").read_bytes() == b"".join(rows[: k + 1])
        names = [f"step_{step:08d}.bin" for step in range(k)]
        assert sorted(os.listdir(stopped / "snapshots")) == names
        for name in names:
            assert (stopped / "snapshots" / name).read_bytes() == (full / "snapshots" / name).read_bytes()
        assert main(["check", "--run-dir", str(stopped)]) == 4

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 4

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"[grid]\nn = 32\xff\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err.split(" ", 1)[1])
        assert payload["error"] == "ConfigParseError"
        assert "run.cfg: line 2" in payload["detail"]


def _error_classes(cls=TcmError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


class TestErrorContract:
    """Every package error, raised inside a command, exits with its class's
    code and prints exactly one ``TCM-ERROR`` line naming the class."""

    ARGS = {CflViolation: (2.0, 0.5, 0.25), NonFiniteState: (0.25, "u")}
    EXIT_CODES = {CflViolation: 3, NonFiniteState: 3, ChecksumMismatch: 4}
    # the keys a guard error adds to the line; step is None outside a run
    EXTRA = {
        CflViolation: {"ratio": 2.0, "limit": 0.5, "t": 0.25, "step": None},
        NonFiniteState: {"t": 0.25, "field": "u", "step": None},
    }

    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
    def test_exit_code_and_one_line(self, cls, capsys, monkeypatch):
        exc = cls(*self.ARGS.get(cls, ("planted",)))

        def command(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_gronwall", command)
        assert main(["gronwall", "--csv", "unused.csv", "--k", "1"]) == self.EXIT_CODES.get(cls, 2)
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("TCM-ERROR ")
        payload = json.loads(line.split(" ", 1)[1])
        assert payload == {"error": cls.__name__, "detail": str(exc), **self.EXTRA.get(cls, {})}


class TestCliCheck:
    def test_fresh_run_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "chk")
        assert main(["check", "--config", cfg, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "PASS overall" in text
        assert os.path.exists(os.path.join(out, "check_summary.txt"))
        assert os.path.exists(os.path.join(out, "check_series.csv"))

    def test_zero_data_run_passes(self, tmp_path):
        text = MINIMAL_CFG.replace(
            "preset = taylor_green", "preset = single_mode\namplitude = 0.0"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_run_dir_mode_and_tamper(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "r")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        assert main(["check", "--run-dir", out]) == 0
        with open(os.path.join(out, "diagnostics.csv"), "a") as fh:
            fh.write("tampered\n")
        assert main(["check", "--run-dir", out]) == 4

    def test_run_dir_reads_only_used_snapshots(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace("snap_stride = 5", "snap_stride = 1"))
        run = str(tmp_path / "r")
        assert main(["run", "--config", cfg, "--out", run]) == 0
        read = []
        read_state_snapshot = storage.read_state_snapshot
        monkeypatch.setattr(storage, "read_state_snapshot", lambda d, step: read.append(step) or read_state_snapshot(d, step))
        assert main(["check", "--run-dir", run]) == 0
        # 11 snapshots: the residual window around the middle, then the last
        assert read == [4, 5, 6, 10]

    def test_run_dir_report_goes_to_out(self, tmp_path):
        cfg = write_cfg(tmp_path)
        run, out = str(tmp_path / "r"), str(tmp_path / "o")
        assert main(["run", "--config", cfg, "--out", run]) == 0
        assert main(["check", "--run-dir", run, "--out", out]) == 0
        names = ("check_summary.txt", "check_series.csv")
        assert not any(os.path.exists(os.path.join(run, name)) for name in names)
        assert main(["check", "--run-dir", run]) == 0
        for name in names:
            assert Path(out, name).read_bytes() == Path(run, name).read_bytes()

    def test_run_dir_rejects_seed_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        run = str(tmp_path / "r")
        assert main(["run", "--config", cfg, "--out", run]) == 0
        capsys.readouterr()
        assert main(["check", "--run-dir", run, "--seed-override", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("TCM-ERROR ")
        payload = json.loads(err.split(" ", 1)[1])
        assert payload["error"] == "ConfigParseError" and "--seed-override" in payload["detail"]
        assert not os.path.exists(os.path.join(run, "check_summary.txt"))

    def test_config_and_run_dir_reports_match(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_CFG.replace("snap_stride = 5", "snap_stride = 2"))
        fresh, reread = str(tmp_path / "fresh"), str(tmp_path / "reread")
        assert main(["check", "--config", cfg, "--out", fresh]) == 0
        assert main(["check", "--run-dir", fresh, "--out", reread]) == 0
        for name in ("check_summary.txt", "check_series.csv"):
            assert Path(fresh, name).read_bytes() == Path(reread, name).read_bytes()

    def test_run_dir_ignores_stale_snapshots(self, tmp_path, monkeypatch):
        text = MINIMAL_CFG.replace("snap_stride = 5", "snap_stride = 1")
        longer = write_cfg(tmp_path, text, "long.cfg")
        shorter = write_cfg(tmp_path, text.replace("horizon = 0.05", "horizon = 0.025"), "short.cfg")
        run, fresh = str(tmp_path / "r"), str(tmp_path / "fresh")
        assert main(["run", "--config", longer, "--out", run]) == 0
        assert main(["run", "--config", shorter, "--out", run]) == 0
        assert main(["run", "--config", shorter, "--out", fresh]) == 0
        assert not os.path.exists(os.path.join(run, "snapshots", "step_00000010.bin"))  # the longer run's
        read = []
        read_state_snapshot = storage.read_state_snapshot
        monkeypatch.setattr(storage, "read_state_snapshot", lambda d, step: read.append(step) or read_state_snapshot(d, step))
        assert main(["check", "--run-dir", run]) == 0
        assert main(["check", "--run-dir", fresh]) == 0
        # 6 listed snapshots: the window around the middle, then the last
        assert read == [2, 3, 4, 5] * 2
        summaries = [Path(d, "check_summary.txt").read_bytes() for d in (run, fresh)]
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_failed_run_leaves_no_manifest(self, tmp_path, capsys, command):
        good = write_cfg(tmp_path, MINIMAL_CFG, "good.cfg")
        bad = write_cfg(
            tmp_path, MINIMAL_CFG.replace("dt = 0.005", "dt = 2.5").replace("horizon = 0.05", "horizon = 5.0"), "bad.cfg"
        )
        out = str(tmp_path / "o")
        assert main(["run", "--config", good, "--out", out]) == 0
        assert main([command, "--config", bad, "--out", out]) == 3
        assert json.loads(capsys.readouterr().err.split(" ", 1)[1])["error"] == "CflViolation"
        assert not os.path.exists(os.path.join(out, "manifest.json"))
        assert main(["check", "--run-dir", out]) == 4

    def test_manifest_lists_every_artifact(self, tmp_path):
        cfg = write_cfg(tmp_path)
        longer = write_cfg(tmp_path, MINIMAL_CFG.replace("horizon = 0.05", "horizon = 0.1"), "long.cfg")
        fresh, reused = str(tmp_path / "fresh"), str(tmp_path / "reused")
        assert main(["run", "--config", longer, "--out", reused]) == 0  # leaves later snapshots there
        for out in (fresh, reused):
            assert main(["run", "--config", cfg, "--out", out]) == 0
            manifest = json.loads(Path(out, "manifest.json").read_text())
            listed = {e["path"] for e in manifest["files"]}
            on_disk = set()
            for root, _, names in os.walk(out):
                for name in names:
                    rel = os.path.relpath(os.path.join(root, name), out)
                    if rel != "manifest.json":
                        on_disk.add(rel)
            assert listed == on_disk, out

    @pytest.mark.parametrize("n, horizon, amplitude", [(32, "0.1", "1.0"), (64, "0.3", "1.0"), (32, "0.1", "0.0")])
    def test_single_mode_passes_divergence_free(self, tmp_path, capsys, n, horizon, amplitude):
        # u stays at roundoff size, so ||div u||_2 / ||u||_H1 is a ratio of
        # two roundoff residues (about 0.99); the gate measures div u against
        # the initial state's size there, and an all-zero state passes
        text = Path(SAMPLE_CFG).read_text()
        for old, new in (("n = 64", f"n = {n}"), ("horizon = 1.0", f"horizon = {horizon}"),
                         ("preset = random_band", f"preset = single_mode\namplitude = {amplitude}"),
                         ("diag_stride = 2", "diag_stride = 1")):
            assert old in text
            text = text.replace(old, new)
        cfg = write_cfg(tmp_path, text)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "PASS divergence_free" in capsys.readouterr().out


class TestMalformedRunDir:
    """``check --run-dir`` on a run whose manifest lists a malformed file
    exits 2 with a ConfigParseError naming the file and line, or with the
    typed error a header that parses but cannot hold raises."""

    @staticmethod
    def check_edited(tmp_path, capsys, rel, edit, error="ConfigParseError"):
        run = str(tmp_path / "r")
        assert main(["run", "--config", write_cfg(tmp_path), "--out", run]) == 0
        path = os.path.join(run, rel)
        with open(path, "rb") as fh:
            data = edit(fh.read())
        with open(path, "wb") as fh:
            fh.write(data)
        # list the edited file's checksum, so that the manifest check passes
        manifest_path = os.path.join(run, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        for entry in manifest["files"]:
            if entry["path"] == rel:
                entry["sha256"] = hashlib.sha256(data).hexdigest()
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        assert main(["check", "--run-dir", run]) == 2
        payload = json.loads(capsys.readouterr().err.split(" ", 1)[1])
        assert payload["error"] == error
        return payload["detail"]

    @pytest.mark.parametrize(
        "edit",
        [lambda cells: cells[:-1], lambda cells: cells + [b"0"], lambda cells: cells[:4] + [b"oops"] + cells[5:],
         lambda cells: [b"\xe9" + cells[0]] + cells[1:]],
        ids=["30_cells", "32_cells", "non_numeric", "non_ascii"],
    )
    def test_bad_diagnostics_row(self, tmp_path, capsys, edit):
        def rewrite(data):
            lines = data.split(b"\n")
            lines[2] = b",".join(edit(lines[2].split(b",")))
            return b"\n".join(lines)

        assert "diagnostics.csv: line 3" in self.check_edited(tmp_path, capsys, "diagnostics.csv", rewrite)

    def test_snapshot_header_without_n(self, tmp_path, capsys):
        rel = os.path.join("snapshots", "step_00000010.bin")
        detail = self.check_edited(tmp_path, capsys, rel, lambda data: data.replace(b" n=32", b"", 1))
        assert "step_00000010.bin: line 1" in detail

    def test_snapshot_header_non_ascii(self, tmp_path, capsys):
        rel = os.path.join("snapshots", "step_00000010.bin")
        detail = self.check_edited(tmp_path, capsys, rel, lambda data: data.replace(b" t=", b" \xe9t=", 1))
        assert "step_00000010.bin: line 1" in detail

    def test_snapshot_time_not_finite(self, tmp_path, capsys):
        # the middle snapshot of the residuals' window: a NaN time is not
        # step * dt, so the header check rejects it before the window's
        # spacing comparisons, which it would make all False
        rel = os.path.join("snapshots", "step_00000005.bin")
        detail = self.check_edited(tmp_path, capsys, rel, lambda data: re.sub(rb" t=\S+", b" t=nan", data, count=1))
        assert "step_00000005.bin: line 1: t=nan" in detail

    def test_snapshot_length_not_finite(self, tmp_path, capsys):
        rel = os.path.join("snapshots", "step_00000010.bin")
        detail = self.check_edited(tmp_path, capsys, rel, lambda data: re.sub(rb" L=\S+", b" L=inf", data, count=1))
        assert "step_00000010.bin: line 1" in detail and "finite, got inf" in detail


class TestUntrustedRunDir:
    """``check --run-dir`` on a run directory whose manifest is malformed or
    names another snapshot format exits 4 with a ChecksumMismatch."""

    @staticmethod
    def check_manifest(tmp_path, capsys, edit):
        run = str(tmp_path / "r")
        assert main(["run", "--config", write_cfg(tmp_path), "--out", run]) == 0
        path = os.path.join(run, "manifest.json")
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(edit(text))
        capsys.readouterr()
        assert main(["check", "--run-dir", run]) == 4
        err = capsys.readouterr().err
        assert err.startswith("TCM-ERROR ")
        payload = json.loads(err.split(" ", 1)[1])
        assert payload["error"] == "ChecksumMismatch" and "manifest.json" in payload["detail"]
        assert not os.path.exists(os.path.join(run, "check_summary.txt"))
        return payload["detail"]

    @staticmethod
    def edit_json(change):
        def edit(text):
            manifest = json.loads(text)
            change(manifest)
            return json.dumps(manifest)

        return edit

    def test_invalid_json(self, tmp_path, capsys):
        assert "not a JSON manifest" in self.check_manifest(tmp_path, capsys, lambda text: "{bad")

    def test_missing_files_key(self, tmp_path, capsys):
        detail = self.check_manifest(tmp_path, capsys, self.edit_json(lambda m: m.pop("files")))
        assert "no list of files" in detail

    @pytest.mark.parametrize("key", ["path", "sha256"])
    def test_entry_without_key(self, tmp_path, capsys, key):
        detail = self.check_manifest(tmp_path, capsys, self.edit_json(lambda m: m["files"][1].pop(key)))
        assert "files[1] needs a path and a sha256" in detail

    @pytest.mark.parametrize("where", ["absolute", "parent", "through_snapshots"])
    def test_entry_outside_run_dir(self, tmp_path, capsys, where):
        # a file beside the run directory, listed with its true checksum
        outside = tmp_path / "outside.txt"
        outside.write_bytes(b"not part of the run")
        path = {"absolute": str(outside), "parent": "../outside.txt",
                "through_snapshots": "snapshots/../../outside.txt"}[where]
        entry = {"path": path, "sha256": hashlib.sha256(outside.read_bytes()).hexdigest()}
        detail = self.check_manifest(tmp_path, capsys, self.edit_json(lambda m: m["files"].append(entry)))
        assert "lies outside the run directory" in detail

    def test_old_format_run_dir(self, tmp_path, capsys):
        # a run directory written as per-field TCM1 grid samples
        detail = self.check_manifest(tmp_path, capsys, self.edit_json(lambda m: m.update(format="TCM1")))
        assert "'TCM1'" in detail and "TCM3" in detail

    def test_tcm2_run_dir(self, tmp_path, capsys):
        # a run directory of the TCM2 format: each snapshot the whole half
        # plane of the five spectra, listed with its true checksum
        run = str(tmp_path / "r")
        assert main(["run", "--config", write_cfg(tmp_path), "--out", run]) == 0
        manifest_path = os.path.join(run, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        for entry in manifest["files"]:
            path = os.path.join(run, entry["path"])
            if entry["path"].startswith("snapshots"):
                with open(path, "rb") as fh:
                    header = fh.readline().replace(b"TCM3", b"TCM2", 1)
                data = header + np.stack(spectra(storage.read_field_snapshot(path))).astype("<c16").tobytes()
                with open(path, "wb") as fh:
                    fh.write(data)
                entry["sha256"] = hashlib.sha256(data).hexdigest()
        manifest["format"] = "TCM2"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        assert main(["check", "--run-dir", run]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("TCM-ERROR ")
        payload = json.loads(lines[0].split(" ", 1)[1])
        assert payload["error"] == "ChecksumMismatch"
        assert "'TCM2'" in payload["detail"] and "TCM3" in payload["detail"] and "rerun the config" in payload["detail"]


class TestCliSweepTwinGronwall:
    def test_sweep_single_level(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "sw")
        assert main(["sweep-eps", "--config", cfg, "--levels", "0.1", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "sweep.csv"))

    def test_sweep_csv_cells_are_plain_floats(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "sw")
        levels = (0.2, 0.1, 0.0)
        assert main(["sweep-eps", "--config", cfg, "--levels", ",".join(map(str, levels)), "--out", out]) == 0
        rep = t.epsilon_sweep(parse_config_file(cfg)[0], levels)
        rows = Path(out, "sweep.csv").read_text().splitlines()
        assert rows[0] == "eps,dist_velocity_l2h1,dist_theta_l2l2"
        want = zip(rep.eps_levels, rep.dist_velocity, rep.dist_theta)
        assert [[float(x) for x in row.split(",")] for row in rows[1:]] == [list(map(float, w)) for w in want]

    def test_sweep_bad_levels(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["sweep-eps", "--config", cfg, "--levels", "zero", "--out", str(tmp_path / "s")]) == 2

    def test_twin_zero_delta(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "tw")
        assert main(["twin", "--config", cfg, "--delta", "0", "--out", out]) == 0
        rows = Path(out, "twin.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_twin_negative_delta(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["twin", "--config", cfg, "--delta", "-1", "--out", str(tmp_path / "t")]) == 2

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_twin_non_finite_delta(self, tmp_path, capsys, delta):
        # refused before any step, not stopped at step 1 as a non-finite state
        cfg = write_cfg(tmp_path)
        assert main(["twin", "--config", cfg, "--delta", delta, "--out", str(tmp_path / "t")]) == 2
        payload = json.loads(capsys.readouterr().err.split(" ", 1)[1])
        assert payload["error"] == "BadParams" and "delta" in payload["detail"]

    def test_gronwall_constant_series(self, tmp_path, capsys):
        ts = np.linspace(0, 1, 21)
        ones = np.ones_like(ts)
        path = tmp_path / "g.csv"
        storage.write_gronwall_csv(path, ts, ones, ones, 0 * ones, ones)
        assert main(["gronwall", "--csv", str(path), "--k", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "hypothesis holds: True" in out
        assert "conclusion outcome: holds" in out

    def test_gronwall_fit_mode(self, tmp_path, capsys):
        ts = np.linspace(0, 1, 21)
        ones = np.ones_like(ts)
        path = tmp_path / "g.csv"
        storage.write_gronwall_csv(path, ts, ones, np.e * ones, 0 * ones, 0 * ones)
        assert main(["gronwall", "--csv", str(path), "--fit-k"]) == 0
        assert "fitted K" in capsys.readouterr().out

    def test_gronwall_non_ascii_row(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        path.write_bytes(b"time,A,B,alpha,beta\n0,1,1,0,0\n\xe90.5,1,1,0,0\n")
        assert main(["gronwall", "--csv", str(path), "--k", "1.0"]) == 2
        payload = json.loads(capsys.readouterr().err.split(" ", 1)[1])
        assert payload["error"] == "ConfigParseError"
        assert "g.csv: line 3" in payload["detail"]

    def test_gronwall_bad_series_exit(self, tmp_path, capsys):
        ts = np.linspace(0, 1, 5)
        path = tmp_path / "g.csv"
        storage.write_gronwall_csv(path, ts, 0.5 * np.ones_like(ts), np.ones_like(ts), 0 * ts, 0 * ts)
        assert main(["gronwall", "--csv", str(path), "--k", "1.0"]) == 2

    def test_gronwall_two_samples(self, tmp_path, capsys):
        # two samples have no second-order stencil for A'
        path = tmp_path / "g.csv"
        path.write_bytes(b"time,A,B,alpha,beta\n0,1,1,0,0\n0.5,1,1,0,0\n")
        assert main(["gronwall", "--csv", str(path), "--k", "1.0"]) in (0, 5)
        assert "Traceback" not in capsys.readouterr().err

    def test_check_two_records(self, tmp_path, capsys):
        # horizon = dt: the series holds two records
        text = MINIMAL_CFG.replace("horizon = 0.05", "horizon = 0.005")
        code = main(["check", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "c")])
        assert code in (0, 5)
        assert "Traceback" not in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["frobnicate"]) == 2


def guard_cfg(preset="taylor_green", dealias="true", steps=2, diag_stride=1, snap_stride=1, edit=()):
    text = f"""
[grid]
n = 16

[time]
dt = 0.002
horizon = {steps * 0.002!r}

[model]
eps = 0.0
dealias = {dealias}

[init]
preset = {preset}

[output]
diag_stride = {diag_stride}
snap_stride = {snap_stride}
"""
    for old, new in edit:
        assert old in text
        text = text.replace(old, new)
    return text


def command_argv(command, cfg, out):
    """The argument list of run, check --config, sweep-eps or twin on cfg,
    writing into out."""
    return {"run": ["run", "--config", cfg, "--out", out], "check": ["check", "--config", cfg, "--out", out],
            "sweep-eps": ["sweep-eps", "--config", cfg, "--levels", "0.1,0", "--out", out],
            "twin": ["twin", "--config", cfg, "--out", out]}[command]


def run_cli(capsys, argv):
    """(exit code, stdout, error name or None) of one in-process command; a
    non-zero exit must print exactly one TCM-ERROR line, which names the
    error."""
    code = main(argv)
    out, err = capsys.readouterr()
    lines = [line for line in err.splitlines() if line.startswith("TCM-ERROR ")]
    assert code in (0, 2, 3, 4, 5), (argv, code, err)
    assert len(lines) == (code != 0), (argv, err)
    error = json.loads(lines[0].split(" ", 1)[1])["error"] if lines else None
    return code, out, error


class TestGuardMatrix:
    """Every command on legitimate edge inputs at n = 16 exits with a
    documented code, one TCM-ERROR line per failure, and check passes."""

    @pytest.mark.parametrize("strides", [(1, 1), (50, 1), (1, 50)], ids=lambda s: f"strides{s[0]}-{s[1]}")
    @pytest.mark.parametrize("steps", [0, 1, 2])
    @pytest.mark.parametrize("dealias", ["true", "false"])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_commands(self, tmp_path, capsys, preset, dealias, steps, strides):
        cfg = write_cfg(tmp_path, guard_cfg(preset, dealias, steps, *strides))
        run, chk = str(tmp_path / "run"), str(tmp_path / "chk")
        records = 1 + steps // strides[0]
        later = [["sweep-eps", "--config", cfg, "--levels", "0.1,0", "--out", str(tmp_path / "sw")]]
        later += [["twin", "--config", cfg, "--shape", shape, "--out", str(tmp_path / "tw")] for shape in PERTURBATION_SHAPES]
        if dealias == "false":
            # products are always two-thirds dealiased; the key stays so that
            # every earlier config parses, and every command refuses false
            # before it writes anything
            for argv in (["run", "--config", cfg, "--out", run], ["check", "--config", cfg, "--out", chk], *later):
                assert main(argv) == 2
                lines = capsys.readouterr().err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("TCM-ERROR "), (argv, lines)
                error = json.loads(lines[0].split(" ", 1)[1])
                assert error["error"] == "ConfigParseError" and "always two-thirds dealiased" in error["detail"], argv
            assert os.listdir(tmp_path) == ["run.cfg"]
            return
        assert run_cli(capsys, ["run", "--config", cfg, "--out", run])[0] == 0
        for argv in (["check", "--run-dir", run], ["check", "--config", cfg, "--out", chk]):
            code, out, _ = run_cli(capsys, argv)
            assert code == 0, out
            assert ("INFO gronwall_envelope value=nan (need >= 2 records)" in out) == (records < 2)
        for argv in later:
            run_cli(capsys, argv)

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize(
        "edit",
        [
            (("preset = taylor_green", "preset = random_band\nband_hi = 9"),),
            # past 16 // 3 = 5, the largest |k| the two-thirds mask keeps
            (("preset = taylor_green", "preset = random_band\nband_hi = 6"),),
            (("preset = taylor_green", "preset = single_mode\nmode_x = 6"),),
            (("horizon = 0.004", "horizon = 0.021"),),
            (("n = 16", "n = 15"),),
            (("preset = taylor_green", "preset = random_band\nseed = -1"),),
            (("dealias = true", "dealias = true\ncfl_max = -1"),),
            # so small that the grid's wavenumbers overflow
            (("n = 16", "n = 16\nlength = 1e-200"),),
            (("n = 16", "n = 16\nlength = 1e-320"),),
        ],
        ids=["band", "band_past_mask", "mode_past_mask", "horizon", "grid", "seed", "cfl_max", "length_1e-200",
             "length_1e-320"],
    )
    def test_config_that_cannot_run_keeps_previous_run(self, tmp_path, capsys, command, edit):
        out = str(tmp_path / "o")
        assert run_cli(capsys, ["run", "--config", write_cfg(tmp_path, guard_cfg()), "--out", out])[0] == 0
        bad = write_cfg(tmp_path, guard_cfg(edit=edit), "bad.cfg")
        assert run_cli(capsys, [command, "--config", bad, "--out", out])[::2] == (2, "ConfigParseError")
        assert run_cli(capsys, ["check", "--run-dir", out])[0] == 0

    @pytest.mark.parametrize("command", ["run", "check", "sweep-eps", "twin"])
    def test_huge_finite_amplitude_stops_at_the_cfl_guard(self, tmp_path, capsys, command):
        # a finite initial state whose velocity squares overflow: step 1's
        # guard runs on it before anything is recorded or measured, and
        # stops every command with a finite ratio and no numpy warning
        cfg = write_cfg(tmp_path, guard_cfg(edit=(("preset = taylor_green", "preset = taylor_green\namplitude = 1e200"),)))
        assert main(command_argv(command, cfg, str(tmp_path / "o"))) == 3
        [line] = capsys.readouterr().err.splitlines()
        payload = json.loads(line.split(" ", 1)[1])
        assert payload["error"] == "CflViolation" and payload["step"] == 1 and payload["t"] == 0.0
        assert 0.5 == payload["limit"] < payload["ratio"] < float("inf")

    @pytest.mark.parametrize("command", ["run", "check", "sweep-eps", "twin"])
    @pytest.mark.parametrize("init", ["single_mode\namplitude = 1e200", "random_band\ntheta_amp = 1e200"],
                             ids=["single_mode", "random_band"])
    def test_huge_finite_theta_stops_at_the_guard(self, tmp_path, capsys, command, init):
        # theta within the CFL bound but past FIELD_MAX, where a record's
        # fourth powers overflow: step 1's guard stops every command before
        # anything is recorded or measured, with no numpy warning
        cfg = write_cfg(tmp_path, guard_cfg(edit=(("preset = taylor_green", f"preset = {init}"),)))
        out = tmp_path / "o"
        assert main(command_argv(command, cfg, str(out))) == 2
        [line] = capsys.readouterr().err.splitlines()
        payload = json.loads(line.split(" ", 1)[1])
        assert payload["error"] == "BadParams" and "sup norm of theta at t = 0.0" in payload["detail"]
        assert "FIELD_MAX = 1e+30" in payload["detail"]
        for csv in out.rglob("diagnostics.csv"):
            assert csv.read_text().splitlines() == [",".join(t.COLUMNS)]

    @pytest.mark.parametrize("command", ["run", "check", "sweep-eps", "twin"])
    def test_grid_past_the_cap_writes_nothing(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, guard_cfg(edit=(("n = 16", f"n = {N_MAX + 2}"),)))
        assert run_cli(capsys, command_argv(command, cfg, str(tmp_path / "o")))[::2] == (2, "ConfigParseError")
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("command", ["run", "check", "sweep-eps", "twin"])
    @pytest.mark.parametrize(
        "edit",
        [
            # past LENGTH_MAX a record's L2 norms and scales overflow: at the
            # parent 1e300 raised OverflowError (exit 1) and 1e155 named the
            # finite config a non-finite state
            (("n = 16", "n = 16\nlength = 1.0000001e30"),),
            (("n = 16", "n = 16\nlength = 1e155"),),
            (("n = 16", "n = 16\nlength = 1e300"),),
            # 16 (pi n / L)^6 past WEIGHT_MAX: a record's |k|^6 sums overflow
            (("n = 16", "n = 16\nlength = 1e-40"),),
            # records closer than the Gronwall check differentiates: at the
            # parent check printed 26 warnings and failed a sound run
            (("dt = 0.002", "dt = 1e-300"), ("horizon = 0.004", "horizon = 3e-300")),
            (("dt = 0.002", "dt = 1e-151"), ("horizon = 0.004", "horizon = 3e-151")),
            # more steps than a float time counts: at the parent an OverflowError
            (("dt = 0.002", "dt = 1e-100"), ("horizon = 0.004", "horizon = 1e300")),
        ],
        ids=["length_1.0000001e30", "length_1e155", "length_1e300", "length_1e-40", "dt_1e-300", "dt_1e-151",
             "steps_overflow"],
    )
    def test_config_past_a_rule_writes_nothing(self, tmp_path, capsys, command, edit):
        cfg = write_cfg(tmp_path, guard_cfg(edit=edit))
        assert run_cli(capsys, command_argv(command, cfg, str(tmp_path / "o")))[::2] == (2, "ConfigParseError")
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("command", ["run", "check", "sweep-eps", "twin"])
    @pytest.mark.parametrize(
        "edit",
        [(("n = 16", f"n = 16\nlength = {LENGTH_MAX!r}"),),
         (("dt = 0.002", f"dt = {2.0 * MIN_SPACING!r}"), ("horizon = 0.004", f"horizon = {6.0 * MIN_SPACING!r}"))],
        ids=["length_max", "dt_min"],
    )
    def test_config_at_a_rule_bound_runs(self, tmp_path, capsys, command, edit):
        cfg = write_cfg(tmp_path, guard_cfg(edit=edit))
        assert run_cli(capsys, command_argv(command, cfg, str(tmp_path / "o")))[0] == 0

    @pytest.mark.parametrize("command", ["run", "check", "sweep-eps", "twin"])
    @pytest.mark.parametrize("init, field", [("taylor_green\namplitude = 1e308", "u"),
                                             ("single_mode\namplitude = 1e308", "theta"),
                                             ("random_band\nu_amp = 1e307\nv_amp = 1e307\ntheta_amp = 1e307", "u")],
                             ids=["taylor_green", "single_mode", "random_band"])
    def test_initial_data_that_overflow(self, tmp_path, capsys, command, init, field):
        # the initial coefficients or grid samples overflow: make_initial
        # says so once, before any step, and no numpy warning is printed
        cfg = write_cfg(tmp_path, guard_cfg(edit=(("preset = taylor_green", f"preset = {init}"),)))
        assert main(command_argv(command, cfg, str(tmp_path / "o"))) == 2
        [line] = capsys.readouterr().err.splitlines()
        payload = json.loads(line.split(" ", 1)[1])
        assert payload["error"] == "BadParams" and f"the initial {field} of preset" in payload["detail"]

    @pytest.mark.parametrize("shape, field", [("mode", "u"), ("theta", "theta"), ("band", "u")])
    def test_twin_delta_that_overflows(self, tmp_path, capsys, shape, field):
        # the perturbed initial data pass the float range: the twin says so
        # once, before any step, as make_initial does for a preset's data;
        # at the parent it printed 12 numpy warnings and named u non-finite
        cfg = write_cfg(tmp_path, guard_cfg())
        argv = ["twin", "--config", cfg, "--delta", "1e308", "--shape", shape, "--out", str(tmp_path / "tw")]
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        payload = json.loads(line.split(" ", 1)[1])
        assert payload["error"] == "BadParams" and f"the perturbed initial {field} of the twin" in payload["detail"]

    def test_twin_huge_finite_delta_stops_at_the_cfl_guard(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, guard_cfg())
        assert main(["twin", "--config", cfg, "--delta", "1e200", "--out", str(tmp_path / "tw")]) == 3
        [line] = capsys.readouterr().err.splitlines()
        payload = json.loads(line.split(" ", 1)[1])
        assert payload["error"] == "CflViolation" and payload["step"] == 1 and payload["t"] == 0.0

    def test_gronwall_series_whose_a_prime_overflows(self, tmp_path, capsys):
        # at the parent: two numpy warnings, "hypothesis holds: True (min
        # margin -inf)", and exit 5 on a conclusion called violated
        ts = np.arange(5.0)
        path = tmp_path / "g.csv"
        storage.write_gronwall_csv(path, ts, np.array([1.0, 1e308, 1.0, 1e308, 1.0]), np.ones_like(ts), 0 * ts,
                                   np.full_like(ts, 10.0))
        code, out, _ = run_cli(capsys, ["gronwall", "--csv", str(path), "--k", "1"])
        assert code == 0
        assert out.splitlines()[:2] == ["hypothesis holds: False (min margin -inf)", "conclusion outcome: not-applicable"]

    def test_gronwall_series_too_close_to_differentiate(self, tmp_path, capsys):
        ts = np.arange(5) * 1e-300
        path = tmp_path / "g.csv"
        storage.write_gronwall_csv(path, ts, np.ones_like(ts), np.ones_like(ts), 0 * ts, np.ones_like(ts))
        code, _, error = run_cli(capsys, ["gronwall", "--csv", str(path), "--k", "1"])
        assert (code, error) == (2, "BadSeries")

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, guard_cfg(edit=(("preset = taylor_green", "preset = random_band"),)))
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "o"), "--seed-override", "-1"]
        assert run_cli(capsys, argv)[::2] == (2, "BadParams")

    def test_twin_band_beyond_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, guard_cfg(edit=(("[output]", "band_hi = 20\n\n[output]"),)))
        argv = ["twin", "--config", cfg, "--shape", "band", "--out", str(tmp_path / "tw")]
        assert run_cli(capsys, argv)[::2] == (2, "BadParams")

    @pytest.mark.parametrize(
        "argv",
        [[], ["run"], ["twin", "--config", "x.cfg", "--delta", "abc"], ["check", "--tol", "1"],
         ["gronwall", "--csv", "g.csv", "--fit-k", "--k", "5"], ["gronwall", "--csv", "g.csv"]],
    )
    def test_usage_error(self, capsys, argv):
        assert run_cli(capsys, argv)[::2] == (2, "ConfigParseError")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_not_finite_and_nonnegative(self, tmp_path, capsys, tol):
        # an infinite tol would pass every margin and envelope sample, and a
        # NaN or negative one fail every margin; it is refused before a run
        # is made or read, so also for a run of one record, which makes no
        # Gronwall check, and for files that do not exist
        path = tmp_path / "g.csv"
        ts = np.linspace(0, 1, 5)
        storage.write_gronwall_csv(path, ts, np.ones_like(ts), np.ones_like(ts), 0 * ts, np.ones_like(ts))
        cfg = write_cfg(tmp_path, guard_cfg())
        zero = write_cfg(tmp_path, guard_cfg(steps=0), "zero.cfg")
        for argv in (["check", "--config", cfg, "--out", str(tmp_path / "c"), "--tol", tol],
                     ["check", "--config", zero, "--out", str(tmp_path / "z"), "--tol", tol],
                     ["check", "--run-dir", str(tmp_path / "none"), "--tol", tol],
                     ["gronwall", "--csv", str(path), "--k", "1", "--tol", tol],
                     ["gronwall", "--csv", str(tmp_path / "none.csv"), "--fit-k", "--tol", tol]):
            code = main(argv)
            lines = capsys.readouterr().err.splitlines()
            assert code == 2 and len(lines) == 1, (argv, lines)
            error = json.loads(lines[0].split(" ", 1)[1])
            assert error == {"error": "BadParams", "detail": f"tol must be finite and nonnegative, got {float(tol)}"}
        assert sorted(os.listdir(tmp_path)) == ["g.csv", "run.cfg", "zero.cfg"]

    @pytest.mark.parametrize(
        "column, k", [(3, "1"), (1, "1"), (None, "inf")], ids=["alpha_inf", "A_inf", "k_inf"]
    )
    def test_gronwall_non_finite_series(self, tmp_path, capsys, column, k):
        # an infinite alpha would make the envelope infinite, an infinite A
        # the hypothesis fail, and an infinite K make Q(0) = inf * 0
        ts = np.linspace(0, 1, 5)
        cols = [ts, np.ones_like(ts), np.ones_like(ts), 0 * ts, np.ones_like(ts)]
        if column is not None:
            cols[column] = np.where(ts == 0.5, np.inf, cols[column])
        path = tmp_path / "g.csv"
        storage.write_gronwall_csv(path, *cols)
        assert run_cli(capsys, ["gronwall", "--csv", str(path), "--k", k])[::2] == (2, "BadSeries")

    @pytest.mark.parametrize("argv", [["-h"], ["--version"], ["run", "-h"]])
    def test_help_and_version(self, capsys, argv):
        assert run_cli(capsys, argv)[0] == 0


# Values a mutated header key or diagnostics cell takes: non-finite,
# negative, zero, subnormal, huge, empty and non-numeric.
MUTATED_VALUES = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-320", "1e308", "", "x", "3"])
OVERFLOW_COLUMNS = ("mean_theta", "theta_linf", "uv_linf", "grad_u_linf", "lap_w_l2", "a_func", "b_func", "grad_u_l2",
                    "dissipation")
RUN_DIR_EDITS = st.lists(
    st.one_of(
        # (snapshot index, header key, new value or None to drop the key)
        st.tuples(st.just("header"), st.integers(0, 4), st.sampled_from(["TCM3", "n", "L", "t", "eps", "fields"]),
                  st.one_of(st.none(), MUTATED_VALUES)),
        # (data row, column, new cell)
        st.tuples(st.just("cell"), st.integers(1, 5), st.integers(0, len(t.COLUMNS) - 1), MUTATED_VALUES),
        # a cell of a column that the Gronwall functionals square or sum, or
        # that a gated check subtracts, made infinite or huge
        st.tuples(st.just("cell"), st.integers(1, 5), st.sampled_from([t.COLUMNS.index(c) for c in OVERFLOW_COLUMNS]),
                  st.sampled_from(["inf", "1e308"])),
        # (what to change in the manifest, which entry)
        st.tuples(st.just("manifest"), st.sampled_from(["drop", "path", "sha256", "format", "extra"]),
                  st.integers(0, 7)),
        # a diagnostics row dropped, a row's energy scaled up to 1e308, a
        # snapshot removed from the directory and the manifest
        st.tuples(st.sampled_from(["drop_row", "huge_energy", "drop_snapshot"]), st.integers(0, 4)),
    ),
    min_size=1,
    max_size=3,
)


def _edit_header(data: bytes, key: str, value) -> bytes:
    # the key's token replaced or dropped; a key an earlier edit dropped is
    # appended again
    header, rest = data.split(b"\n", 1)
    tokens = header.split(b" ")
    new = [] if value is None else [value.encode() if key == "TCM3" else key.encode() + b"=" + value.encode()]
    found = [j for j, tok in enumerate(tokens) if tok.startswith(key.encode() + b"=")]
    i = 0 if key == "TCM3" else found[0] if found else len(tokens)
    tokens[i : i + 1] = new
    return b" ".join(tokens) + b"\n" + rest


def _mutate_run_dir(run: str, edits) -> None:
    """Apply the header, cell and row edits, drop the snapshots to drop,
    list every remaining file's new checksum, then apply the manifest edits."""
    snapshots = os.path.join(run, storage.SNAPSHOT_DIR)
    diagnostics = os.path.join(run, "diagnostics.csv")
    for kind, *args in edits:
        if kind == "header":
            index, key, value = args
            path = os.path.join(snapshots, f"step_{index:08d}.bin")
            with open(path, "rb") as fh:
                data = _edit_header(fh.read(), key, value)
            with open(path, "wb") as fh:
                fh.write(data)
        elif kind in ("cell", "drop_row", "huge_energy"):
            with open(diagnostics) as fh:
                lines = fh.read().split("\n")
            if kind == "cell":
                row, column, value = args
            else:  # a data row, if any is left
                row, column, value = 1 + args[0] % max(len(lines) - 2, 1), t.COLUMNS.index("energy"), "1e308"
            if kind == "drop_row":
                del lines[row]
            elif row < len(lines) - 1:  # a row that no edit dropped
                cells = lines[row].split(",")
                cells[column] = value
                lines[row] = ",".join(cells)
            with open(diagnostics, "w") as fh:
                fh.write("\n".join(lines))
    for kind, *args in edits:
        if kind == "drop_snapshot":
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(snapshots, f"step_{args[0]:08d}.bin"))
    manifest_path = os.path.join(run, storage.MANIFEST_NAME)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    files = manifest["files"]
    files[:] = [entry for entry in files if os.path.exists(os.path.join(run, entry["path"]))]
    for entry in files:
        with open(os.path.join(run, entry["path"]), "rb") as fh:
            entry["sha256"] = hashlib.sha256(fh.read()).hexdigest()
    for kind, *args in edits:
        if kind != "manifest":
            continue
        change, i = args
        if change == "drop" and files:
            del files[i % len(files)]
        elif change == "path" and files:
            files[i % len(files)]["path"] = ["snapshots/step_00000099.bin", 7, "/nonexistent", "../x"][i % 4]
        elif change == "sha256" and files:
            files[i % len(files)]["sha256"] = "0" * 64
        elif change == "format":
            manifest["format"] = "TCM1"
        elif change == "extra" and os.path.exists(source := os.path.join(snapshots, f"step_{i % 5:08d}.bin")):
            # another step's snapshot, one no edit dropped, listed with its true checksum
            with open(source, "rb") as fh:
                data = fh.read()
            with open(os.path.join(snapshots, "step_00000009.bin"), "wb") as fh:
                fh.write(data)
            files.append({"path": "snapshots/step_00000009.bin", "sha256": hashlib.sha256(data).hexdigest()})
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)


@pytest.fixture(scope="module")
def mutation_base(tmp_path_factory):
    """A regularized n = 16 run of four steps, a record and a snapshot each."""
    base = tmp_path_factory.mktemp("mutation_base")
    edit = (("preset = taylor_green", "preset = random_band"), ("eps = 0.0", "eps = 0.1"))
    cfg = write_cfg(base, guard_cfg(steps=4, edit=edit))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", cfg, "--out", str(base / "run")]) == 0
    return str(base / "run")


class TestMutatedRunDir:
    """``check --run-dir`` on a run directory whose snapshot headers,
    diagnostics cells and manifest entries are edited, with the edited files'
    checksums listed, exits with a documented code and one TCM-ERROR line
    per failure, and prints no traceback."""

    @staticmethod
    def check(run):
        """(exit code, stderr lines) of ``check --run-dir run``."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["check", "--run-dir", run])
        return code, err.getvalue().splitlines()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(edits=RUN_DIR_EDITS)
    def test_check_exits_with_a_documented_code(self, mutation_base, edits):
        with tempfile.TemporaryDirectory() as tmp:
            run = os.path.join(tmp, "run")
            shutil.copytree(mutation_base, run)
            _mutate_run_dir(run, edits)
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["check", "--run-dir", run])
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3, 4, 5), (edits, code, lines)
        assert len(lines) == (code != 0) and all(line.startswith("TCM-ERROR ") for line in lines), (edits, lines)
        assert "Traceback" not in out.getvalue(), edits
        kinds = {kind for kind, *_ in edits}
        if kinds & {"drop_row", "huge_energy", "drop_snapshot"}:
            # the directory no longer holds what its config.cfg makes; only a
            # manifest that fails its own check stops check earlier
            assert code == 2 or (code == 4 and "manifest" in kinds), (edits, code, lines)

    @pytest.mark.parametrize("edit, file", [(("huge_energy", 0), "diagnostics.csv"),
                                            (("drop_row", 4), "diagnostics.csv"),
                                            (("drop_snapshot", 4), "manifest.json")],
                             ids=["first_energy_1e308", "last_row_dropped", "final_snapshot_dropped"])
    def test_run_dir_that_disagrees_with_config(self, mutation_base, tmp_path, edit, file):
        # each a directory whose files agree with the manifest, but not with
        # the run that config.cfg makes
        run = str(tmp_path / "run")
        shutil.copytree(mutation_base, run)
        _mutate_run_dir(run, [edit])
        code, lines = self.check(run)
        assert code == 2 and len(lines) == 1 and lines[0].startswith("TCM-ERROR "), lines
        error = json.loads(lines[0].split(" ", 1)[1])
        assert error["error"] == "ConfigParseError" and os.path.join(run, file) in error["detail"], error

    @pytest.mark.parametrize("index, key, value", [(4, "eps", "0.3"), (2, "L", "3"), (3, "t", "0.0061"), (4, "n", None)])
    def test_header_that_disagrees_with_config(self, mutation_base, tmp_path, index, key, value):
        # a header that parses, of a snapshot that check reads (the window
        # is steps 1-3, the last step 4), but does not describe the run
        run = str(tmp_path / "run")
        shutil.copytree(mutation_base, run)
        edits = [("header", index, key, value)]
        if key == "n":
            # a whole n = 8 snapshot in its place, so its payload fits its header
            zero = t.SpectralField.zeros(t.Grid(8))
            state = t.State.from_fields(t.VectorField(zero, zero), t.VectorField(zero, zero), zero, 0.008, 0.1)
            storage.write_state_snapshot(os.path.join(run, storage.SNAPSHOT_DIR), state, index)
            edits = []
        _mutate_run_dir(run, edits)
        code, lines = self.check(run)
        assert code == 2 and len(lines) == 1 and lines[0].startswith("TCM-ERROR "), lines
        error = json.loads(lines[0].split(" ", 1)[1])
        assert error["error"] == "ConfigParseError"
        assert f"step_{index:08d}.bin: line 1: {key}=" in error["detail"], error

    @pytest.mark.parametrize("index", [2, 4])
    @pytest.mark.parametrize("field", [0, 4], ids=storage.FIELD_NAMES[::4])
    def test_snapshot_that_is_not_finite(self, mutation_base, tmp_path, index, field):
        # one NaN coefficient in a snapshot that check reads, the window's
        # middle (step 2) or the last (step 4), rewritten through the
        # package and listed with its checksum: a run never writes one, so
        # check refuses it instead of reporting NaN residuals
        run = str(tmp_path / "run")
        shutil.copytree(mutation_base, run)
        snap_dir = os.path.join(run, storage.SNAPSHOT_DIR)
        s = storage.read_state_snapshot(snap_dir, index)
        spec = s.spec.copy()
        spec[field, 1, 1] = np.nan
        storage.write_state_snapshot(snap_dir, t.State(s.grid, spec, s.t, s.eps), index)
        _mutate_run_dir(run, [])
        code, lines = self.check(run)
        assert code == 2 and len(lines) == 1 and lines[0].startswith("TCM-ERROR "), lines
        error = json.loads(lines[0].split(" ", 1)[1])
        assert error["error"] == "ConfigParseError"
        assert f"step_{index:08d}.bin: {storage.FIELD_NAMES[field]} is not finite" in error["detail"], error

    @pytest.mark.parametrize("index", [2, 4])
    def test_header_length_whose_grid_overflows(self, mutation_base, tmp_path, index):
        # L = 1e-320 parses as a float, but no grid of it has finite
        # wavenumbers: refused in a snapshot that check reads (steps 1-4),
        # before any grid is built
        run = str(tmp_path / "run")
        shutil.copytree(mutation_base, run)
        _mutate_run_dir(run, [("header", index, "L", "1e-320")])
        code, lines = self.check(run)
        assert code == 2 and len(lines) == 1 and lines[0].startswith("TCM-ERROR "), lines
        error = json.loads(lines[0].split(" ", 1)[1])
        assert error["error"] == "ConfigParseError"
        assert f"step_{index:08d}.bin: line 1: bad TCM3 header" in error["detail"] and "1e-320" in error["detail"]

    @pytest.mark.parametrize(
        "column, value, code, error, detail",
        [
            ("mean_theta", "inf", 2, "ConfigParseError", "data row 1: mean_theta=inf"),
            ("theta_linf", "inf", 2, "ConfigParseError", "data row 1: theta_linf=inf"),
            ("uv_linf", "1e308", 2, "BadSeries", "alpha not finite"),
            ("lap_w_l2", "1e308", 2, "ConfigParseError", "data row 1: a_func="),
            ("grad_u_linf", "1e308", 0, None, None),
            ("b_func", "1e308", 2, "ConfigParseError", "data row 1: b_func=1e+308"),
            ("a_func", "1e308", 2, "ConfigParseError", "data row 1: a_func=1e+308"),
            ("grad_u_l2", "1e308", 2, "ConfigParseError", "data row 1: dissipation="),
            ("dissipation", "1e308", 2, "ConfigParseError", "data row 1: dissipation=1e+308"),
            ("u_l2", "1e308", 2, "ConfigParseError", "data row 1: energy="),
        ],
    )
    def test_first_row_cell_that_overflows(self, mutation_base, tmp_path, column, value, code, error, detail):
        # one edited first-row cell, checksums re-listed: an infinite cell, or
        # an energy, dissipation, A or B that its norms do not make, is
        # refused; a huge alpha or beta fails the Gronwall series' finiteness
        # check; a huge grad_u_linf only loosens the envelope. No numpy
        # warning reaches stderr (pytest makes a RuntimeWarning an error).
        run = str(tmp_path / "run")
        shutil.copytree(mutation_base, run)
        _mutate_run_dir(run, [("cell", 1, t.COLUMNS.index(column), value)])
        got, lines = self.check(run)
        assert got == code and len(lines) == (code != 0), lines
        if error:
            payload = json.loads(lines[0].split(" ", 1)[1])
            assert payload["error"] == error and detail in payload["detail"], payload

    @pytest.mark.parametrize("column", ["grad_u_l2", "dissipation"])
    def test_second_row_dissipation_off_its_norms(self, mutation_base, tmp_path, column):
        # the first row past t = 0, whose dissipation the energy identity
        # integrates
        run = str(tmp_path / "run")
        shutil.copytree(mutation_base, run)
        _mutate_run_dir(run, [("cell", 2, t.COLUMNS.index(column), "1e308")])
        code, lines = self.check(run)
        assert code == 2 and len(lines) == 1, lines
        payload = json.loads(lines[0].split(" ", 1)[1])
        assert payload["error"] == "ConfigParseError" and "data row 2: dissipation=" in payload["detail"], payload


# Valid configs at n = 16 (whose run may still stop at the CFL guard): every
# preset, eps across [0, 1/2), amplitudes from zero up, bands and modes up to
# n // 3 = 5, and strides that do and do not divide the steps.
_EXTENT = st.integers(1, 5)
RUN_CONFIGS = st.builds(
    lambda preset, eps, amps, band, mode, seed, dt, steps, strides: t.SimConfig(
        n=16, dt=dt, horizon=steps * dt, eps=eps, preset=preset, amplitude=amps[0], u_amp=amps[1], v_amp=amps[2],
        theta_amp=amps[3], band_lo=min(band), band_hi=max(band), mode_x=mode[0], mode_y=mode[1], seed=seed,
        diag_stride=strides[0], snap_stride=strides[1]),
    preset=st.sampled_from(PRESETS),
    eps=st.one_of(st.just(0.0), st.floats(0.0, 0.49)),
    amps=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 4.0)) for _ in range(4)]),
    band=st.tuples(_EXTENT, _EXTENT),
    mode=st.sampled_from([(x, y) for x in range(-5, 6) for y in range(-5, 6) if (x, y) != (0, 0)]),
    seed=st.integers(0, 2**31),
    dt=st.sampled_from([0.002, 0.01, 0.1]),
    steps=st.integers(0, 8),
    strides=st.tuples(st.integers(1, 4), st.integers(1, 4)),
)


def run_then_check(cfg: t.SimConfig, tmp: str):
    """(run's exit code, check --run-dir's exit code, stderr lines, run
    directory) of one config, both commands in process."""
    path = os.path.join(tmp, "run.cfg")
    with open(path, "w") as fh:
        fh.write(render_config(cfg))
    run = os.path.join(tmp, "run")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code_run = main(["run", "--config", path, "--out", run])
        code_check = main(["check", "--run-dir", run])
    return code_run, code_check, err.getvalue().splitlines(), run


class TestRandomConfigs:
    """``run`` and then ``check --run-dir`` on valid configs exit with a
    documented code and one TCM-ERROR line per failure, and every snapshot
    written reads back as the state a rerun makes."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=RUN_CONFIGS)
    def test_run_then_check(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            code_run, code_check, lines, run = run_then_check(cfg, tmp)
            assert code_run in (0, 3), (cfg, lines)
            # a run stopped by its guard leaves no manifest
            assert code_check in (0, 5) if code_run == 0 else code_check == 4, (cfg, code_check, lines)
            assert len(lines) == (code_run != 0) + (code_check != 0), (cfg, lines)
            assert all(line.startswith("TCM-ERROR ") for line in lines), (cfg, lines)
            states = {}
            with contextlib.suppress(CflViolation):
                t.simulate(cfg, on_snapshot=states.__setitem__, record=False)
            snap_dir = os.path.join(run, storage.SNAPSHOT_DIR)
            assert sorted(os.listdir(snap_dir)) == [f"step_{step:08d}.bin" for step in sorted(states)], cfg
            for step, state in states.items():
                back = storage.read_state_snapshot(snap_dir, step)
                assert same_spectra(back, state) and (back.t, back.eps) == (state.t, state.eps), (cfg, step)


# Edge values of every rule at n = 16, 32 and 98 (where fftfreq(n, 1 / n) is
# one ulp off an integer), steps <= 3: amplitudes up to 1e308, lengths near
# both bounds of the grid rule, dt down to its bound and strides up to
# num_steps + 1. The smallest length at n makes 16 (pi n / L)^6 equal
# WEIGHT_MAX; a little above it the grid builds.
_DT_MIN = 2.0 * MIN_SPACING


def _length_min(n):
    return math.pi * n * (16.0 / WEIGHT_MAX) ** (1.0 / 6.0) * 1.001


@st.composite
def edge_configs(draw):
    n = draw(st.sampled_from([16, 32, 98]))
    steps = draw(st.integers(0, 3))
    dt = draw(st.one_of(st.just(_DT_MIN), st.floats(_DT_MIN, 1e3 * _DT_MIN), st.sampled_from([0.002, 0.1])))
    amp = st.one_of(st.sampled_from([0.0, 1.0, 1e30, 1e200, 1e306, 1e307, 1e308]), st.floats(0.0, 1e308))
    lo = _length_min(n)
    length = st.one_of(st.just(lo), st.floats(lo, 1e3 * lo), st.just(LENGTH_MAX),
                       st.floats(1e-3 * LENGTH_MAX, LENGTH_MAX), st.just(2.0 * math.pi))
    return t.SimConfig(
        n=n, dt=dt, horizon=steps * dt, length=draw(length), eps=draw(st.sampled_from([0.0, 0.1, 0.49])),
        preset=draw(st.sampled_from(PRESETS)), amplitude=draw(amp), u_amp=draw(amp), v_amp=draw(amp),
        theta_amp=draw(amp), seed=draw(st.integers(0, 2**31)),
        diag_stride=draw(st.integers(1, steps + 1)), snap_stride=draw(st.integers(1, steps + 1)))


class TestEdgeConfigs:
    """run, check --config, sweep-eps and twin on configs at the edges of
    every rule end with a documented exit code, at most one TCM-ERROR line
    and nothing else on stderr: no warning and no traceback."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=edge_configs())
    def test_commands(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edge.cfg")
            with open(path, "w") as fh:
                fh.write(render_config(cfg))
            for command in ("run", "check", "sweep-eps", "twin"):
                with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err,
                      warnings.catch_warnings(record=True) as caught):
                    warnings.simplefilter("always")
                    code = main(command_argv(command, path, os.path.join(tmp, command)))
                lines = err.getvalue().splitlines()
                assert code in (0, 2, 3, 5), (cfg, command, code, lines)
                assert [str(w.message) for w in caught] == [], (cfg, command)
                assert len(lines) == (code != 0) and all(line.startswith("TCM-ERROR ") for line in lines), (cfg, command, lines)
