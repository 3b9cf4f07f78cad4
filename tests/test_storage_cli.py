import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tcm2d as t
from tcm2d import cli, storage
from tcm2d.cli import main
from tcm2d.config import parse_config_file, parse_config_text, render_config
from tcm2d.diagnostics import PERTURBATION_SHAPES
from tcm2d.errors import CflViolation, ChecksumMismatch, ConfigParseError, NonFiniteState, TcmError
from tcm2d.model import PRESETS

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
        path = storage.write_state_snapshot(tmp_path / "snaps", s, 7)
        assert os.listdir(tmp_path / "snaps") == ["step_00000007.bin"] == [os.path.basename(path)]
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
        assert header == b"TCM2 n=16 L=6.283185307179586 t=1.5 eps=0.1 fields=u_x,u_y,v_x,v_y,theta\n"
        # the documented layout, read without the package
        spec = np.frombuffer(raw, dtype="<c16").reshape(5, 16, 9)
        assert np.array_equal(np.fft.irfft2(spec[4], s=(16, 16)), s.theta.phys)

    def test_undealiased_run_roundtrips(self, tmp_path):
        # without dealiasing the state still carries no Nyquist modes; the
        # snapshot holds its spectra, so it reads back exactly
        cfg = t.SimConfig(
            n=32, dt=1e-3, horizon=0.02, preset="random_band", eps=0.1, band_hi=15, dealias=False, snap_stride=20
        )
        final = t.simulate(cfg).snapshots[-1]
        storage.write_state_snapshot(str(tmp_path), final, 20)
        back = storage.read_state_snapshot(str(tmp_path), 20)
        assert same_spectra(back, final)

    @pytest.mark.parametrize("dealias", [True, False])
    def test_read_back_state_steps_bit_for_bit(self, tmp_path, dealias):
        # band_hi = 10 = n // 3, the largest band on the two-thirds block
        cfg = t.SimConfig(
            n=32, dt=1e-3, horizon=0.02, preset="random_band", eps=0.1, band_hi=10, dealias=dealias, snap_stride=10
        )
        stepped = t.simulate(cfg).snapshots[-1]
        storage.write_state_snapshot(str(tmp_path), stepped, 20)
        back = storage.read_state_snapshot(str(tmp_path), 20)
        assert same_spectra(back, stepped) and back.t == stepped.t and back.eps == stepped.eps
        assert same_spectra(t.imex_step(back, cfg.dt, use_dealias=dealias), t.imex_step(stepped, cfg.dt, use_dealias=dealias))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data[:-1], "payload bytes"),
            (lambda data: data.replace(b",theta", b",p", 1), "fields="),
            (lambda data: data.replace(b"eps=0.1", b"eps=1.5", 1), "eps"),
            (lambda data: data.replace(b"TCM2", b"TCM1", 1), "not a TCM2 snapshot"),
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
        snap_dir = str(tmp_path)
        kept = [storage.write_state_snapshot(snap_dir, band_state(n=16, seed=1, hi=3), 0)]
        stale = [storage.write_state_snapshot(snap_dir, band_state(n=16, seed=1, hi=3), 1)]
        # the per-field files of a TCM1 run in the same directory
        for name in ("step_00000000.theta.bin", "step_00000001.u_x.bin"):
            stale.append(os.path.join(snap_dir, name))
            open(stale[-1], "w").close()
        other = ["notes.txt", "step_1.theta.bin", "step_00000001.p.bin", "step_00000001.theta.bin.bak"]
        for name in other:
            open(os.path.join(snap_dir, name), "w").close()
        storage.remove_stale_snapshots(snap_dir, kept)
        assert sorted(os.listdir(snap_dir)) == sorted(other + [os.path.basename(p) for p in kept])
        assert not any(os.path.exists(p) for p in stale)


class TestDiagnosticsCsv:
    def test_roundtrip_exact(self, tmp_path):
        cfg = t.SimConfig(n=16, dt=1e-2, horizon=0.05, preset="taylor_green", diag_stride=1)
        series = t.simulate(cfg).diagnostics
        path = tmp_path / "d.csv"
        storage.write_diagnostics_csv(path, series)
        back = storage.read_diagnostics_csv(path)
        for col in t.COLUMNS:
            assert np.array_equal(back.col(col), series.col(col))

    def test_header_row(self, tmp_path):
        cfg = t.SimConfig(n=16, dt=1e-2, horizon=0.0, preset="taylor_green")
        path = tmp_path / "d.csv"
        storage.write_diagnostics_csv(path, t.simulate(cfg).diagnostics)
        first = open(path).readline().strip()
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
        storage.write_manifest(tmp_path, "cfg", "0.0", 0.0, [str(f)])
        storage.verify_manifest(tmp_path)
        f.write_text("tampered")
        with pytest.raises(ChecksumMismatch):
            storage.verify_manifest(tmp_path)

    def test_missing_file(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("payload")
        storage.write_manifest(tmp_path, "cfg", "0.0", 0.0, [str(f)])
        os.remove(f)
        with pytest.raises(ChecksumMismatch, match="missing"):
            storage.verify_manifest(tmp_path)


def write_cfg(tmp_path, text=MINIMAL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        lines = open(os.path.join(out, "diagnostics.csv")).read().splitlines()
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
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["format"] == "TCM2"
        assert sorted(e["path"] for e in manifest["files"] if e["path"].startswith("snapshots")) == [
            os.path.join("snapshots", name) for name in names
        ]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["run", "--config", cfg, "--out", out]) == 0
            outs.append(open(os.path.join(out, "diagnostics.csv"), "rb").read())
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
            blobs.append(open(os.path.join(out, "diagnostics.csv"), "rb").read())
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
            assert open(os.path.join(out, name), "rb").read() == open(os.path.join(run, name), "rb").read()

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
            assert open(os.path.join(fresh, name), "rb").read() == open(os.path.join(reread, name), "rb").read()

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
        summaries = [open(os.path.join(d, "check_summary.txt"), "rb").read() for d in (run, fresh)]
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
            manifest = json.load(open(os.path.join(out, "manifest.json")))
            listed = {e["path"] for e in manifest["files"]}
            on_disk = set()
            for root, _, names in os.walk(out):
                for name in names:
                    rel = os.path.relpath(os.path.join(root, name), out)
                    if rel != "manifest.json":
                        on_disk.add(rel)
            assert listed == on_disk, out

    def test_undealiased_run_passes_divergence_free(self, tmp_path, capsys):
        # band_hi = 20 puts product content on the Nyquist lines
        text = open(SAMPLE_CFG).read()
        for old, new in (("dealias = true", "dealias = false"), ("band_hi = 4", "band_hi = 20"), ("horizon = 1.0", "horizon = 0.2")):
            assert old in text
            text = text.replace(old, new)
        cfg = write_cfg(tmp_path, text)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "PASS divergence_free" in capsys.readouterr().out

    @pytest.mark.parametrize("dealias", ["true", "false"])
    @pytest.mark.parametrize("n, horizon, amplitude", [(32, "0.1", "1.0"), (64, "0.3", "1.0"), (32, "0.1", "0.0")])
    def test_single_mode_passes_divergence_free(self, tmp_path, capsys, n, horizon, amplitude, dealias):
        # u stays at roundoff size, so ||div u||_2 / ||u||_H1 is a ratio of
        # two roundoff residues (about 0.99); the gate measures div u against
        # the initial state's size there, and an all-zero state passes
        text = open(SAMPLE_CFG).read()
        for old, new in (("n = 64", f"n = {n}"), ("horizon = 1.0", f"horizon = {horizon}"),
                         ("dealias = true", f"dealias = {dealias}"),
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
        assert "'TCM1'" in detail and "TCM2" in detail


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
        rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
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
        rows = open(os.path.join(out, "twin.csv")).read().splitlines()[1:]
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
        assert run_cli(capsys, ["run", "--config", cfg, "--out", run])[0] == 0
        for argv in (["check", "--run-dir", run], ["check", "--config", cfg, "--out", chk]):
            code, out, _ = run_cli(capsys, argv)
            assert code == 0, out
            assert ("INFO gronwall_envelope value=nan (need >= 2 records)" in out) == (records < 2)
        run_cli(capsys, ["sweep-eps", "--config", cfg, "--levels", "0.1,0", "--out", str(tmp_path / "sw")])
        for shape in PERTURBATION_SHAPES:
            run_cli(capsys, ["twin", "--config", cfg, "--shape", shape, "--out", str(tmp_path / "tw")])

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
        ],
        ids=["band", "band_past_mask", "mode_past_mask", "horizon", "grid", "seed", "cfl_max"],
    )
    def test_config_that_cannot_run_keeps_previous_run(self, tmp_path, capsys, command, edit):
        out = str(tmp_path / "o")
        assert run_cli(capsys, ["run", "--config", write_cfg(tmp_path, guard_cfg()), "--out", out])[0] == 0
        bad = write_cfg(tmp_path, guard_cfg(edit=edit), "bad.cfg")
        assert run_cli(capsys, [command, "--config", bad, "--out", out])[::2] == (2, "ConfigParseError")
        assert run_cli(capsys, ["check", "--run-dir", out])[0] == 0

    @pytest.mark.parametrize("init", ["preset = random_band\nband_hi = 6", "preset = single_mode\nmode_x = 6"])
    def test_past_two_thirds_runs_without_dealias(self, tmp_path, capsys, init):
        # |k| = 6 lies past the two-thirds mask at n = 16 but inside the
        # Nyquist-free one, up to 16 // 2 - 1 = 7
        cfg = write_cfg(tmp_path, guard_cfg(dealias="false", edit=(("preset = taylor_green", init),)))
        out = str(tmp_path / "o")
        assert run_cli(capsys, ["run", "--config", cfg, "--out", out])[0] == 0
        assert run_cli(capsys, ["check", "--run-dir", out])[0] == 0

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
        # NaN or negative one fail every margin
        path = tmp_path / "g.csv"
        ts = np.linspace(0, 1, 5)
        storage.write_gronwall_csv(path, ts, np.ones_like(ts), np.ones_like(ts), 0 * ts, np.ones_like(ts))
        cfg = write_cfg(tmp_path, guard_cfg())
        for argv in (["check", "--config", cfg, "--out", str(tmp_path / "c"), "--tol", tol],
                     ["gronwall", "--csv", str(path), "--k", "1", "--tol", tol]):
            assert run_cli(capsys, argv)[::2] == (2, "BadParams")

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
RUN_DIR_EDITS = st.lists(
    st.one_of(
        # (snapshot index, header key, new value or None to drop the key)
        st.tuples(st.just("header"), st.integers(0, 4), st.sampled_from(["TCM2", "n", "L", "t", "eps", "fields"]),
                  st.one_of(st.none(), MUTATED_VALUES)),
        # (data row, column, new cell)
        st.tuples(st.just("cell"), st.integers(1, 5), st.integers(0, len(t.COLUMNS) - 1), MUTATED_VALUES),
        # (what to change in the manifest, which entry)
        st.tuples(st.just("manifest"), st.sampled_from(["drop", "path", "sha256", "format", "extra"]),
                  st.integers(0, 7)),
    ),
    min_size=1,
    max_size=3,
)


def _edit_header(data: bytes, key: str, value) -> bytes:
    # the key's token replaced or dropped; a key an earlier edit dropped is
    # appended again
    header, rest = data.split(b"\n", 1)
    tokens = header.split(b" ")
    new = [] if value is None else [value.encode() if key == "TCM2" else key.encode() + b"=" + value.encode()]
    found = [j for j, tok in enumerate(tokens) if tok.startswith(key.encode() + b"=")]
    i = 0 if key == "TCM2" else found[0] if found else len(tokens)
    tokens[i : i + 1] = new
    return b" ".join(tokens) + b"\n" + rest


def _mutate_run_dir(run: str, edits) -> None:
    """Apply the header and cell edits, list every file's new checksum, then
    apply the manifest edits."""
    snapshots = os.path.join(run, storage.SNAPSHOT_DIR)
    for kind, *args in edits:
        if kind == "header":
            index, key, value = args
            path = os.path.join(snapshots, f"step_{index:08d}.bin")
            with open(path, "rb") as fh:
                data = _edit_header(fh.read(), key, value)
            with open(path, "wb") as fh:
                fh.write(data)
        elif kind == "cell":
            row, column, value = args
            path = os.path.join(run, "diagnostics.csv")
            with open(path) as fh:
                lines = fh.read().split("\n")
            cells = lines[row].split(",")
            cells[column] = value
            lines[row] = ",".join(cells)
            with open(path, "w") as fh:
                fh.write("\n".join(lines))
    manifest_path = os.path.join(run, storage.MANIFEST_NAME)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    files = manifest["files"]
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
        elif change == "extra":
            # another step's snapshot, listed with its true checksum
            with open(os.path.join(snapshots, f"step_{i % 5:08d}.bin"), "rb") as fh:
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(edits=RUN_DIR_EDITS)
    def test_check_exits_with_a_documented_code(self, mutation_base, edits):
        with tempfile.TemporaryDirectory() as tmp:
            run = os.path.join(tmp, "run")
            shutil.copytree(mutation_base, run)
            _mutate_run_dir(run, edits)
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["check", "--run-dir", run])
        err = err.getvalue()
        assert code in (0, 2, 3, 4, 5), (edits, code, err)
        assert sum(line.startswith("TCM-ERROR ") for line in err.splitlines()) == (code != 0), (edits, err)
        assert "Traceback" not in out.getvalue() + err, edits

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
            state = t.State(u=t.VectorField(zero, zero), v=t.VectorField(zero, zero), theta=zero, t=0.008, eps=0.1)
            storage.write_state_snapshot(os.path.join(run, storage.SNAPSHOT_DIR), state, index)
            edits = []
        _mutate_run_dir(run, edits)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["check", "--run-dir", run])
        lines = err.getvalue().splitlines()
        assert code == 2 and len(lines) == 1 and lines[0].startswith("TCM-ERROR "), lines
        error = json.loads(lines[0].split(" ", 1)[1])
        assert error["error"] == "ConfigParseError"
        assert f"step_{index:08d}.bin: line 1: {key}=" in error["detail"], error
