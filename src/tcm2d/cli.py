"""Command-line entry points.

    tcm2d run       --config FILE [--out DIR] [--seed-override N]
    tcm2d check     (--config FILE [--seed-override N] | --run-dir DIR) [--out DIR] [--tol X]
    tcm2d sweep-eps --config FILE --levels 0.2,0.1,0.05,0 [--out DIR]
    tcm2d twin      --config FILE [--delta X] [--shape NAME] [--out DIR]
    tcm2d gronwall  --csv FILE (--fit-k | --k X) [--tol X]

Exit codes: 0 success, 2 config error or malformed input file, 3 numerical
guard (CFL or non-finite state), 4 I/O or an untrusted run directory (a
missing, tampered or malformed manifest, or one of another snapshot format
such as TCM2 or TCM1), 5 check failure. A package error's code is its class's
``exit_code`` (see ``errors``); a usage error (a missing or malformed
argument) is a ``ConfigParseError``. Failures print a single
machine-readable line ``TCM-ERROR {...}`` to stderr.

Each command imports the modules only it uses (``diagnostics``,
``derived``, ``gronwall``) when it runs, so ``run`` loads none of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys

import numpy as np

from . import __version__, config as config_mod, storage
from .errors import ConfigParseError, TcmError
from .model import SimConfig, simulate
from .records import COLUMNS, DiagnosticsSeries, derived_columns

EXIT_OK = 0
EXIT_IO = 4
EXIT_CHECK = 5

#: stated tolerances for the gated trajectory checks
MAX_PRINCIPLE_RTOL = 1e-4
MEAN_DRIFT_RTOL = 1e-10
DIV_FREE_RTOL = 1e-10
#: ||u||_H1 below this fraction of the initial state's L2 size is roundoff, so
#: ||div u||_2 is measured against this floor instead
DIV_FREE_FLOOR = 1e-4
ENERGY_MONOTONE_RTOL = 1e-10
#: a snapshot's or record's t is a running sum of dt, off step * dt by about step ulps
SNAPSHOT_T_RTOL = 1e-9
#: a row's energy, dissipation, A and B are derived_columns of its 17-digit cells, the same floats
ROW_RTOL = 1e-12


def _machine_error(kind: str, detail: str, **extra) -> None:
    payload = {"error": kind, "detail": detail}
    payload.update(extra)
    print("TCM-ERROR " + json.dumps(payload, sort_keys=True), file=sys.stderr)


def _fmt(x) -> str:
    return format(float(x), ".6g")


# ---------------------------------------------------------------------------
# run


def _load_config(args) -> tuple[SimConfig, str]:
    cfg, text = config_mod.parse_config_file(args.config)
    if getattr(args, "seed_override", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed_override)
        text = config_mod.render_config(cfg)
    return cfg, text


def _resolve_outdir(args, cfg: SimConfig, default: str) -> str:
    out = args.out or cfg.outdir or default
    os.makedirs(out, exist_ok=True)
    return out


def cmd_run(args) -> int:
    cfg, text = _load_config(args)
    run_dir = _resolve_outdir(args, cfg, "run_out")
    tail = COLUMNS.index("theta_tail_frac")
    flagged, largest = 0, -np.inf
    with storage.RunWriter(run_dir, text, __version__) as out:

        def record(row):
            nonlocal flagged, largest
            out.record(row)
            flagged += bool(row[tail] > 0.01)
            largest = np.maximum(largest, row[tail])

        simulate(cfg, out.snapshot, record)
    print(f"run complete: {out.rows} diagnostic records, {out.snapshots} snapshots -> {run_dir}")
    if flagged:
        print(
            f"warning: {flagged} record(s) hold > 1% of the temperature "
            f"variance in the top spectral shell (max {largest:.2%}); "
            "the run may be under-resolved"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def _load_run(args):
    """Load a completed run directory, after running the config into one
    with ``--config``.

    Returns (config, diagnostics, window, final state, report directory): the
    window is the three snapshots around the middle of the run that the
    equation residuals use (None with fewer than three snapshots). The
    manifest must list the snapshots of steps 0, snap_stride, ... up to
    num_steps, and the diagnostics the run's records (:func:`_check_series`);
    only the window and the last snapshot are read (:func:`_read_snapshot`).
    The report goes to ``--out`` if given, else into the run directory.
    """
    if args.config:
        cfg, text = _load_config(args)
        run_dir = _resolve_outdir(args, cfg, "check_out")
        with storage.RunWriter(run_dir, text, __version__) as out:
            simulate(cfg, out.snapshot, out.record)
    elif args.seed_override is not None:
        raise ConfigParseError("--seed-override needs --config: a run directory has its seed")
    else:
        run_dir = args.run_dir
    manifest = storage.verify_manifest(run_dir)
    cfg, _ = config_mod.parse_config_file(os.path.join(run_dir, storage.CONFIG_NAME))
    diag_path = os.path.join(run_dir, storage.DIAGNOSTICS_NAME)
    series = storage.read_diagnostics_csv(diag_path)
    _check_series(diag_path, series, cfg)
    snap_dir = os.path.join(run_dir, storage.SNAPSHOT_DIR)
    steps = storage.manifest_snapshot_steps(manifest)
    if steps != list(range(0, cfg.num_steps() + 1, cfg.snap_stride)):
        raise ConfigParseError(f"{os.path.join(run_dir, storage.MANIFEST_NAME)}: the listed snapshot steps are "
                               f"not 0, {cfg.snap_stride}, ... up to {cfg.num_steps()}, as config.cfg makes them")
    window = _mid_window(steps)
    states = {step: _read_snapshot(snap_dir, step, cfg) for step in sorted({*(window or ()), steps[-1]})}
    window = None if window is None else [states[step] for step in window]
    final = states[steps[-1]]
    out = args.out or run_dir
    os.makedirs(out, exist_ok=True)
    return cfg, series, window, final, out


def _read_snapshot(snap_dir, step: int, cfg: SimConfig):
    """The run's snapshot of ``step``. Its header must hold the config's n, L
    and eps, and t = step * dt within SNAPSHOT_T_RTOL; else ConfigParseError
    names the file and the key. Every field must be finite, as a run's are;
    else ConfigParseError names the file and the first field that is not."""
    s = storage.read_state_snapshot(snap_dir, step)
    path = storage.snapshot_path(snap_dir, step)
    for key, got, want in (("n", s.grid.n, cfg.n), ("L", s.grid.length, cfg.length), ("eps", s.eps, cfg.eps)):
        if got != want:
            raise ConfigParseError(f"{path}: line 1: {key}={got!r} disagrees with config.cfg ({want!r})")
    if not abs(s.t - step * cfg.dt) <= SNAPSHOT_T_RTOL * step * cfg.dt:
        raise ConfigParseError(f"{path}: line 1: t={s.t!r} is not step {step} times dt={cfg.dt!r}")
    finite = np.isfinite(s.spec).all(axis=(1, 2))
    if not finite.all():
        name = storage.FIELD_NAMES[int(np.argmin(finite))]
        raise ConfigParseError(f"{path}: {name} is not finite, but every snapshot of a run is")
    return s


def _check_series(path, series: DiagnosticsSeries, cfg: SimConfig) -> None:
    """A run of ``cfg`` records num_steps // diag_stride + 1 rows of finite
    cells, row k at t = k * diag_stride * dt within SNAPSHOT_T_RTOL, each
    with the energy, dissipation, A and B that ``records.derived_columns``
    makes of its norms, t and cfg.eps within ROW_RTOL; else
    ConfigParseError names the row."""
    rows = cfg.num_steps() // cfg.diag_stride + 1
    if len(series) != rows:
        raise ConfigParseError(f"{path}: {len(series)} data rows, but config.cfg makes {rows} records")
    table = series.table
    if not np.isfinite(table).all():
        k, c = np.argwhere(~np.isfinite(table))[0]
        raise ConfigParseError(f"{path}: data row {k + 1}: {COLUMNS[c]}={table[k, c]:.17g}, "
                               "but every cell of a record is finite")
    col = dict(zip(COLUMNS, table.T))
    # a huge norm gives an infinite or NaN value, which no record has
    with np.errstate(over="ignore", invalid="ignore"):
        wants = {"t": np.arange(rows) * cfg.diag_stride * cfg.dt, **derived_columns(col, cfg.eps)}
        for name, want in wants.items():
            rtol, source = (SNAPSHOT_T_RTOL, "step * dt =") if name == "t" else (ROW_RTOL, "its norms make")
            ok = np.isfinite(want) & (np.abs(col[name] - want) <= rtol * np.abs(want))
            if not ok.all():
                k = int(np.argmin(ok))
                raise ConfigParseError(f"{path}: data row {k + 1}: {name}={col[name][k]:.17g}, but {source} {want[k]:.17g}")


def _mid_window(snaps):
    if len(snaps) < 3:
        return None
    m = len(snaps) // 2  # 1 <= m <= len - 2
    return snaps[m - 1 : m + 2]


def run_checks(cfg: SimConfig, series: DiagnosticsSeries, window, final, tol: float) -> tuple[list, list, tuple]:
    """Returns (gated, observational) rows: (name, passed/None, value, detail),
    and the curves they are read from, each one value per record: the
    energy-identity residual, the max-principle margin and the Lipschitz
    budget.

    ``window`` holds three consecutive snapshots for the equation residuals
    (or is None), ``final`` the last snapshot (or None); ``tol`` is the
    Gronwall envelope's tolerance.
    """
    from . import diagnostics
    from .derived import residual_flux_equation, residual_phi_equation, residual_w_equation

    gated, info = [], []
    t = series.times

    theta0_l2 = series.col("theta_l2")[0]
    drift_th = np.max(np.abs(series.col("mean_theta") - series.col("mean_theta")[0]))
    lim = MEAN_DRIFT_RTOL * (1.0 + theta0_l2)
    gated.append(("mean_theta_conserved", drift_th <= lim, drift_th, f"limit {_fmt(lim)}"))

    u0_l2 = series.col("u_l2")[0]
    drift_u = max(
        np.max(np.abs(series.col("mean_u_x") - series.col("mean_u_x")[0])),
        np.max(np.abs(series.col("mean_u_y") - series.col("mean_u_y")[0])),
    )
    limu = MEAN_DRIFT_RTOL * (1.0 + u0_l2)
    gated.append(("mean_u_conserved", drift_u <= limu, drift_u, f"limit {_fmt(limu)}"))

    # ||div u||_2 / max(||u||_H1, floor), which is div_u_rel wherever
    # ||u||_H1 reaches the floor, a fraction of the initial state's L2 size
    # sqrt(2 E(0)), taken as 2 sqrt(E(0) / 2): the same float, and no
    # overflow; a ratio to the floor that overflows is past 1
    u_h1 = np.hypot(series.col("u_l2"), series.col("grad_u_l2"))
    floor = DIV_FREE_FLOOR * (2.0 * np.sqrt(0.5 * series.col("energy")[0]))
    with np.errstate(over="ignore"):
        div_max = np.max(series.col("div_u_rel") * (np.minimum(1.0, u_h1 / floor) if floor > 0 else 1.0))
    detail = f"||div u||_2 / max(||u||_H1, {DIV_FREE_FLOOR} sqrt(2 E(0))), limit {DIV_FREE_RTOL}"
    gated.append(("divergence_free", div_max <= DIV_FREE_RTOL, div_max, detail))

    energy = series.col("energy")
    if cfg.eps > 0 and len(series) > 1:
        growth = np.max(np.diff(energy))
        lim_e = ENERGY_MONOTONE_RTOL * energy[0]
        gated.append(("energy_nonincreasing", growth <= lim_e, growth, f"limit {_fmt(lim_e)}"))
    else:
        info.append(("energy_nonincreasing", None, float(np.max(np.diff(energy))) if len(series) > 1 else 0.0, "observational at eps = 0"))

    margins = diagnostics.max_principle_check(series)
    min_margin = float(np.min(margins))
    theta0_sup = series.col("theta_linf")[0]
    lim_m = -MAX_PRINCIPLE_RTOL * theta0_sup
    if cfg.eps > 0:
        gated.append(("max_principle", min_margin >= lim_m, min_margin, f"limit {_fmt(lim_m)}"))
    else:
        info.append(("max_principle", None, min_margin, "observational at eps = 0"))

    if len(series) > 1:
        env = diagnostics.certified_envelope(series, tol=tol)
        ok = env.conclusion.outcome == "holds"
        gated.append(("gronwall_envelope", ok, env.fit.K, f"fitted K, outcome {env.conclusion.outcome}"))
    else:
        info.append(("gronwall_envelope", None, float("nan"), "need >= 2 records"))

    budget = diagnostics.lipschitz_budget(series)
    gated.append(("lipschitz_budget_finite", bool(np.isfinite(budget)), budget, "integral of ||grad u||_inf"))

    resid = diagnostics.energy_identity_residual(series)
    info.append(("energy_identity_residual", None, float(np.abs(resid[-1])), "value at horizon"))

    if window is not None:
        for name, fn in (
            ("w_equation_residual", residual_w_equation),
            ("potential_equation_residual", residual_phi_equation),
            ("flux_equation_residual", residual_flux_equation),
        ):
            r = fn(window)
            info.append((name, None, r.l2, f"smoothed {_fmt(r.smoothed)}"))
    else:
        info.append(("equation_residuals", None, float("nan"), "need >= 3 snapshots"))

    if final is not None:
        info.append(("bgw_ratio_final", None, diagnostics.bgw_ratio(final.u), "observational"))
    tail = float(np.max(series.col("theta_tail_frac")))
    info.append(("theta_tail_fraction_max", None, tail, "flag if > 0.01"))
    cum = diagnostics.lipschitz_budget_curve(series)
    info.append(
        ("lipschitz_sqrt_t_slope", None, diagnostics.loglog_slope(t[1:], cum[1:]), "log-log slope of the budget curve")
    )
    return gated, info, (resid, margins, cum)


def _render_report(gated, info) -> tuple[str, bool]:
    """The PASS/FAIL/INFO report text and whether every gated check passed."""
    overall = all(ok for _, ok, _, _ in gated)
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name} value={_fmt(value)} ({detail})"
        for name, ok, value, detail in gated
    ]
    lines += [f"INFO {name} value={_fmt(value)} ({detail})" for name, _, value, detail in info]
    lines.append(f"{'PASS' if overall else 'FAIL'} overall")
    return "".join(line + "\n" for line in lines), overall


def _write_check_report(out_dir, report: str, times, curves):
    summary = os.path.join(out_dir, "check_summary.txt")
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write(report)

    series_path = os.path.join(out_dir, "check_series.csv")
    storage.write_csv(
        series_path,
        ("t", "energy_residual", "max_principle_margin", "lipschitz_budget"),
        zip(times, *curves),
    )
    return summary, series_path


def _tol(args) -> float:
    """``--tol``, else ``gronwall.DEFAULT_TOL``; one that breaks
    ``gronwall.check_tol`` raises BadParams."""
    from . import gronwall

    tol = gronwall.DEFAULT_TOL if args.tol is None else args.tol
    gronwall.check_tol(tol)
    return tol


def cmd_check(args) -> int:
    tol = _tol(args)  # before a run is made or read
    cfg, series, window, final, out = _load_run(args)
    gated, info, curves = run_checks(cfg, series, window, final, tol)
    report, overall = _render_report(gated, info)
    _write_check_report(out, report, series.times, curves)
    print(report, end="")
    if not overall:
        _machine_error("CheckFailure", "one or more gated checks failed")
        return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep_eps(args) -> int:
    from . import diagnostics

    cfg, _ = _load_config(args)
    try:
        levels = [float(x) for x in args.levels.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigParseError(f"--levels: {exc}") from exc
    report = diagnostics.epsilon_sweep(cfg, levels)
    out = _resolve_outdir(args, cfg, "sweep_out")

    storage.write_csv(
        os.path.join(out, "sweep.csv"),
        ("eps", "dist_velocity_l2h1", "dist_theta_l2l2"),
        zip(report.eps_levels, report.dist_velocity, report.dist_theta),
    )
    with open(os.path.join(out, "sweep_summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"reference eps = {report.reference_eps!r}\n")
        fh.write(f"monotone decrease (velocity H1): {report.monotone_velocity}\n")
        fh.write(f"monotone decrease (theta L2): {report.monotone_theta}\n")
        fh.write(f"log-log slope velocity: {report.slope_velocity!r}\n")
        fh.write(f"log-log slope theta: {report.slope_theta!r}\n")

    print(f"sweep over eps {sorted(set(levels), reverse=True)} -> {out}")
    print(f"monotone decrease toward eps={report.reference_eps}: "
          f"velocity={report.monotone_velocity} theta={report.monotone_theta}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# twin


def cmd_twin(args) -> int:
    from . import diagnostics

    cfg, _ = _load_config(args)
    report = diagnostics.twin_divergence(cfg, args.delta, shape=args.shape)
    out = _resolve_outdir(args, cfg, "twin_out")

    storage.write_csv(
        os.path.join(out, "twin.csv"),
        ("t", "separation", "coefficient", "envelope", "within_envelope"),
        zip(report.times, report.separation, report.coefficient, report.envelope, report.passed),
    )
    with open(os.path.join(out, "twin_summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"delta = {report.delta!r}, safety = {diagnostics.TWIN_SAFETY!r}\n")
        fh.write(f"separation(0) = {report.separation[0]!r}\n")
        fh.write(f"max separation = {float(np.max(report.separation))!r}\n")
        fh.write(f"within envelope at every record: {report.all_passed}\n")

    print(f"twin run delta={args.delta} shape={args.shape} -> {out}")
    print(f"within envelope at every record: {report.all_passed}")
    if args.delta > 0 and not report.all_passed:
        _machine_error("CheckFailure", "separation exceeded the computed envelope")
        return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# gronwall


def cmd_gronwall(args) -> int:
    from . import gronwall

    tol = _tol(args)
    times, A, B, alpha, beta = storage.read_gronwall_csv(args.csv)
    k = args.k
    if args.fit_k:
        fit = gronwall.fit_min_k(times, A, B, alpha, beta)
        k = fit.K
        print(f"fitted K = {k!r} (binding sample {fit.argmax})")
    g = gronwall.GronwallSeries(times=times, A=A, B=B, alpha=alpha, beta=beta, K=k)
    rep = gronwall.conclusion_check(g, tol=tol)
    hyp = rep.hypothesis
    print(f"hypothesis holds: {hyp.holds} (min margin {_fmt(np.min(hyp.margins))})")
    print(f"conclusion outcome: {rep.outcome}")
    print(f"lhs(T) = {_fmt(rep.lhs[-1])}, log rhs(T) = {_fmt(rep.log_rhs[-1])}")
    if rep.outcome == "violated":
        _machine_error("CheckFailure", "conclusion violated on hypothesis-passing series")
        return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver


class _Parser(argparse.ArgumentParser):
    """An argument parser, and so its subparsers, whose usage errors raise
    ConfigParseError and so exit through the ``TCM-ERROR`` contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="tcm2d",
        description="pseudo-spectral simulator and a-priori-estimate verification harness",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate and persist artifacts")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--seed-override", type=int, default=None)
    run.set_defaults(fn=cmd_run)

    chk = sub.add_parser("check", help="verify a run against the trajectory checks")
    grp = chk.add_mutually_exclusive_group(required=True)
    grp.add_argument("--config")
    grp.add_argument("--run-dir")
    chk.add_argument("--out", default=None)
    chk.add_argument("--seed-override", type=int, default=None)
    chk.add_argument("--tol", type=float)
    chk.set_defaults(fn=cmd_check)

    sw = sub.add_parser("sweep-eps", help="convergence sweep in the temperature diffusivity")
    sw.add_argument("--config", required=True)
    sw.add_argument("--levels", required=True, help="comma-separated eps values")
    sw.add_argument("--out", default=None)
    sw.add_argument("--seed-override", type=int, default=None)
    sw.set_defaults(fn=cmd_sweep_eps)

    tw = sub.add_parser("twin", help="perturbed twin-run separation experiment")
    tw.add_argument("--config", required=True)
    tw.add_argument("--delta", type=float, default=1e-8)
    tw.add_argument("--shape", default="mode")
    tw.add_argument("--out", default=None)
    tw.add_argument("--seed-override", type=int, default=None)
    tw.set_defaults(fn=cmd_twin)

    gw = sub.add_parser("gronwall", help="hypothesis/conclusion check on a CSV series")
    gw.add_argument("--csv", required=True)
    k = gw.add_mutually_exclusive_group(required=True)
    k.add_argument("--fit-k", action="store_true")
    k.add_argument("--k", type=float)
    gw.add_argument("--tol", type=float)
    gw.set_defaults(fn=cmd_gronwall)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit:  # -h and --version; usage errors raise ConfigParseError
        return EXIT_OK
    except TcmError as exc:
        _machine_error(type(exc).__name__, str(exc), **{name: getattr(exc, name) for name in exc.fields})
        return exc.exit_code
    except OSError as exc:
        _machine_error("IoError", str(exc))
        return EXIT_IO


def entry() -> None:
    code = main()
    # every object now alive, the import graph included, goes to the
    # permanent generation, so interpreter shutdown does not collect it
    gc.freeze()
    raise SystemExit(code)
