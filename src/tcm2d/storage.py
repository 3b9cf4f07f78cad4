"""On-disk formats: binary field snapshots, CSV tables (the diagnostics, the
Gronwall series and the check, sweep and twin series) and the run manifest.

Snapshots are raw little-endian float64 physical samples, row-major, after
a one-line ASCII header

    TCM1 n=<n> L=<length> t=<time> field=<name> eps=<eps>

so each file is self-describing and round-trips bit-exactly. CSVs carry a
fixed header row and 17-significant-digit decimal floats, so identical
runs produce byte-identical files. The manifest lists every artifact with
its SHA-256 checksum.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time

import numpy as np

from .errors import BadSeries, ChecksumMismatch, ConfigParseError
from .model import State
from .records import COLUMNS, DiagnosticsSeries
from .spectral import Grid, SpectralField, VectorField

SNAPSHOT_MAGIC = "TCM1"
FIELD_NAMES = ("u_x", "u_y", "v_x", "v_y", "theta")
MANIFEST_NAME = "manifest.json"
SNAPSHOT_DIR = "snapshots"  # a run directory's snapshot subdirectory
# the file names snapshot_paths makes; group 1 is the step
_SNAPSHOT_NAME = re.compile(r"step_(\d{8,})\.(?:%s)\.bin" % "|".join(FIELD_NAMES))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# snapshots


def write_field_snapshot(path, name: str, field: SpectralField, t: float, eps: float) -> None:
    arr = np.ascontiguousarray(field.phys, dtype="<f8")
    header = (
        f"{SNAPSHOT_MAGIC} n={field.grid.n} L={field.grid.length!r} "
        f"t={t!r} field={name} eps={eps!r}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(arr.tobytes())


def read_field_snapshot(path):
    """Returns (meta dict, physical array)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        raw = fh.read()
    parts = header.split()
    if not parts or parts[0] != SNAPSHOT_MAGIC:
        raise ConfigParseError(f"{path}: not a {SNAPSHOT_MAGIC} snapshot")
    meta = {}
    for tok in parts[1:]:
        key, _, val = tok.partition("=")
        meta[key] = val
    try:
        n = meta["n"] = int(meta["n"])
        for key in ("L", "t", "eps"):
            meta[key] = float(meta[key])
    except (KeyError, ValueError) as exc:
        raise ConfigParseError(f"{path}: line 1: bad {SNAPSHOT_MAGIC} header: {exc!r}") from exc
    arr = np.frombuffer(raw, dtype="<f8")
    if arr.size != n * n:
        raise ConfigParseError(f"{path}: expected {n * n} samples, found {arr.size}")
    return meta, arr.reshape(n, n).copy()


def snapshot_paths(directory, step: int) -> dict[str, str]:
    return {
        name: os.path.join(directory, f"step_{step:08d}.{name}.bin") for name in FIELD_NAMES
    }


def write_state_snapshot(directory, state: State, step: int) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    fields = (state.u.x, state.u.y, state.v.x, state.v.y, state.theta)  # FIELD_NAMES order
    written = []
    for (name, path), field in zip(snapshot_paths(directory, step).items(), fields):
        write_field_snapshot(path, name, field, state.t, state.eps)
        written.append(path)
    return written


def read_state_snapshot(directory, step: int) -> State:
    paths = snapshot_paths(directory, step)
    arrays, meta = {}, None
    for name, path in paths.items():
        meta, arrays[name] = read_field_snapshot(path)
    grid = Grid(meta["n"], meta["L"])
    f = {name: SpectralField.from_phys(grid, arr) for name, arr in arrays.items()}
    return State(
        u=VectorField(f["u_x"], f["u_y"]),
        v=VectorField(f["v_x"], f["v_y"]),
        theta=f["theta"],
        t=meta["t"],
        eps=meta["eps"],
    )


def remove_stale_snapshots(directory, written) -> None:
    """Delete the files in ``directory`` that are named like this module's
    snapshots but are not in ``written``, such as the later steps a longer
    earlier run left behind. Other files are kept."""
    keep = {os.path.basename(path) for path in written}
    for name in os.listdir(directory):
        if name not in keep and _SNAPSHOT_NAME.fullmatch(name):
            os.remove(os.path.join(directory, name))


def manifest_snapshot_steps(manifest: dict) -> list[int]:
    """Steps of the snapshots a run's manifest lists, in order. Snapshot files
    it does not list, such as those a longer earlier run left behind, do not
    count."""
    steps = set()
    for entry in manifest["files"]:
        head, name = os.path.split(entry["path"])
        match = _SNAPSHOT_NAME.fullmatch(name)
        if head == SNAPSHOT_DIR and match:
            steps.add(int(match.group(1)))
    return sorted(steps)


# ---------------------------------------------------------------------------
# CSV tables


def write_csv(path, columns, rows) -> None:
    """Write a header row of ``columns`` and one line per row of ``rows``,
    every cell a 17-significant-digit float."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_diagnostics_csv(path, series: DiagnosticsSeries) -> None:
    write_csv(path, COLUMNS, series.rows)


def read_diagnostics_csv(path) -> DiagnosticsSeries:
    """The series of a diagnostics CSV; a malformed row raises
    ConfigParseError naming its line."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != COLUMNS:
            raise ConfigParseError(f"{path}: unexpected diagnostics columns")
        series = DiagnosticsSeries()
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if len(cells) != len(COLUMNS):
                raise ConfigParseError(f"{path}: line {lineno}: expected {len(COLUMNS)} cells, found {len(cells)}")
            try:
                row = np.array([float(x) for x in cells])
            except ValueError as exc:
                raise ConfigParseError(f"{path}: line {lineno}: {exc}") from exc
            series.append(row)
    return series


# ---------------------------------------------------------------------------
# Gronwall series CSV: columns time, A, B, alpha, beta

GRONWALL_COLUMNS = ("time", "A", "B", "alpha", "beta")


def write_gronwall_csv(path, times, A, B, alpha, beta) -> None:
    write_csv(path, GRONWALL_COLUMNS, zip(times, A, B, alpha, beta))


def read_gronwall_csv(path):
    """Returns (times, A, B, alpha, beta) arrays; errors carry row numbers."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if tuple(h.strip() for h in header) != GRONWALL_COLUMNS:
            raise BadSeries(f"{path}: expected columns {','.join(GRONWALL_COLUMNS)}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != 5:
                raise BadSeries(f"{path}: row {lineno}: expected 5 columns")
            try:
                rows.append([float(x) for x in parts])
            except ValueError as exc:
                raise BadSeries(f"{path}: row {lineno}: {exc}") from exc
    if len(rows) < 2:
        raise BadSeries(f"{path}: need at least two data rows")
    arr = np.array(rows)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4]


# ---------------------------------------------------------------------------
# manifest


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(run_dir, config_text: str, version: str, started: float, files) -> str:
    """Inventory every artifact (paths relative to run_dir) with checksums."""
    entries = []
    for path in sorted(files):
        rel = os.path.relpath(path, run_dir)
        entries.append({"path": rel, "sha256": _sha256(path)})
    manifest = {
        "format": SNAPSHOT_MAGIC,
        "version": version,
        "config": config_text,
        "started_unix": started,
        "finished_unix": time.time(),
        "files": entries,
    }
    path = os.path.join(run_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def read_manifest(run_dir) -> dict:
    with open(os.path.join(run_dir, MANIFEST_NAME), "r", encoding="utf-8") as fh:
        return json.load(fh)


def verify_manifest(run_dir) -> dict:
    """Re-hash every listed file; raises ChecksumMismatch on any deviation."""
    manifest = read_manifest(run_dir)
    for entry in manifest["files"]:
        path = os.path.join(run_dir, entry["path"])
        if not os.path.exists(path):
            raise ChecksumMismatch(f"missing file {entry['path']}")
        actual = _sha256(path)
        if actual != entry["sha256"]:
            raise ChecksumMismatch(
                f"checksum mismatch for {entry['path']}: "
                f"expected {entry['sha256'][:12]}..., got {actual[:12]}..."
            )
    return manifest
