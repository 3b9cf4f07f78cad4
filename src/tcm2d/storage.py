"""On-disk formats: binary state snapshots, CSV tables (the diagnostics, the
Gronwall series and the check, sweep and twin series) and the run manifest.

A snapshot is one file per state, ``step_NNNNNNNN.bin``: a one-line ASCII
header

    TCM2 n=<n> L=<length> t=<time> eps=<eps> fields=u_x,u_y,v_x,v_y,theta

followed by each field's ``rfft2`` half-plane spectrum, n x (n/2 + 1)
little-endian complex128, row-major, in the order the header names. The
spectrum is a field's value, so a snapshot read back is the state that was
stepped, bit for bit, and writing one takes no transform; grid samples are
``numpy.fft.irfft2(spec, s=(n, n))``. CSVs carry a fixed header row and
17-significant-digit decimal floats, so identical runs produce
byte-identical files. The manifest lists every artifact with its SHA-256
checksum and names the snapshot format; a run directory of another format
(the per-field ``TCM1`` files of grid samples) is rejected, not read.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time

import numpy as np

from .errors import BadParams, BadSeries, ChecksumMismatch, ConfigParseError
from .model import State
from .records import COLUMNS, DiagnosticsSeries
from .spectral import Grid, SpectralField, VectorField

SNAPSHOT_MAGIC = "TCM2"
FIELD_NAMES = ("u_x", "u_y", "v_x", "v_y", "theta")
MANIFEST_NAME = "manifest.json"
SNAPSHOT_DIR = "snapshots"  # a run directory's snapshot subdirectory
# the file name _snapshot_path makes; group 1 is the step
_SNAPSHOT_NAME = re.compile(r"step_(\d{8,})\.bin")
# the per-field files of the TCM1 format, cleared with stale snapshots
_TCM1_NAME = re.compile(r"step_\d{8,}\.(?:%s)\.bin" % "|".join(FIELD_NAMES))
_SPEC_DTYPE = np.dtype("<c16")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# snapshots


def write_field_snapshot(path, state: State) -> None:
    """Write ``state`` to ``path`` as one TCM2 file, from its spectra alone."""
    g = state.grid
    header = (
        f"{SNAPSHOT_MAGIC} n={g.n} L={g.length!r} t={state.t!r} "
        f"eps={state.eps!r} fields={','.join(FIELD_NAMES)}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        # one field at a time: stacking the five would copy the whole state
        for field in (state.u.x, state.u.y, state.v.x, state.v.y, state.theta):  # FIELD_NAMES order
            fh.write(np.ascontiguousarray(field.spec, dtype=_SPEC_DTYPE))


def read_field_snapshot(path) -> State:
    """The state a TCM2 file holds, its fields views of one spectrum array.
    A malformed file raises ConfigParseError naming it."""
    with open(path, "rb") as fh:
        try:
            parts = fh.readline().decode("ascii").split()
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"{path}: line 1: non-ASCII byte in the header") from exc
        if not parts or parts[0] != SNAPSHOT_MAGIC:
            raise ConfigParseError(f"{path}: line 1: not a {SNAPSHOT_MAGIC} snapshot")
        meta = dict(tok.partition("=")[::2] for tok in parts[1:])
        try:
            if meta["fields"] != ",".join(FIELD_NAMES):
                raise ValueError(f"fields={meta['fields']}, expected {','.join(FIELD_NAMES)}")
            n = int(meta["n"])
            shape = (len(FIELD_NAMES), n, n // 2 + 1)
            # checked before the grid is built, so a corrupt n allocates nothing
            payload = os.fstat(fh.fileno()).st_size - fh.tell()
            if payload != math.prod(shape) * _SPEC_DTYPE.itemsize:
                raise ValueError(f"{payload} payload bytes do not hold five {n} x {n // 2 + 1} spectra")
            grid = Grid(n, float(meta["L"]))
            t, eps = float(meta["t"]), float(meta["eps"])
        except (KeyError, ValueError, BadParams) as exc:
            raise ConfigParseError(f"{path}: line 1: bad {SNAPSHOT_MAGIC} header: {exc!r}") from exc
        spectra = np.empty(shape, dtype=_SPEC_DTYPE)
        if fh.readinto(spectra) != spectra.nbytes:
            raise ConfigParseError(f"{path}: truncated while reading")
    u_x, u_y, v_x, v_y, theta = (SpectralField(grid, spec) for spec in spectra)
    try:
        return State(u=VectorField(u_x, u_y), v=VectorField(v_x, v_y), theta=theta, t=t, eps=eps)
    except BadParams as exc:
        raise ConfigParseError(f"{path}: line 1: bad {SNAPSHOT_MAGIC} header: {exc}") from exc


def _snapshot_path(directory, step: int) -> str:
    return os.path.join(directory, f"step_{step:08d}.bin")


def write_state_snapshot(directory, state: State, step: int) -> str:
    """Write the snapshot of ``step`` into ``directory``; returns its path."""
    os.makedirs(directory, exist_ok=True)
    path = _snapshot_path(directory, step)
    write_field_snapshot(path, state)
    return path


def read_state_snapshot(directory, step: int) -> State:
    return read_field_snapshot(_snapshot_path(directory, step))


def remove_stale_snapshots(directory, written) -> None:
    """Delete the files in ``directory`` that are named like this module's
    snapshots, or like the per-field files of the TCM1 format, but are not in
    ``written``: the later steps a longer earlier run left behind, or a whole
    TCM1 run. Other files are kept."""
    keep = {os.path.basename(path) for path in written}
    for name in os.listdir(directory):
        if name not in keep and (_SNAPSHOT_NAME.fullmatch(name) or _TCM1_NAME.fullmatch(name)):
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


def _read_text(path, encoding: str) -> str:
    """The text of the file ``path`` in ``encoding``; a byte that does not
    decode raises ConfigParseError naming its line and column."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        column = exc.start - raw.rfind(b"\n", 0, exc.start)
        raise ConfigParseError(f"{path}: line {line}: byte not {encoding} at column {column}") from exc


def _read_table(path, columns) -> np.ndarray:
    """The data rows of the ASCII CSV file ``path``, whose header cells
    (stripped) must be ``columns``, as one (rows, len(columns)) float array.
    Blank lines are skipped; a malformed header, row or cell raises
    ConfigParseError naming its line."""
    header, *lines = _read_text(path, "ASCII").split("\n")
    if tuple(cell.strip() for cell in header.split(",")) != columns:
        raise ConfigParseError(f"{path}: line 1: expected columns {','.join(columns)}")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ConfigParseError(f"{path}: line {lineno}: expected {len(columns)} cells, found {len(cells)}")
        try:
            rows.append([float(x) for x in cells])
        except ValueError as exc:
            raise ConfigParseError(f"{path}: line {lineno}: {exc}") from exc
    return np.array(rows, dtype=float).reshape(-1, len(columns))


def read_diagnostics_csv(path) -> DiagnosticsSeries:
    """The series of a diagnostics CSV; a malformed row raises
    ConfigParseError naming its line."""
    series = DiagnosticsSeries()
    for row in _read_table(path, COLUMNS):
        series.append(row)
    return series


# ---------------------------------------------------------------------------
# Gronwall series CSV: columns time, A, B, alpha, beta

GRONWALL_COLUMNS = ("time", "A", "B", "alpha", "beta")


def write_gronwall_csv(path, times, A, B, alpha, beta) -> None:
    write_csv(path, GRONWALL_COLUMNS, zip(times, A, B, alpha, beta))


def read_gronwall_csv(path):
    """Returns (times, A, B, alpha, beta) arrays. A malformed row raises
    ConfigParseError naming its line, fewer than two data rows BadSeries."""
    table = _read_table(path, GRONWALL_COLUMNS)
    if len(table) < 2:
        raise BadSeries(f"{path}: need at least two data rows")
    return tuple(table.T)


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
    """The run's manifest. One that is not JSON, lists its files without a
    path and checksum each, or names another snapshot format raises
    ChecksumMismatch."""
    path = os.path.join(run_dir, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ChecksumMismatch(f"{path}: not a JSON manifest: {exc}") from exc
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, list):
        raise ChecksumMismatch(f"{path}: no list of files")
    for i, entry in enumerate(files):
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str) and isinstance(entry.get("sha256"), str)):
            raise ChecksumMismatch(f"{path}: files[{i}] needs a path and a sha256")
    if manifest.get("format") != SNAPSHOT_MAGIC:
        raise ChecksumMismatch(
            f"{path}: format {manifest.get('format')!r}, this version reads {SNAPSHOT_MAGIC}; "
            "rerun the config to rewrite the directory"
        )
    return manifest


def verify_manifest(run_dir) -> dict:
    """Re-hash every listed file; raises ChecksumMismatch on any deviation,
    an entry whose normalized path is absolute or leaves the run directory,
    or a manifest that read_manifest rejects."""
    manifest = read_manifest(run_dir)
    for entry in manifest["files"]:
        rel = os.path.normpath(entry["path"])
        if os.path.isabs(rel) or rel.split(os.sep)[0] == os.pardir:
            raise ChecksumMismatch(
                f"{os.path.join(run_dir, MANIFEST_NAME)}: {entry['path']!r} lies outside the run directory"
            )
        path = os.path.join(run_dir, rel)
        if not os.path.exists(path):
            raise ChecksumMismatch(f"missing file {entry['path']}")
        actual = _sha256(path)
        if actual != entry["sha256"]:
            raise ChecksumMismatch(
                f"checksum mismatch for {entry['path']}: "
                f"expected {entry['sha256'][:12]}..., got {actual[:12]}..."
            )
    return manifest
