"""On-disk formats: binary state snapshots, CSV tables (the diagnostics, the
Gronwall series and the check, sweep and twin series) and the run manifest.

A snapshot is one file per state, ``step_NNNNNNNN.bin``: a one-line ASCII
header

    TCM3 n=<n> L=<length> t=<time> eps=<eps> fields=u_x,u_y,v_x,v_y,theta

followed by the block of each field's ``rfft2`` half-plane spectrum that
the two-thirds mask keeps (``model.kept_block``), in the order the header
names: with k = n // 3, the rows [0, k] and then [n - k, n) of the columns
[0, k], (2k + 1) x (k + 1) little-endian complex128, row-major (43 x 22 at
n = 64). That payload is the state itself (``model.State.spec``): it is
written and read back as it is, bit for bit, with no transform and no
change of layout. Grid samples are ``numpy.fft.irfft2(spec, s=(n, n))``
of the block scattered into the half plane with zeros at every other
mode.

CSVs carry a fixed header row and 17-significant-digit decimal floats, so
identical runs produce byte-identical files. Each writer returns the
SHA-256 of the bytes it wrote, and the manifest lists every artifact with
that checksum, so writing it re-reads nothing, and names the snapshot
format. A run directory of another format (the whole-half-plane ``TCM2``
files, the per-field ``TCM1`` files of grid samples) is rejected, not
read.

A run directory's layout is stated here alone, and :class:`RunWriter` is
its one writer.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import re
import time

import numpy as np

from .errors import BadParams, BadSeries, ChecksumMismatch, ConfigParseError
from .model import State, kept_block
from .records import COLUMNS, DiagnosticsSeries
from .spectral import Grid

SNAPSHOT_MAGIC = "TCM3"
FIELD_NAMES = ("u_x", "u_y", "v_x", "v_y", "theta")
# the files of a run directory
CONFIG_NAME = "config.cfg"
DIAGNOSTICS_NAME = "diagnostics.csv"
MANIFEST_NAME = "manifest.json"
SNAPSHOT_DIR = "snapshots"  # a run directory's snapshot subdirectory
# the file name snapshot_path makes; group 1 is the step
_SNAPSHOT_NAME = re.compile(r"step_(\d{8,})\.bin")
# the per-field files of the TCM1 format, cleared with stale snapshots
_TCM1_NAME = re.compile(r"step_\d{8,}\.(?:%s)\.bin" % "|".join(FIELD_NAMES))
_SPEC_DTYPE = np.dtype("<c16")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# snapshots


def write_field_snapshot(path, state: State) -> str:
    """Write ``state`` to ``path`` as one TCM3 file, its header and then its
    block as it is; returns the SHA-256 of the bytes written. A non-finite
    field is written as the block holds it: the step's guard reports it
    (NonFiniteState), not this one."""
    g = state.grid
    header = (
        f"{SNAPSHOT_MAGIC} n={g.n} L={g.length!r} t={state.t!r} "
        f"eps={state.eps!r} fields={','.join(FIELD_NAMES)}\n"
    ).encode("ascii")
    block = np.ascontiguousarray(state.spec, dtype=_SPEC_DTYPE)
    digest = hashlib.sha256(header)
    digest.update(block)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(block)
    return digest.hexdigest()


def read_field_snapshot(path) -> State:
    """The state a TCM3 file holds, its block as read. A malformed file
    raises ConfigParseError naming it."""
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
            lo, hi, cols = kept_block(n)
            shape = (len(FIELD_NAMES), n - hi + lo, cols)
            # checked before the grid is built, so a corrupt n allocates nothing
            payload = os.fstat(fh.fileno()).st_size - fh.tell()
            if payload != math.prod(shape) * _SPEC_DTYPE.itemsize:
                raise ValueError(f"{payload} payload bytes do not hold five {shape[1]} x {cols} blocks")
            grid = Grid(n, float(meta["L"]))
            t, eps = float(meta["t"]), float(meta["eps"])
        except (KeyError, ValueError, BadParams) as exc:
            raise ConfigParseError(f"{path}: line 1: bad {SNAPSHOT_MAGIC} header: {exc!r}") from exc
        block = np.empty(shape, dtype=_SPEC_DTYPE)
        if fh.readinto(block) != block.nbytes:
            raise ConfigParseError(f"{path}: truncated while reading")
    try:
        return State(grid, block, t, eps)
    except BadParams as exc:
        raise ConfigParseError(f"{path}: line 1: bad {SNAPSHOT_MAGIC} header: {exc}") from exc


def snapshot_path(directory, step: int) -> str:
    """The path of the snapshot of ``step`` in the snapshot directory."""
    return os.path.join(directory, f"step_{step:08d}.bin")


def write_state_snapshot(directory, state: State, step: int) -> tuple[str, str]:
    """Write the snapshot of ``step`` into ``directory``; returns its path
    and the SHA-256 of its bytes."""
    os.makedirs(directory, exist_ok=True)
    path = snapshot_path(directory, step)
    return path, write_field_snapshot(path, state)


def read_state_snapshot(directory, step: int) -> State:
    return read_field_snapshot(snapshot_path(directory, step))


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


def _write_line(fh, digest, cells) -> None:
    # one CSV line of the string cells, into fh and the running SHA-256
    line = (",".join(cells) + "\n").encode("ascii")
    digest.update(line)
    fh.write(line)


def write_csv(path, columns, rows) -> str:
    """Write a header row of ``columns`` and one line per row of ``rows``,
    every cell a 17-significant-digit float; returns the SHA-256 of the
    bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for cells in itertools.chain([columns], (map(_fmt, row) for row in rows)):
            _write_line(fh, digest, cells)
    return digest.hexdigest()


def write_diagnostics_csv(path):
    """Open the diagnostics CSV ``path`` with its header row written, for a
    run's rows to follow (:meth:`RunWriter.record`); returns the open file
    and the running SHA-256 of its bytes."""
    fh, digest = open(path, "wb"), hashlib.sha256()
    _write_line(fh, digest, COLUMNS)
    return fh, digest


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
    """The series of a diagnostics CSV, its table as read; a malformed row
    raises ConfigParseError naming its line."""
    return DiagnosticsSeries(_read_table(path, COLUMNS))


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


def write_manifest(run_dir, config_text: str, version: str, started: float, files: dict) -> str:
    """Inventory every artifact, paths relative to run_dir, with the checksum
    its writer returned: ``files`` maps each path to the SHA-256 of the bytes
    written there. Opens no file but the manifest; returns its path."""
    entries = [{"path": os.path.relpath(path, run_dir), "sha256": digest} for path, digest in sorted(files.items())]
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


# ---------------------------------------------------------------------------
# run directory


class RunWriter(contextlib.AbstractContextManager):
    """The one writer of a run directory, as a ``with`` block around a run.

    Opening it removes an earlier manifest and writes ``config.cfg`` and the
    header of ``diagnostics.csv``; :meth:`snapshot` and :meth:`record` write
    each snapshot and each row (flushed at once) as ``model.simulate`` hands
    them over. Leaving the block closes the CSV and removes the snapshot
    files this run did not write (a longer earlier run's, a TCM1 run's);
    left normally, it writes the manifest from the checksums its own writes
    returned. A run stopped by an exception keeps its config, rows and
    snapshots so far but no manifest, so ``check --run-dir`` refuses it.
    """

    def __init__(self, run_dir, config_text: str, version: str):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(run_dir, MANIFEST_NAME))
        self.run_dir, self.config_text, self.version = run_dir, config_text, version
        self.started = time.time()
        self.snap_dir = os.path.join(run_dir, SNAPSHOT_DIR)
        os.makedirs(self.snap_dir, exist_ok=True)
        self.rows = self.snapshots = 0
        path, data = os.path.join(run_dir, CONFIG_NAME), config_text.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        self.files = {path: hashlib.sha256(data).hexdigest()}  # path -> the SHA-256 of its bytes
        self.csv_path = os.path.join(run_dir, DIAGNOSTICS_NAME)
        self.csv, self.digest = write_diagnostics_csv(self.csv_path)

    def snapshot(self, step: int, state: State) -> None:
        path, digest = write_state_snapshot(self.snap_dir, state, step)
        self.files[path] = digest
        self.snapshots += 1

    def record(self, row) -> None:
        _write_line(self.csv, self.digest, map(_fmt, row))
        self.csv.flush()
        self.rows += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        self.csv.close()
        keep = {os.path.basename(path) for path in self.files}
        for name in os.listdir(self.snap_dir):
            if name not in keep and (_SNAPSHOT_NAME.fullmatch(name) or _TCM1_NAME.fullmatch(name)):
                os.remove(os.path.join(self.snap_dir, name))
        if exc_type is None:
            self.files[self.csv_path] = self.digest.hexdigest()
            write_manifest(self.run_dir, self.config_text, self.version, self.started, self.files)
