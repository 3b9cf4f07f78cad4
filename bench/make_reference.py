"""Regenerate ``bench/reference.json``, the per-seed outputs that the
benchmark's correctness gate compares each command against.

    python3 bench/make_reference.py FIRST_SEED LAST_SEED

For every workload and seed it runs the workload's commands once, untraced,
requires every gated verdict to pass, and stores the final diagnostics
record of each ``run`` and the distances and monotone flags of each
``sweep-eps``. Regenerate only from a commit whose numerics are trusted:
the stored values are what later commits must reproduce within
``run.REL_TOL``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def reference_for(wl: run.Workload, seed: int) -> dict:
    run.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=run.SCRATCH))
    try:
        cfgs = run.write_configs(wl, tmp)
        entry = {}
        for cfg_name, cmd in wl.commands:
            args = run.fill(cmd, cfgs[cfg_name], tmp, seed)
            child = run.run_child([sys.executable, "-m", "tcm2d", *args], tmp)
            problem = run.gate(args, child, tmp, None)
            if problem is not None:
                raise SystemExit(f"seed {seed}: tcm2d {' '.join(args)}: {problem}")
            if cmd[0] == "run":
                entry["final_record"] = run.final_record(tmp / "run")
            elif cmd[0] == "sweep-eps":
                entry["sweep"] = run.sweep_result(tmp / "sweep")
        return entry
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, last = int(argv[0]), int(argv[1])
    reference = {}
    for name, wl in run.WORKLOADS.items():
        reference[name] = {str(seed): reference_for(wl, seed) for seed in range(first, last + 1)}
        print(f"{name}: seeds {first}..{last}", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    try:
        run.SCRATCH.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
