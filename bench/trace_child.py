"""Run one ``tcm2d`` command in this process with tracing spans around
every public function of each tcm2d module and around the 2-D FFT entry
points of ``numpy.fft`` and ``scipy.fft``.

    python3 bench/trace_child.py SUMMARY.json <tcm2d arguments...>

The library is not modified: wrappers are bound from here, at the home
module and at every tcm2d module that imported the function by name. A
span's self time is its duration minus the time of its child spans; an
FFT call is a leaf span of the ``spectral`` layer. Spans are aggregated in
memory per function and per layer and written to SUMMARY.json when the
command ends. The process exits with the command's own exit code.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("spectral", "model", "records", "derived", "gronwall", "diagnostics", "storage", "config", "cli")
FFT_BACKENDS = ("numpy.fft", "scipy.fft")
FFT_FORWARD = ("fft2", "rfft2", "fftn")
FFT_INVERSE = ("ifft2", "irfft2", "ifftn")
# per-call durations are kept only for these (the spectral operators run
# hundreds of times per step and are aggregated)
KEEP_DURATIONS = ("model.imex_step", "records.make_record")


class Frame:
    __slots__ = ("child_s", "fwd", "inv", "fft_s")

    def __init__(self):
        self.child_s = 0.0
        self.fwd = 0
        self.inv = 0
        self.fft_s = 0.0


class FuncStats:
    """Totals of one traced function over every call."""

    __slots__ = ("calls", "total_s", "self_s", "outer_s", "fwd", "inv", "fft_s", "parents", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0  # calls not nested in a call of the same function
        self.self_s = 0.0
        self.outer_s = 0.0  # calls not nested in another call of the same layer
        self.fwd = 0
        self.inv = 0
        self.fft_s = 0.0
        self.parents = collections.Counter()
        self.durations = []

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    def __init__(self):
        self.stack: list[Frame] = []
        self.names: list[str] = []
        self.active = collections.Counter()
        self.layer_active = collections.Counter()
        self.funcs = collections.defaultdict(FuncStats)
        self.layer_self = collections.Counter()
        self.layer_calls = collections.Counter()
        self.fft_calls = collections.Counter()
        self.fft_s = 0.0
        self.fft_bytes = 0
        self.counters = collections.Counter()
        self.in_fft = False

    def close(self, name: str, layer: str, dur: float, frame: Frame) -> None:
        self.stack.pop()
        self.names.pop()
        self.active[name] -= 1
        self.layer_active[layer] -= 1
        st = self.funcs[name]
        st.calls += 1
        self_s = dur - frame.child_s
        st.self_s += self_s
        if not self.active[name]:
            st.total_s += dur
            st.fwd += frame.fwd
            st.inv += frame.inv
            st.fft_s += frame.fft_s
        if not self.layer_active[layer]:
            st.outer_s += dur
        if name in KEEP_DURATIONS:
            st.durations.append(dur)
        st.parents[self.names[-1] if self.names else ""] += 1
        self.layer_self[layer] += self_s
        self.layer_calls[layer] += 1
        if self.stack:
            parent = self.stack[-1]
            parent.child_s += dur
            parent.fwd += frame.fwd
            parent.inv += frame.inv
            parent.fft_s += frame.fft_s

    def record_fft(self, qualname: str, forward: bool, dur: float, nbytes: int) -> None:
        self.fft_calls[qualname] += 1
        self.fft_s += dur
        self.fft_bytes += nbytes
        self.layer_self["spectral"] += dur
        if self.stack:
            top = self.stack[-1]
            top.child_s += dur
            top.fft_s += dur
            if forward:
                top.fwd += 1
            else:
                top.inv += 1

    def summary(self, import_s: float, exit_code: int) -> dict:
        import numpy
        import scipy

        return {
            "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
            "import_s": import_s,
            "exit_code": exit_code,
            "funcs": {name: st.as_dict() for name, st in self.funcs.items()},
            "layer_self_s": dict(self.layer_self),
            "layer_calls": dict(self.layer_calls),
            "fft_calls": dict(self.fft_calls),
            "fft_s": self.fft_s,
            "fft_bytes": self.fft_bytes,
            "counters": dict(self.counters),
        }


def _size(path) -> int:
    return os.path.getsize(path)


def _hooks(tracer: Tracer) -> dict:
    """Counters taken from a call's arguments and result, outside its span."""
    c = tracer.counters

    def wrote(args, kwargs, result):
        c["storage.bytes_written"] += _size(args[0])
        c["storage.files_written"] += 1

    def wrote_manifest(args, kwargs, result):
        c["storage.bytes_written"] += _size(result)
        c["storage.files_written"] += 1

    def read(args, kwargs, result):
        c["storage.bytes_read"] += _size(args[0])

    def read_manifest(args, kwargs, result):
        from tcm2d.storage import MANIFEST_NAME

        c["storage.bytes_read"] += _size(os.path.join(args[0], MANIFEST_NAME))

    def verified(args, kwargs, result):
        c["storage.bytes_read"] += sum(_size(os.path.join(args[0], e["path"])) for e in result["files"])

    def simulated(args, kwargs, result):
        if tracer.active["diagnostics.epsilon_sweep"]:
            c["diagnostics.snapshots_held"] += len(result.snapshots)

    return {
        "storage.write_field_snapshot": wrote,
        "storage.write_diagnostics_csv": wrote,
        "storage.write_gronwall_csv": wrote,
        "storage.write_manifest": wrote_manifest,
        "storage.read_field_snapshot": read,
        "storage.read_diagnostics_csv": read,
        "storage.read_gronwall_csv": read,
        "storage.read_manifest": read_manifest,
        "storage.verify_manifest": verified,
        "model.simulate": simulated,
    }


def _wrap(tracer: Tracer, layer: str, fn, hook):
    name = f"{layer}.{fn.__name__}"
    clock = time.perf_counter
    stack, names, active, layer_active = tracer.stack, tracer.names, tracer.active, tracer.layer_active

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = Frame()
        stack.append(frame)
        names.append(name)
        active[name] += 1
        layer_active[layer] += 1
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(name, layer, clock() - t0, frame)
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return traced


def _wrap_fft(tracer: Tracer, backend: str, fn, forward: bool):
    qualname = f"{backend}.{fn.__name__}"
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(a, *args, **kwargs):
        if tracer.in_fft:  # a backend calling its own public entry point
            return fn(a, *args, **kwargs)
        tracer.in_fft = True
        t0 = clock()
        try:
            out = fn(a, *args, **kwargs)
        finally:
            tracer.in_fft = False
        dur = clock() - t0
        # bytes of the complex operand, computed from its shape (not measured)
        nbytes = out.nbytes if out.dtype.kind == "c" else getattr(a, "nbytes", 0)
        tracer.record_fft(qualname, forward, dur, nbytes)
        return out

    return traced


def install(tracer: Tracer) -> None:
    """Bind the wrappers at every place a traced function is reachable by name."""
    import tcm2d  # noqa: F401  (imports every layer)

    originals = {}
    hooks = _hooks(tracer)
    for layer in LAYERS:
        mod = importlib.import_module(f"tcm2d.{layer}")
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            originals[id(fn)] = (fn, _wrap(tracer, layer, fn, hooks.pop(f"{layer}.{attr}", None)))
    for backend in FFT_BACKENDS:
        mod = importlib.import_module(backend)
        for attr in FFT_FORWARD + FFT_INVERSE:
            fn = getattr(mod, attr)
            wrapped = _wrap_fft(tracer, backend, fn, attr in FFT_FORWARD)
            setattr(mod, attr, wrapped)
            originals[id(fn)] = (fn, wrapped)

    if hooks:
        raise SystemExit(f"trace_child: hooked functions not found: {sorted(hooks)}")
    for modname, mod in list(sys.modules.items()):
        if modname != "tcm2d" and not modname.startswith("tcm2d."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: trace_child.py SUMMARY.json <tcm2d arguments...>", file=sys.stderr)
        return 2
    summary_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import tcm2d.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = tcm2d.cli.main(cli_args)
    if tracer.stack:
        raise SystemExit("trace_child: spans left open")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(import_s, code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
