"""Outside-in tracer: times the calls into each tpad layer without editing tpad.

`Tracer.installed()` rebinds the callables named in `SPANS` (class attributes
and module globals, each in the namespace its caller looks it up in) to timing
wrappers, and puts every original back on exit. Each span records its call
count, its self time (its own duration minus that of wrapped spans nested
inside it) and, for the spans in `PERCENTILE_SPANS`, every call's duration.

Span names follow ROADMAP item 1, so in-program spans can replace these one
for one.
"""

from __future__ import annotations

import importlib
import math
import time
import weakref
from array import array
from contextlib import contextmanager

# (module, class or None for a module global, attribute, span name, note hook)
# A function imported into several modules is patched in each module whose
# code calls it, so every call site goes through exactly one wrapper.
SPANS = (
    ("tpad.chip", "ProtectedChip", "cycle", "cycle.glue", None),
    ("tpad.chip", None, "eval_wires", "cycle.fault_eval", None),
    ("tpad.chip", None, "lfsr_taps", "cycle.lfsr", None),
    ("tpad.chip", None, "step_lfsr", "cycle.lfsr", None),
    ("tpad.lfsr", "ErrorMonitor", "check", "cycle.monitor", None),
    ("tpad.ram", "ProtectedRam", "cycle", "cycle.ram", "ram_op"),
    ("tpad.chip", "StimulusEncoder", "send", "harness.encode", None),
    ("tpad.chip", "OutputReceiver", "receive", "harness.decode", None),
    ("tpad.parity", "ParityCheckMatrix", "check_bits", "harness.check_bits", None),
    ("tpad.chip", "ProtectedChip", "reset", "campaign.reset", None),
    ("tpad.attacks", None, "compile_attack", "campaign.compile", None),
    ("tpad.attacks", None, "run_campaign", "campaign.glue", "campaign"),
    ("tpad.chip", None, "sample_parity_code", "build.codes", None),
    ("tpad.chip", None, "build_ocp", "build.ocp", None),
    ("tpad.parity", None, "simplify_netlist", "build.simplify", None),
    ("tpad.chip", None, "build_detection_netlist", "build.detection", None),
    ("tpad.netlist", "Netlist", "__init__", "build.netlist", None),
    ("tpad.chip", None, "insert_switchboxes", "build.insert", "insert"),
    ("tpad.switchbox", None, "insert_switchboxes", "build.insert", "insert"),
    ("tpad.chip", None, "apply_config", "build.insert.apply", None),
    ("tpad.switchbox", None, "apply_config", "build.insert.apply", None),
    ("tpad.switchbox", None, "check_equivalence", "build.insert.equiv", None),
    ("tpad.chip", None, "save_chip_bundle", "build.bundle", None),
    ("tpad.chip", None, "load_chip_bundle", "build.bundle", None),
    ("tpad.switchbox", None, "degeneracy_scan", "scan.degeneracy", "scan"),
    ("tpad.fftced", None, "fft", "fft.transform", None),
    ("tpad.fftced", None, "plancherel_residual", "fft.residual", None),
    ("tpad.fftced", None, "white_noise_input", "fft.noise", None),
    ("tpad.fftced", None, "calibrate_threshold", "fft.glue", None),
    ("tpad.fftced", None, "fft_attack_campaign", "fft.glue", None),
)

# Netlist.step_fn is patched separately: its first call per netlist is the
# build.compile span, and the compiled step it returns is timed as
# cycle.f_eval or cycle.d_eval when a chip cycle calls it directly.
STEP_FN = ("tpad.netlist", "Netlist", "step_fn")

SPAN_NAMES = tuple(dict.fromkeys(
    [s[3] for s in SPANS] + ["cycle.f_eval", "cycle.d_eval", "build.compile"]
))

# Spans that reach 1000 calls in some workload; only these keep per-call
# durations for p50/p99.
PERCENTILE_SPANS = (
    "cycle.glue", "cycle.f_eval", "cycle.d_eval", "cycle.fault_eval", "cycle.lfsr",
    "cycle.monitor", "cycle.ram", "harness.encode", "harness.decode",
    "harness.check_bits", "campaign.reset", "campaign.compile", "build.netlist",
    "build.compile", "build.insert.apply", "build.insert.equiv", "fft.transform",
    "fft.residual", "fft.noise",
)
MIN_PERCENTILE_SAMPLES = 1000

COUNTERS = ("cycle.ram.read", "cycle.ram.write", "cycle.ram.idle", "scan.configs",
            "build.insert.kept", "campaign.armed_cycles", "campaign.post_detect_cycles")


class SpanStats:
    __slots__ = ("calls", "self_s", "samples")

    def __init__(self, keep_samples: bool):
        self.calls = 0
        self.self_s = 0.0
        self.samples = array("d") if keep_samples else None


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span statistics for one traced window; install with `installed()`."""

    def __init__(self):
        self.stats = {n: SpanStats(n in PERCENTILE_SPANS) for n in SPAN_NAMES}
        self.counts = dict.fromkeys(COUNTERS, 0)
        # each frame is [time spent in wrapped children, chip or None]
        self._stack = [[0.0, None]]
        self._compiled = weakref.WeakSet()

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name: str, fn, note=None, chip_frame: bool = False):
        st = self.stats[name]
        samples = st.samples
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, args[0] if chip_frame else None]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                st.calls += 1
                st.self_s += dt - frame[0]
                if samples is not None:
                    samples.append(dt)
            if note is not None:
                note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.perfbench_span = name
        return wrapper

    def _wrap_step(self, net, step):
        f_eval = self._timed("cycle.f_eval", step)
        d_eval = self._timed("cycle.d_eval", step)
        stack = self._stack

        def traced_step(*args):
            chip = stack[-1][1]
            if chip is None:  # equivalence checks and other non-cycle callers
                return step(*args)
            return (f_eval if net is chip.f else d_eval)(*args)

        traced_step.__wrapped__ = step
        traced_step.perfbench_span = "cycle.*_eval"
        return traced_step

    def _step_fn(self, original):
        compile_span = self._timed("build.compile", original)
        compiled = self._compiled

        def step_fn(net):
            if net in compiled:
                step = original(net)
            else:
                compiled.add(net)
                step = compile_span(net)
            return self._wrap_step(net, step)

        step_fn.__wrapped__ = original
        step_fn.perfbench_span = "build.compile"
        return step_fn

    # -- notes: counts derived from arguments and results ---------------------

    def _note_ram_op(self, args, kwargs, result):
        self.counts["cycle.ram." + _arg(args, kwargs, 1, "op")] += 1

    def _note_campaign(self, args, kwargs, report):
        cycles = _arg(args, kwargs, 3, "cycles_per_trial")
        for rec in report.records:
            if rec.attack_kind == "none":
                continue
            self.counts["campaign.armed_cycles"] += cycles
            if rec.detected:
                self.counts["campaign.post_detect_cycles"] += cycles - rec.first_detect_cycle - 1

    def _note_insert(self, args, kwargs, obf):
        self.counts["build.insert.kept"] += obf.n_switchboxes

    def _note_scan(self, args, kwargs, report):
        self.counts["scan.configs"] += report.samples

    # -- install / restore -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every callable in the span table; restore them all on exit."""
        notes = {"ram_op": self._note_ram_op, "campaign": self._note_campaign,
                 "insert": self._note_insert, "scan": self._note_scan}
        saved = []
        try:
            for module, cls, attr, name, note in SPANS:
                owner = _owner(module, cls)
                original = vars(owner)[attr]
                wrapped = self._timed(name, original, notes.get(note),
                                      chip_frame=name == "cycle.glue")
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            owner = _owner(*STEP_FN[:2])
            original = vars(owner)[STEP_FN[2]]
            saved.append((owner, STEP_FN[2], original))
            setattr(owner, STEP_FN[2], self._step_fn(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- report ----------------------------------------------------------------

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-span calls, self seconds and (>= 1000 calls) p50/p99 in us.

        Times are multiplied by `scale`, the factor that takes the traced
        window's host seconds to reference-host seconds. p50/p99 read 0 for a
        span with fewer than 1000 calls; the sample count of a percentile is
        the span's `.calls`.
        """
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s * scale
            if st.samples is not None:
                ordered = sorted(st.samples) if st.calls >= MIN_PERCENTILE_SAMPLES else None
                us = 1e6 * scale
                out[f"{name}.p50_us"] = _percentile(ordered, 0.50) * us if ordered else 0.0
                out[f"{name}.p99_us"] = _percentile(ordered, 0.99) * us if ordered else 0.0
        c = self.counts
        for op in ("read", "write", "idle"):
            out[f"cycle.ram.{op}.calls"] = c[f"cycle.ram.{op}"]
        out["scan.configs"] = c["scan.configs"]
        equiv = self.stats["build.insert.equiv"].calls
        out["build.insert.accept_ratio"] = c["build.insert.kept"] / equiv if equiv else 0.0
        armed = c["campaign.armed_cycles"]
        out["campaign.post_detect_frac"] = c["campaign.post_detect_cycles"] / armed if armed else 0.0
        return out


def _owner(module: str, cls):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def patch_targets():
    """(owner, attribute) of every callable the tracer rebinds."""
    targets = [(_owner(m, c), a) for m, c, a, _, _ in SPANS]
    targets.append((_owner(*STEP_FN[:2]), STEP_FN[2]))
    return targets
