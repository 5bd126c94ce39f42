"""The four benchmark workloads: seeded inputs, timed jobs, pinned probes.

Every workload makes all of its inputs from the benchmark seed and hands tpad
only those inputs. `setup` is the work done before the timed phase,
`prepare(state, i)` returns job i of the timed phase as (planned ops, callable)
with its stimulus already drawn, `TRACE_JOBS` is the fixed number of jobs a
traced run times, and `probe()` reruns the workload at
`PIN_SEED` on a fixed size and returns the values pinned in `pins.json` plus
the result of checks against the reference models below.

tpad callables are looked up through their modules at call time (`C.`, `A.`,
...), so the tracer's patches apply to the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import random
import traceback
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_, xor
from pathlib import Path

import numpy as np

from tpad import attacks as A
from tpad import chip as C
from tpad import fftced as F
from tpad import netlist as N
from tpad import switchbox as S
from tpad.lfsr import LfsrSpec

PIN_SEED = 1505


def derive(seed: int, *tags) -> int:
    """64-bit sub-seed for one named input of a workload."""
    return random.Random("/".join(str(t) for t in (seed, *tags))).getrandbits(64)


def lfsr16(r: int) -> LfsrSpec:
    """Degree-16 primitive polynomial with an r-bit tap subset (as `tpad` CLI)."""
    return LfsrSpec(16, 0x1002D, 0xACE1, tuple(range(0, 2 * r, 2))[:r])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- reference models (independent of tpad's evaluators) ------------------------

def reference_eval(net, values, mask: int = 1) -> tuple:
    """Outputs of a combinational gate list, evaluated by depth-first search."""
    val = dict(zip(net.inputs, values))
    drivers = {g.out: g for g in net.gates}
    for root in net.outputs:
        stack = [root]
        while stack:
            w = stack[-1]
            if w in val:
                stack.pop()
                continue
            g = drivers[w]
            pending = [i for i in g.ins if i not in val]
            if pending:
                stack.extend(pending)
                continue
            a = [val[i] for i in g.ins]
            if g.kind in ("AND", "NAND"):
                v = reduce(and_, a)
            elif g.kind in ("OR", "NOR"):
                v = reduce(or_, a)
            elif g.kind == "XOR":
                v = reduce(xor, a)
            elif g.kind in ("NOT", "BUF"):
                v = a[0]
            else:
                v = mask if g.kind == "CONST1" else 0
            if g.kind in ("NAND", "NOR", "NOT"):
                v ^= mask
            val[w] = v
            stack.pop()
    return tuple(val[w] for w in net.outputs)


def truth_table_lanes(m: int) -> tuple[list[int], int]:
    """Input j as a 2^m-lane int whose lane i holds bit j of i."""
    size = 1 << m
    lanes = [sum(1 << i for i in range(size) if (i >> j) & 1) for j in range(m)]
    return lanes, (1 << size) - 1


def lfsr_tap_stream(spec: LfsrSpec):
    """Expected error signal per cycle: the Fibonacci LFSR's tap bits."""
    state = spec.seed
    low = spec.poly & ((1 << spec.degree) - 1)
    while True:
        yield tuple((state >> p) & 1 for p in spec.taps)
        fb = bin(state & low).count("1") & 1
        state = (state >> 1) | (fb << (spec.degree - 1))


# -- shared pieces ---------------------------------------------------------------

def wide_chip(ram: bool):
    """The "wide" chip of the acceptance tests: a random 10-in/48-gate/16-out
    function, r=3, t=2, one pipeline stage.

    It is fixed rather than drawn from the benchmark seed: its build cost
    varies up to threefold between random functions, which would swamp the
    set-up metric, while per-cycle cost hardly depends on it.
    """
    f = N.random_netlist(10, 48, 16, rng_seed=21, name="wide")
    options = C.ChipOptions(pipeline_stages=1, ram_depth=64 if ram else None)
    return C.build_protected_chip(f, 3, 2, lfsr16(3), rng_seed=33, options=options)


def clean_stimulus(chip, srng: random.Random, cycles: int) -> list:
    """Random inputs; with a RAM, 40% write / 40% read / 20% idle traffic."""
    m = len(chip.f.inputs)
    out = []
    for _ in range(cycles):
        x = tuple(srng.getrandbits(1) for _ in range(m))
        op = None
        if chip.ram is not None:
            roll = srng.random()
            if roll < 0.4:
                op = ("write", srng.randrange(chip.ram.depth),
                      srng.randrange(1 << chip.ram.word_width))
            elif roll < 0.8:
                op = ("read", srng.randrange(chip.ram.depth), None)
            else:
                op = ("idle", None, None)
        out.append((x, op))
    return out


@dataclass
class Session:
    """One untampered session: a chip with its trusted sender and receiver."""

    chip: object
    enc: object
    rec: object
    srng: random.Random

    @classmethod
    def start(cls, chip, seed: int) -> "Session":
        chip.reset(derive(seed, "session"))
        return cls(chip, C.StimulusEncoder(chip), C.OutputReceiver(chip),
                   random.Random(derive(seed, "stimulus")))

    def drive(self, stimulus, results=None) -> int:
        """Run the stimulus; return the number of cycles that raised any report."""
        chip, enc, rec = self.chip, self.enc, self.rec
        reports = 0
        for x, op in stimulus:
            res = chip.cycle(x, enc.send(x), ram_op=op)
            bad = res.monitor_attack or res.decode_attack or (res.ram is not None and res.ram.attack)
            bad = rec.receive(res.outputs, res.out_check) or bad
            reports += bad
            if results is not None:
                results.append(res)
        return reports


# -- chip_run ---------------------------------------------------------------------

class ChipRun:
    """One long untampered session on the wide chip with a 64-word RAM."""

    name = "chip_run"
    JOB_CYCLES = 1000
    TRACE_JOBS = 100
    PIN_CYCLES = 3000

    def setup(self, seed: int, workdir: Path):
        # the `tpad build-chip` -> `tpad run` path: build, save, reload
        C.save_chip_bundle(wide_chip(ram=True), workdir / "chip")
        return Session.start(C.load_chip_bundle(workdir / "chip"), seed)

    def prepare(self, session: Session, index: int):
        stimulus = clean_stimulus(session.chip, session.srng, self.JOB_CYCLES)
        return len(stimulus), lambda: (len(stimulus), session.drive(stimulus))

    def probe(self, workdir: Path):
        session = self.setup(PIN_SEED, workdir)
        chip = session.chip
        stimulus = clean_stimulus(chip, session.srng, self.PIN_CYCLES)
        results: list = []
        reports = session.drive(stimulus, results)

        digest = hashlib.sha256()
        memory: dict[int, int] = {}
        taps = lfsr_tap_stream(chip.lfsr_spec)
        mismatches = 0
        for (x, op), res in zip(stimulus, results):
            read = res.ram.data_out if op[0] == "read" else None
            digest.update(repr((res.outputs, res.error_signal, read)).encode())
            if op[0] == "write":
                memory[op[1]] = op[2]
            ok = (res.outputs == reference_eval(chip.f, x)
                  and res.error_signal == next(taps)
                  and (read is None or read == memory.get(op[1], 0)))
            mismatches += not ok
        pins = {"reports": reports, "digest": digest.hexdigest()}
        return pins, len(stimulus), mismatches


# -- campaign ---------------------------------------------------------------------

class Campaign:
    """Detection campaign on the wide chip without RAM, 8 cycles per trial."""

    name = "campaign"
    JOB_TRIALS = 100
    TRACE_JOBS = 60
    PIN_TRIALS = 400
    CYCLES = 8

    def setup(self, seed: int, workdir: Path):
        chip = wide_chip(ram=False)
        # dgate targets: names Netlist.wire resolves (unnamed wires do not)
        names = sorted(set(chip.resolved.wire_names.values()))
        targets = random.Random(derive(seed, "dgate")).sample(names, 4)
        # one entry per attack kind, drawn with equal weight, so no kind's
        # share is a guess; a dgate trial picks one of the four seeded targets
        mix = (
            [A.AttackDescriptor("logic", "fout:*", ("at_cycle", -1), "multi:2")],
            [A.AttackDescriptor("pin", "input:*", ("at_cycle", -1), "pins:0")],
            [A.AttackDescriptor("logic", f"dgate:{n}", ("at_cycle", -1), "flip") for n in targets],
            [A.AttackDescriptor("decoupling_stored_state", "-", ("after_cycle", 2), "replay:2")],
            [A.AttackDescriptor("decoupling_parity_null", "-", ("after_cycle", 1))],
        )
        return chip, mix, seed

    def _run(self, state, trials: int, index: int):
        chip, mix, seed = state
        return A.run_campaign(chip, lambda rng: rng.choice(rng.choice(mix)), trials, self.CYCLES,
                              rng_seed=derive(seed, "campaign", index))

    def prepare(self, state, index: int):
        def job():
            report = self._run(state, self.JOB_TRIALS, index)
            return report.trials, report.false_positives
        return self.JOB_TRIALS, job

    def probe(self, workdir: Path):
        report = self._run(self.setup(PIN_SEED, workdir), self.PIN_TRIALS, 0)
        pins = {"csv_sha256": sha256(report.to_csv()), "detected": report.detected,
                "false_positives": report.false_positives}
        return pins, 0, 0


# -- obfuscate --------------------------------------------------------------------

class Obfuscate:
    """Chip builds at three sizes plus switchbox insertion and a degeneracy scan.

    Build and insertion cost depend on the random function far more than on
    the code: on a 2-vCPU host one 12/150/6 insertion took 0.05 s and
    another 18.6 s. So the
    function netlists and build seeds form a fixed corpus drawn from
    CORPUS_SEED, every run times whole passes over it, and the benchmark seed
    sets the order of the pass and the configurations the scan samples.
    """

    name = "obfuscate"
    # name, inputs, gates, outputs, r, chip options (the ROADMAP Baseline sizes)
    SIZES = (
        ("8x30x6", 8, 30, 6, 3, {"pipeline_stages": 1, "ram_depth": 64}),
        ("10x48x16", 10, 48, 16, 3, {}),
        ("16x120x16", 16, 120, 16, 4, {}),
    )
    INSERT = (12, 150, 6)
    SCAN_SAMPLES = 2000
    CORPUS_SEED = 0
    ENTRIES = 4
    OPS = tuple(size[0] for size in SIZES) + ("insert",)  # one job each
    PASS = ENTRIES * len(OPS)
    TRACE_JOBS = PASS

    def setup(self, seed: int, workdir: Path):
        corpus = []
        for j in range(self.ENTRIES):
            nets = {name: N.random_netlist(m, g, k, rng_seed=derive(self.CORPUS_SEED, name, j),
                                           name=name)
                    for name, m, g, k, _, _ in self.SIZES}
            nets["insert"] = N.random_netlist(*self.INSERT,
                                              rng_seed=derive(self.CORPUS_SEED, "insert", j),
                                              name="ins")
            corpus.append(nets)
        order = list(range(self.ENTRIES))
        random.Random(derive(seed, "order")).shuffle(order)
        return corpus, order, seed

    def _op(self, state, j: int, op: str, built: dict) -> int:
        """Run one op on corpus entry j; return 1 if it raised."""
        corpus, _, seed = state
        nets = corpus[j]
        try:
            if op == "insert":
                obf = S.insert_switchboxes(nets["insert"], 2,
                                           rng_seed=derive(self.CORPUS_SEED, "sb", j))
                built["insert"] = obf
                built["scan"] = S.degeneracy_scan(obf, self.SCAN_SAMPLES,
                                                  rng_seed=derive(seed, "scan", j))
            else:
                _, _, _, _, r, options = next(s for s in self.SIZES if s[0] == op)
                built[op] = C.build_protected_chip(
                    nets[op], r, 2, lfsr16(r), rng_seed=derive(self.CORPUS_SEED, "build", op, j),
                    options=C.ChipOptions(**options))
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            return 1
        return 0

    def prepare(self, state, index: int):
        j = state[1][index // len(self.OPS) % self.ENTRIES]
        op = self.OPS[index % len(self.OPS)]
        return 1, lambda: (1, self._op(state, j, op, {}))

    def probe(self, workdir: Path):
        state = self.setup(PIN_SEED, workdir)
        j = state[1][0]
        built: dict = {}
        failed = sum(self._op(state, j, op, built) for op in self.OPS)
        pins = {"failed": failed}
        checks = mismatches = 0
        if failed:
            return pins, 1, 1
        for name, *_ in self.SIZES:
            chip = built[name]
            pins[name] = sha256(S.serialize_obfuscated(chip.detection)
                                + S.format_config(chip.detection.intended))
            # the obfuscated chip must still run clean
            session = Session.start(chip, PIN_SEED)
            checks += 1
            mismatches += session.drive(clean_stimulus(chip, session.srng, 64)) != 0
        obf = built["insert"]
        pins["insert"] = sha256(S.serialize_obfuscated(obf) + S.format_config(obf.intended))
        pins["scan"] = [built["scan"].samples, built["scan"].equivalent]
        # the intended configuration must realize the original function
        original = state[0][j]["insert"]
        lanes, full = truth_table_lanes(len(original.inputs))
        checks += 1
        mismatches += (reference_eval(S.apply_config(obf, obf.intended), lanes, full)
                       != reference_eval(original, lanes, full))
        return pins, checks, mismatches


# -- fft --------------------------------------------------------------------------

class Fft:
    """N=128 half-precision FFT CED: clean checked transforms and two fault campaigns."""

    name = "fft"
    N = 128
    CAL_TRIALS = 1000
    MARGIN = 2.0
    JOB_CLEAN = 64
    JOB_FLIP_TRIALS = 16  # 24 probes each
    JOB_PERM_TRIALS = 16  # 1 probe each
    TRACE_JOBS = 100
    PIN_JOBS = 2

    def setup(self, seed: int, workdir: Path):
        # criterion 8's reference and threshold; like the wide chip they are
        # fixed, since the threshold sets how many probes a fault campaign runs
        threshold, ref = F.calibrate_threshold(self.N, self.CAL_TRIALS, self.MARGIN, rng_seed=77)
        engine = F.FftCedEngine(self.N, ref, threshold)
        return engine, np.random.default_rng(derive(seed, "clean")), seed

    def _job(self, state, index: int, tally: dict) -> tuple[int, int]:
        engine, npr, seed = state
        clean_fp = 0
        for _ in range(self.JOB_CLEAN):
            _, verdict = engine.run(F.white_noise_input(self.N, npr))
            clean_fp += verdict.attack
        flips = F.fft_attack_campaign(self.N, self.JOB_FLIP_TRIALS, engine.threshold, engine.ref,
                                      rng_seed=derive(seed, "flip", index))
        perms = F.fft_attack_campaign(self.N, self.JOB_PERM_TRIALS, engine.threshold, engine.ref,
                                      rng_seed=derive(seed, "perm", index),
                                      attack="permutation", probes_per_trial=1)
        for key, value in (("clean_fp", clean_fp), ("flip_detected", flips.detected),
                           ("flip_fp", flips.false_positives), ("perm_detected", perms.detected),
                           ("perm_fp", perms.false_positives)):
            tally[key] = tally.get(key, 0) + value
        ops = self.JOB_CLEAN + flips.trials + perms.trials
        return ops, clean_fp + flips.false_positives + perms.false_positives

    def prepare(self, state, index: int):
        ops = self.JOB_CLEAN + self.JOB_FLIP_TRIALS + self.JOB_PERM_TRIALS
        return ops, lambda: self._job(state, index, {})

    def probe(self, workdir: Path):
        state = self.setup(PIN_SEED, workdir)
        pins = {"threshold": float(state[0].threshold).hex()}
        for i in range(self.PIN_JOBS):
            self._job(state, i, pins)
        return pins, 0, 0


WORKLOADS = {w.name: w for w in (ChipRun(), Campaign(), Obfuscate(), Fft())}
