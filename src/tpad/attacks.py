"""Attack taxonomy, injection, detection campaigns, and analytic calculators.

Attack kinds follow the pin / core / decoupling taxonomy: pin attacks flip
wires between pad and core, logic attacks force or flip gate outputs,
electrical attacks appear as capture-time bit flips with a per-cycle
probability, reliability attacks engage a permanent stuck-at after an
activation cycle, and decoupling attacks feed the checking circuitry valid
data while hijacking the main path. Campaigns run seeded trials against a
chip, count monitor or receiver detections, and pair every trial with an
attack-free control run that must stay silent.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .chip import (
    HISTORY_DEPTH,
    AttackEffect,
    ProtectedChip,
    check_trigger,
    closed_loop,
)
from .lanes import lanes_of, pack_lanes
from .netlist import _FAULTS, Netlist, text_lines
from .parity import ParityCheckMatrix
from .ram import RAM_TROJANS
from .rng import Rng, as_rng, random_bits

ATTACK_KINDS = (
    "pin",
    "logic",
    "electrical",
    "reliability",
    "decoupling_stored_state",
    "decoupling_parity_null",
    "decoupling_fft_zero",
)


@dataclass(frozen=True)
class AttackDescriptor:
    """Taxonomy-tagged mutation applied to a chip or channel.

    target grammar:
        input:<i> | recv_check:<i> | output:<i>   pad-side wires
        fout:<i>                                   function output wire
        fgate:<name> | dgate:<name>                gate by wire name
        ram:<trojan_row>                           protected-RAM behavior
        - (empty) for decoupling payloads
        fout:* | input:*                           campaign wildcards, wires drawn per trial

    trigger: ("always",) | ("at_cycle", n) | ("after_cycle", n) | ("random", p), where
    ("at_cycle", -1) draws n per trial. A trigger must fire within the run: compile_attack
    refuses at_cycle n outside [0, cycles) and after_cycle n >= cycles.
    """

    kind: str
    target: str = "-"
    trigger: tuple = ("always",)
    payload: str = "flip"  # flip | stuck0 | stuck1 | replay:<j>

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")

    def __str__(self) -> str:
        """The attack-file line parse_attack_line reads back as this descriptor."""
        trigger = ":".join(map(str, self.trigger))
        return f"{self.kind} {self.payload} target={self.target} trigger={trigger}"


_TRIGGER_RE = re.compile(
    r"^(always|at_cycle:\d+|after_cycle:\d+|random:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)$")


def parse_attack_line(line: str) -> AttackDescriptor:
    """One attack per line: 'logic flip gate=g7 trigger=at_cycle:120'."""
    parts = line.split()
    if len(parts) < 2:
        raise ValueError(f"bad attack line {line!r}")
    kind, payload = parts[0], parts[1]
    given: dict[str, str] = {}
    for tok in parts[2:]:
        if "=" not in tok:
            raise ValueError(f"bad attack token {tok!r}")
        key, val = tok.split("=", 1)
        name = "target" if key in ("gate", "target", "wire") else key
        if name not in ("target", "trigger"):
            raise ValueError(f"unknown attack key {key!r}")
        if name in given:
            raise ValueError(f"repeated attack key {key!r}")
        given[name] = val
    val = given.get("trigger", "always")
    mode, _, arg = val.partition(":")
    if not _TRIGGER_RE.match(val) or mode == "random" and float(arg) > 1.0:
        raise ValueError(f"bad trigger {val!r}: expected always, at_cycle:N, "
                         "after_cycle:N or random:P with 0 <= P <= 1")
    trigger = (mode, float(arg) if mode == "random" else int(arg)) if arg else (mode,)
    return AttackDescriptor(kind, given.get("target", "-"), trigger, payload)


def parse_attack_file(text: str) -> list[AttackDescriptor]:
    """One attack per line, `#` comments; a bad line's error starts with `line N:`."""
    return [atk for _, atk in _attack_lines(text)]


def _attack_lines(text: str) -> Iterator[tuple[int, AttackDescriptor]]:
    """parse_attack_file's descriptors, each with its line number."""
    for lineno, line in text_lines(text):
        try:
            atk = parse_attack_line(line)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        yield lineno, atk


def _bounded_int(text: str, lo: int, hi: int, what: str) -> int:
    """text as an integer in [lo, hi], else a ValueError that names `what`."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not lo <= value <= hi:
        raise ValueError(f"{what}: expected an integer in [{lo}, {hi}], got {text!r}")
    return value


# target prefix -> the payloads it takes; pads and RAM trojans only flip
_TARGET_PAYLOADS = {**dict.fromkeys(("input", "recv_check", "output", "ram"), ("flip",)),
                    **dict.fromkeys(("fout", "fgate", "dgate"), tuple(_FAULTS))}

# campaign wildcard target -> (the one kind it takes, the payloads it takes, and how to write them)
_WILDCARDS = {
    "fout:*": ("logic", re.compile(r"flip|multi:[1-9]\d*(:\d+)?"), "flip|multi:<lo>[:<hi>]"),
    "input:*": ("pin", re.compile(r"flip|pins:\d+"), "flip|pins:<cap>"),
}


def compile_attack(chip: ProtectedChip, atk: AttackDescriptor, rng: random.Random,
                   cycles: int) -> AttackEffect:
    """The effect `atk` arms on `chip` in a run of `cycles` cycles, drawn from rng:
    ("at_cycle", -1)'s cycle (rng.randrange(cycles)), then fout:*'s weight and wires
    or input:*'s count and pins. Gate names resolve as bundle netlists write them.
    Refused here, not mid-simulation, with a ValueError that starts with the
    descriptor and names the bad field: a target the chip lacks, a bad replay depth or
    RAM row, a payload the target does not take (_TARGET_PAYLOADS, _WILDCARDS; decoupling
    takes `-`), a wildcard of another kind, a trigger check_trigger refuses, a random
    reliability trigger and one that fires on no cycle of the run."""
    try:
        return _compile_attack(chip, atk, rng, cycles)
    except ValueError as e:
        raise ValueError(f"attack '{atk}': {e}") from None


def _compile_attack(chip: ProtectedChip, atk: AttackDescriptor, rng: random.Random,
                    cycles: int) -> AttackEffect:
    kind, target, payload, trigger = atk.kind, atk.target, atk.payload, atk.trigger
    prefix, _, arg = target.partition(":")
    check_trigger(trigger)
    if target in _WILDCARDS:
        only, form, expected = _WILDCARDS[target]
        if not form.fullmatch(payload):
            raise ValueError(f"payload {payload!r}: target {target} takes {expected}")
        if kind != only:
            raise ValueError(f"kind {kind!r}: target {target} takes only {only} attacks")
    if trigger == ("at_cycle", -1):
        trigger = ("at_cycle", rng.randrange(cycles))
    if kind == "reliability":  # permanent from its (drawn) cycle on
        if trigger[0] == "random":
            raise ValueError(f"trigger 'random:{trigger[1]}': a reliability attack takes "
                             "always, at_cycle:N or after_cycle:N")
        trigger = ("after_cycle", trigger[1] if len(trigger) > 1 else 0)
    mode = trigger[0]
    if (mode == "at_cycle" and not 0 <= trigger[1] < cycles
            or mode == "after_cycle" and trigger[1] >= cycles):
        raise ValueError(f"trigger {':'.join(map(str, atk.trigger))!r}: "
                         f"fires on no cycle of a run of {cycles} cycles")
    eff = AttackEffect(kind=kind, trigger=trigger)

    def idx(size: int) -> int:
        return _bounded_int(arg, 0, size - 1, f"target {target!r}")

    def wire(net) -> int:
        try:
            return net.wire(arg)
        except KeyError:
            raise ValueError(f"target {target!r}: {net.name} has no such wire") from None

    if target == "fout:*":
        k = len(chip.f.outputs)
        w = 1
        if payload != "flip":  # multi:<lo>[:<hi>]
            _, lo, *hi = payload.split(":")
            lo = min(int(lo), k)
            w = rng.randint(lo, max(lo, min(int(hi[0]) if hi else k, k)))
        eff.f_overrides = dict.fromkeys(rng.sample(chip.f.outputs, min(w, k)), "flip")
    elif target == "input:*":
        m = len(chip.f.inputs)
        cap = int(payload[5:]) if payload != "flip" else 0  # pins:<cap>, 0 for no cap
        eff.input_flips = tuple(rng.sample(range(m), rng.randint(1, max(1, min(cap or m, m)))))
    elif kind == "decoupling_fft_zero":
        raise ValueError("fft reference zeroing applies to the FFT engine, not a chip")
    elif kind.startswith("decoupling_"):
        if target != "-":
            raise ValueError(f"target {target!r}: a decoupling attack takes target '-'")
        stored = kind == "decoupling_stored_state"
        eff.replay_depth = int(stored)  # the default payload, flip, replays the previous cycle
        if stored and payload.startswith("replay:"):
            eff.replay_depth = _bounded_int(payload[7:], 1, HISTORY_DEPTH,
                                            f"replay depth of {payload!r}")
        elif payload != "flip":
            raise ValueError(f"payload {payload!r}: {kind} takes flip" + " or replay:<j>" * stored)
    elif (modes := _TARGET_PAYLOADS.get(prefix)) is None:
        raise ValueError(f"unknown target {target!r}")
    elif payload not in modes:
        raise ValueError(f"payload {payload!r}: {prefix} targets take {'|'.join(modes)}")
    elif prefix == "input":
        eff.input_flips = (idx(len(chip.f.inputs)),)
    elif prefix == "recv_check":
        eff.recv_flips = (idx(chip.r),)
    elif prefix == "output":
        eff.output_flips = (idx(len(chip.f.outputs)),)
    elif prefix == "fout":
        eff.f_overrides = {chip.f.outputs[idx(len(chip.f.outputs))]: payload}
    elif prefix == "fgate":
        eff.f_overrides = {wire(chip.f): payload}
    elif prefix == "dgate":
        eff.d_overrides = {wire(chip.resolved): payload}
    elif chip.ram is None:
        raise ValueError(f"target {target!r}: the chip has no RAM")
    elif arg not in RAM_TROJANS:
        raise ValueError(f"target {target!r}: expected one of {', '.join(RAM_TROJANS)}")
    else:
        eff.ram_trojan = arg
    return eff


# -- campaigns -----------------------------------------------------------------------


def normal_interval(p: float, trials: int) -> tuple[float, float]:
    """Normal-approximation 95% binomial interval for a rate p over trials, within [0, 1]."""
    half = 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / trials)
    return max(0.0, p - half), min(1.0, p + half)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    attack_kind: str
    detected: bool
    first_detect_cycle: Optional[int]


@dataclass
class DetectionReport:
    """A campaign's fired controls and its records, one per trial; every
    other count is read off the records, so none can disagree with them."""

    false_positives: int
    records: list[TrialRecord]

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def detected(self) -> int:
        return sum(rec.detected for rec in self.records)

    @property
    def by_kind(self) -> dict[str, tuple[int, int]]:
        """attack kind -> (trials, detected) over the trials that armed an attack."""
        counts: dict[str, tuple[int, int]] = {}
        for rec in self.records:
            if rec.attack_kind != "none":
                n, hits = counts.get(rec.attack_kind, (0, 0))
                counts[rec.attack_kind] = (n + 1, hits + rec.detected)
        return counts

    @property
    def detection_rate(self) -> float:
        return self.detected / self.trials if self.trials else 0.0

    def confidence_interval(self) -> tuple[float, float]:
        """normal_interval of the detection rate; (0, 0) for no trials."""
        return normal_interval(self.detection_rate, self.trials) if self.trials else (0.0, 0.0)

    def to_csv(self) -> str:
        lines = ["trial,attack_kind,detected,first_detect_cycle"]
        for rec in self.records:
            cyc = "" if rec.first_detect_cycle is None else str(rec.first_detect_cycle)
            lines.append(f"{rec.trial},{rec.attack_kind},{int(rec.detected)},{cyc}")
        lines.append(
            f"summary,all,{self.detected}/{self.trials},"
            f"rate={self.detection_rate:.6f};false_positives={self.false_positives}"
        )
        return "\n".join(lines) + "\n"


AttackGenerator = Callable[[random.Random], Optional[AttackDescriptor]]


def uniform_output_flip_attacks(min_flips: int = 2) -> AttackGenerator:
    """Uniform multi-bit flips on the function outputs at a random cycle."""
    atk = AttackDescriptor("logic", "fout:*", ("at_cycle", -1), f"multi:{min_flips}")
    return lambda rng: atk


# Trials per campaign batch; see _run_lanes. At 128 to 512 lanes, a call to the
# clock, the encoder, the receiver or the fault interpreter costs about the same.
CAMPAIGN_BATCH = 256


def _stimulus(chip: ProtectedChip, seed: int, cycles: int) -> tuple[bytes, list[Optional[tuple]]]:
    """One trial's input bits (cycle after cycle) and RAM operations, from random.Random(seed).

    The bits are the getrandbits(1) draws of each cycle's inputs, taken in
    one call (random_bits): for the whole trial, or on a RAM chip for each
    cycle before that cycle's memory operation.
    """
    srng = random.Random(seed)
    m = len(chip.f.inputs)
    if chip.ram is None:
        return random_bits(srng, m * cycles), [None] * cycles
    bits: list[bytes] = []
    ram_ops: list[Optional[tuple]] = []
    for _ in range(cycles):
        bits.append(random_bits(srng, m))
        ram_ops.append(chip.ram.random_op(srng))
    return b"".join(bits), ram_ops


def _run_lanes(chip: ProtectedChip, trials: Sequence[tuple[int, int, Optional[AttackEffect]]],
               cycles: int) -> list[Optional[int]]:
    """Run every (stimulus seed, session seed, effect) trial twice, side by side in lanes.

    Lane i runs trial i of n with its effect and lane n + i runs it without,
    as its control. Returns each lane's first reporting cycle under
    `closed_loop` (None if it never reported).
    """
    n = len(trials)
    chip.clear_attacks()
    chip.reset([session for _, session, _ in trials] * 2)
    for i, (_, _, effect) in enumerate(trials):
        if effect is not None:
            chip.install_attack(effect, 1 << i)
    stimuli = [_stimulus(chip, stim, cycles) for stim, _, _ in trials]
    spread = 1 | 1 << n  # copies the n armed lanes to the n control lanes
    columns = [v * spread for v in pack_lanes([bits for bits, _ in stimuli])]
    m = len(chip.f.inputs)
    # lanes i and n + i run trial i's memory operation
    feed = ((columns[cyc * m:(cyc + 1) * m],
             None if chip.ram is None else [ops[cyc] for _, ops in stimuli] * 2)
            for cyc in range(cycles))
    first: list[Optional[int]] = [None] * (2 * n)
    fired = 0
    for cyc, (_, bad) in enumerate(closed_loop(chip, feed)):
        new = bad & ~fired
        fired |= new
        for j in lanes_of(new):
            first[j] = cyc
    chip.clear_attacks()
    return first


def run_campaign(
    chip: ProtectedChip,
    attack_generator: AttackGenerator,
    trials: int,
    cycles_per_trial: int,
    rng_seed: Rng = None,
) -> DetectionReport:
    """Seeded trials: fresh chip state, one sampled attack, fixed cycle budget.

    Detection means a report (`chip.closed_loop`: receiver, monitor or input
    decoder) on any cycle of the trial. Every trial is paired with an
    attack-free control run over the same stimulus; any report there counts
    as a false positive (the architecture's contract is that there are
    none). Chips with a protected RAM also see random memory traffic each
    cycle.

    Trials run CAMPAIGN_BATCH at a time, each armed run and its control in
    lanes of one chip (each lane with its own memory on a RAM chip), and give
    the records a one-lane run per trial gives.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if cycles_per_trial < 1:
        raise ValueError("cycles_per_trial must be >= 1")
    rng = as_rng(rng_seed)
    false_positives = 0
    records: list[TrialRecord] = []
    for start in range(0, trials, CAMPAIGN_BATCH):
        plans = []
        for _ in range(min(CAMPAIGN_BATCH, trials - start)):
            atk = attack_generator(rng)
            stim_seed = rng.getrandbits(64)
            session_seed = rng.getrandbits(64)
            effect = compile_attack(chip, atk, rng, cycles_per_trial) if atk is not None else None
            plans.append((stim_seed, session_seed, effect))
        first = _run_lanes(chip, plans, cycles_per_trial)
        n = len(plans)
        for i, (_, _, effect) in enumerate(plans):
            trial = start + i
            hit = first[i] is not None
            if effect is not None:
                records.append(TrialRecord(trial, effect.kind, hit, first[i]))
            else:
                records.append(TrialRecord(trial, "none", False, None))
            false_positives += first[n + i] is not None
    return DetectionReport(false_positives, records)


# -- analytic reverse-engineering calculators ------------------------------------------


def cp_attack_probability(theta: float, x: int) -> float:
    """Chance of guessing a cone's whole configuration at per-SB odds 1-theta."""
    if not 0 <= theta <= 1:
        raise ValueError("theta must be in [0, 1]")
    if x < 0:
        raise ValueError("x must be >= 0")
    return (1.0 - theta) ** x

def per_sb_attack_probability(p_per_sb: float, x: int) -> float:
    """Success probability p per switchbox, compounded over x of them."""
    if not 0 <= p_per_sb <= 1:
        raise ValueError("p must be in [0, 1]")
    if x < 0:
        raise ValueError("x must be >= 0")
    return p_per_sb ** x


# -- subcircuit matching attack ---------------------------------------------------------


def _as_digraph(net: Netlist):
    import networkx as nx

    g = nx.DiGraph()
    for gate in net.gates:
        g.add_node(gate.out, kind=gate.kind)
    by_out = {gate.out: gate for gate in net.gates}
    for gate in net.gates:
        for w in gate.ins:
            if w in by_out:
                g.add_edge(w, gate.out)
    return g


def _random_subcircuit(net: Netlist, rng: random.Random, max_size: int,
                       min_size: int = 2) -> Optional[list[int]]:
    """Connected gate set grown backward from a random root.

    Growth retries up to 16 roots until the subcircuit reaches min_size; a lone
    gate matches anywhere of the same kind and carries no structure worth
    calling a subcircuit.
    """
    if not net.gates:
        return None
    by_out = {g.out: g for g in net.gates}
    best: Optional[list[int]] = None
    for _ in range(16):
        root = rng.choice(net.gates).out
        chosen = [root]
        frontier = [w for w in by_out[root].ins if w in by_out]
        while frontier and len(chosen) < max_size:
            w = rng.choice(frontier)
            frontier.remove(w)
            if w in chosen:
                continue
            chosen.append(w)
            frontier.extend(q for q in by_out[w].ins if q in by_out and q not in chosen)
        if len(chosen) >= min_size:
            return chosen
        if best is None or len(chosen) > len(best):
            best = chosen
    return best


def subcircuit_match_attack(
    f: Netlist,
    ocp: Netlist,
    h_logic: ParityCheckMatrix,
    trials: int,
    rng_seed: Rng = None,
    max_size: int = 6,
    min_size: int = 2,
) -> float:
    """Attacker success rate for matched-subcircuit double flips.

    Per trial: pick a random connected subcircuit of f (up to max_size
    gates), search the predictor netlist for a node-kind-preserving
    occurrence, flip the outputs of both, and test whether any probe input
    (every input pattern when f has at most 12 inputs, else 64 random ones,
    one getrandbits(64) lane int per input) still exposes predictor !=
    recomputed check bits. No match counts as an attacker failure. Success
    means the tampering was never detected.
    """
    import networkx as nx
    from .netlist import eval_wires, input_patterns

    rng = as_rng(rng_seed)
    g_ocp = _as_digraph(ocp)
    by_out_f = {g.out: g for g in f.gates}
    success = 0
    m = len(f.inputs)
    exhaustive = m <= 12
    pats, full = input_patterns(m) if exhaustive else ((), (1 << 64) - 1)

    for _ in range(trials):
        sub = _random_subcircuit(f, rng, max_size, min_size)
        if not sub:
            continue
        pattern = nx.DiGraph()
        for w in sub:
            pattern.add_node(w, kind=by_out_f[w].kind)
        for w in sub:
            for q in by_out_f[w].ins:
                if q in sub:
                    pattern.add_edge(q, w)
        matcher = nx.algorithms.isomorphism.DiGraphMatcher(
            g_ocp, pattern,
            node_match=lambda a, b: a.get("kind") == b.get("kind"),
        )
        mapping = None
        for iso in matcher.subgraph_monomorphisms_iter():
            mapping = iso
            break
        if mapping is None:
            continue
        root_f = sub[0]
        root_ocp = next(big for big, small in mapping.items() if small == root_f)

        if not exhaustive:
            pats = tuple(rng.getrandbits(64) for _ in range(m))
        fo, _ = eval_wires(f, pats, (), {root_f: "flip"}, mask=full)
        po, _ = eval_wires(ocp, pats, (), {root_ocp: "flip"}, mask=full)
        if po == h_logic.check_bits(fo):  # no probe tells them apart
            success += 1
    return success / trials


# -- decoupling cost and destructive sampling -------------------------------------------


def decoupling_cost(
    kind: str,
    outputs: Optional[int] = None,
    check_bits: Optional[int] = None,
    flip_flops: Optional[int] = None,
    fft_points: Optional[int] = None,
) -> dict[str, int]:
    """Minimum extra hardware an attacker needs for a decoupling attack.

    parity_null needs 2 transistors per primary output plus one flip-flop
    per check bit; stored_state needs one extra flip-flop per state bit;
    fft_zero needs 120 transistors per FFT point (two per non-sign bit of
    the four reference half words).
    """
    if kind == "parity_null":
        if outputs is None or check_bits is None:
            raise ValueError("parity_null needs outputs and check_bits")
        return {"transistors": 2 * outputs, "flip_flops": check_bits}
    if kind == "stored_state":
        if flip_flops is None:
            raise ValueError("stored_state needs flip_flops")
        return {"transistors": 0, "flip_flops": flip_flops}
    if kind == "fft_zero":
        if fft_points is None:
            raise ValueError("fft_zero needs fft_points")
        return {"transistors": 120 * fft_points, "flip_flops": 0}
    raise ValueError(f"unknown decoupling kind {kind!r}")


def destructive_detection_probability(n: int, a: int, t: int) -> float:
    """Chance that destroying t of n chips exposes at least one of a bad ones.

    Hypergeometric: 1 - C(n-a, t) / C(n, t), evaluated as a stable product.
    Equals 1 when t > n - a (the good chips run out).
    """
    if n < 0 or not 0 <= a <= n or not 0 <= t <= n:
        raise ValueError("need 0 <= a <= n and 0 <= t <= n")
    if t > n - a:
        return 1.0
    miss = 1.0
    for i in range(t):
        miss *= (n - a - i) / (n - i)
    return 1.0 - miss


def simulate_destructive_sampling(n: int, a: int, t: int, trials: int, rng_seed: Rng = None) -> float:
    """Monte Carlo oracle: draw t of n without replacement, count hits."""
    rng = as_rng(rng_seed)
    hits = 0
    population = list(range(n))
    for _ in range(trials):
        sample = rng.sample(population, t)
        if any(s < a for s in sample):
            hits += 1
    return hits / trials
