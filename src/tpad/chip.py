"""Protected-chip assembly: I/O coding, logic CED, error encoding, RAM.

A chip wraps a combinational function netlist f with:

  * an input decoder that checks XOR-chained check bits arriving with the
    primary inputs,
  * a check-bit predictor (OCP) for a randomized parity code over f's
    outputs plus the matching checker,
  * one output encoder per output subset, XOR-chaining check bits across
    cycles,
  * a combiner that folds all checker signals into one r-bit error signal
    keyed to an LFSR tap subset.

All of that checking circuitry is synthesized into a single detection
netlist which then receives random switchbox obfuscation; the function f
itself stays untouched. The per-cycle dataflow is: decode inputs, evaluate
f and the detection netlist, encode outputs, advance the LFSR, and let the
trusted monitor compare the emitted error signal against its mirror. Each
chip runs it as one straight-line function generated on its first cycle,
with both netlists' gates inlined (compiled-code simulation).

The chip is a W-lane model in the bit-parallel style of PPSFP fault
simulation: bit j of every wire value, chained check bit, DFF state and
attack mask belongs to lane j, an independent session with its own seed,
stimulus and attacks. A scalar session is the one-lane case.
"""

from __future__ import annotations

import random
from collections import deque
from copy import copy
from dataclasses import dataclass, field
from operator import xor
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .lanes import lanes_of, pack_lanes, select
# lfsr_taps and eval_wires are not called here, but perfbench's tracer times
# them and step_lfsr under this module's names
from .lfsr import ErrorMonitor, LfsrSpec, lfsr_taps, step_lfsr, step_source  # noqa: F401
from .netlist import (  # noqa: F401
    Bits,
    Netlist,
    NetlistBuilder,
    NetlistError,
    WidthError,
    define,
    eval_wires,
    fault_fills,
    fault_vectors,
    inline_step,
    output_cone,
    parse_netlist,
    serialize_netlist,
)
from .parity import (
    ParityCheckMatrix,
    break_fn,
    build_ocp,
    format_matrix,
    parse_matrix,
    sample_parity_code,
)
from .ram import RAM_TROJANS, ProtectedRam, RamCycleResult, is_ram_depth
from .rng import Rng, as_rng, random_bits
from .switchbox import (
    ObfuscatedNetlist,
    apply_config,
    format_config,
    insert_switchboxes,
    parse_config,
    parse_obfuscated,
    serialize_obfuscated,
)

# cycles of inputs and chain state a chip keeps for stored-state replay
HISTORY_DEPTH = 4096
# sampled vectors per switchbox non-degeneracy test when the detection
# netlist has too many inputs for a truth table
INSERTION_SAMPLE_COUNT = 4096
# insertion rounds before a chip build gives up with UnsatisfiableError
INSERTION_MAX_ITERATIONS = 1000


# -- detection netlist -----------------------------------------------------------


def build_detection_netlist(
    f: Netlist,
    ocp: Netlist,
    h_logic: ParityCheckMatrix,
    h_in: ParityCheckMatrix,
    out_codes: Sequence[tuple[tuple[int, ...], ParityCheckMatrix]],
    pipeline_stages: int = 0,
    has_ram: bool = False,
) -> Netlist:
    """One netlist holding decoder, OCP, checker, output encoders, combiner.

    Its inputs are the primary inputs, the received input check bits, the
    previous input check bits, the function outputs, each subset's previous
    output check bits, the taps and (with a RAM) the RAM signal; its outputs
    are the error signal, the input decoder signal and each subset's check
    bits, r bits each.
    """
    m, k, r = len(f.inputs), len(f.outputs), h_logic.r
    b = NetlistBuilder(f"{f.name}.det")

    x = [b.input(f"x{i}") for i in range(m)]
    recv = [b.input(f"rc{i}") for i in range(r)]
    prev_in = [b.input(f"pin{i}") for i in range(r)]
    fout = [b.input(f"fo{i}") for i in range(k)]
    prev_outs = [
        [b.input(f"pout{s}_{i}") for i in range(r)] for s in range(len(out_codes))
    ]
    taps = [b.input(f"tap{i}") for i in range(r)]
    ram_sig = [b.input(f"ram{i}") for i in range(r)] if has_ram else None

    # logic CED: predictor (copied OCP) against recomputed output parities
    pred = b.inline(ocp, x)
    actual = [
        b.xor_tree([fout[j] for j, a in enumerate(row) if a]) for row in h_logic.rows
    ]
    if pipeline_stages:
        pred = [b.gate("DFF", p) for p in pred]
        actual = [b.gate("DFF", a) for a in actual]
    ced = [b.gate("XOR", taps[i], pred[i], actual[i]) for i in range(r)]

    # input decoding
    expected_in = [b.gate("XOR", recv[i], prev_in[i]) for i in range(r)]
    actual_in = [
        b.xor_tree([x[j] for j, a in enumerate(row) if a]) for row in h_in.rows
    ]
    in_sig = [b.gate("XOR", taps[i], expected_in[i], actual_in[i]) for i in range(r)]

    # output encoders, one per subset
    out_checks = []
    for s, (subset, h_out) in enumerate(out_codes):
        checks = []
        for i, row in enumerate(h_out.rows):
            tree = b.xor_tree([fout[subset[j]] for j, a in enumerate(row) if a])
            checks.append(b.gate("XOR", tree, prev_outs[s][i]))
        out_checks.append(checks)

    # error combining: OR under tap 0, AND under tap 1
    checker_sigs = [ced, in_sig] + ([ram_sig] if has_ram else [])
    err = []
    for i in range(r):
        bits = [sig[i] for sig in checker_sigs]
        orv = b.gate("OR", *bits) if len(bits) > 1 else bits[0]
        andv = b.gate("AND", *bits) if len(bits) > 1 else bits[0]
        nt = b.gate("NOT", taps[i])
        err.append(b.gate("OR", b.gate("AND", nt, orv), b.gate("AND", taps[i], andv)))

    outs = [*err, *in_sig]
    for checks in out_checks:
        outs.extend(checks)
    b.set_outputs(outs)
    return b.build()


# -- runtime attacks ---------------------------------------------------------------


@dataclass
class AttackEffect:
    """Concrete hook points for one injected attack inside a chip."""

    kind: str
    trigger: tuple = ("always",)
    input_flips: tuple[int, ...] = ()
    recv_flips: tuple[int, ...] = ()
    output_flips: tuple[int, ...] = ()  # pad-side, after output encoding
    f_overrides: dict[int, str] = field(default_factory=dict)
    d_overrides: dict[int, str] = field(default_factory=dict)
    ram_trojan: Optional[str] = None
    replay_depth: int = 0


def check_trigger(trigger: tuple) -> None:
    """Refuse (ValueError) a trigger the chip cannot run: an unknown mode, a missing or extra
    argument, a cycle that is not an int, a probability outside [0, 1], a negative at_cycle."""
    mode, *args = trigger or ("",)
    arg = args[0] if len(args) == 1 else None
    if not (mode == "always" and not args or mode in ("at_cycle", "after_cycle") and type(arg) is int
            or mode == "random" and isinstance(arg, (int, float)) and 0 <= arg <= 1):
        raise ValueError(f"unknown trigger {trigger!r}")
    if mode == "at_cycle" and arg < 0:
        raise ValueError(f"trigger {trigger!r} fires on no cycle: at_cycle needs a cycle >= 0")


class _Group:
    """Installed attacks that apply as one (`install_attack`): lane-disjoint, with one
    trigger and (for stored-state attacks) one replay depth. It holds their pin, receiver
    and pad flip masks by index (x, rc, pads), F's and D's fault fills by wire (f, d, which
    install_attack fills), their RAM trojans by lane, their null lanes and one capture."""

    __slots__ = ("p", "first", "last", "lanes", "x", "rc", "pads", "f", "d", "trojans",
                 "null", "depth", "captured", "snapshot")

    def __init__(self, effect: AttackEffect, depth: int):
        mode, *arg = effect.trigger
        self.p = arg[0] if mode == "random" else None  # a random trigger's odds per lane
        self.first = arg[0] if mode in ("at_cycle", "after_cycle") else 0  # active cycles
        self.last = arg[0] if mode == "at_cycle" else float("inf")
        self.lanes = self.null = 0
        self.x, self.rc, self.pads, self.f, self.d, self.trojans = {}, {}, {}, {}, {}, {}
        self.depth = depth
        self.captured = 0   # lanes whose stored-state snapshot has been taken
        self.snapshot = ()  # live detection inputs, each lane's from its engage cycle

    def add(self, eff: AttackEffect, lanes: int) -> None:
        self.lanes |= lanes
        for i in eff.input_flips:
            self.x[i] = self.x.get(i, 0) ^ lanes
        for i in eff.recv_flips:
            self.rc[i] = self.rc.get(i, 0) ^ lanes
        for i in eff.output_flips:
            self.pads[i] = self.pads.get(i, 0) ^ lanes
        if eff.ram_trojan:
            self.trojans.update(dict.fromkeys(lanes_of(lanes), eff.ram_trojan))
        if eff.kind == "decoupling_parity_null":
            self.null |= lanes

    def triggered(self, lane_rng: Callable[[int], random.Random]) -> int:
        """The lanes a random group fires in now, one draw per lane j from lane_rng(j)."""
        on = 0
        for j in lanes_of(self.lanes):
            if lane_rng(j).random() < self.p:
                on |= 1 << j
        return on


@dataclass(slots=True)
class ChipCycleResult:
    """One clock's pad values and verdicts, one bit per lane in every int.

    monitor_attack and decode_attack are lane masks: bit j is set when lane
    j's monitor or input decoder reports an attack (0 or 1 with one lane).
    ram is the RAM's result, or for a list of ops each lane's (None without one).
    """

    outputs: Bits                # words leaving the chip pads
    out_check: Bits              # check bits leaving with subset 0
    out_checks: tuple[Bits, ...]
    error_signal: Bits
    monitor_attack: int
    decode_attack: int
    ram: Union[RamCycleResult, list[Optional[RamCycleResult]], None] = None


@dataclass
class ChipOptions:
    pipeline_stages: int = 0
    ram_depth: Optional[int] = None
    ram_word_width: int = 16
    output_subsets: Optional[tuple[tuple[int, ...], ...]] = None
    h_in: Optional[ParityCheckMatrix] = None


class ProtectedChip:
    """Single-owner cycle-stepped model of one protected chip."""

    def __init__(
        self,
        f: Netlist,
        ocp: Netlist,
        detection: ObfuscatedNetlist,
        h_logic: ParityCheckMatrix,
        h_in: ParityCheckMatrix,
        out_codes: list[tuple[tuple[int, ...], ParityCheckMatrix]],
        lfsr_spec: LfsrSpec,
        t: int,
        options: ChipOptions,
        h_mem: Optional[ParityCheckMatrix] = None,
    ):
        self.f = f
        self.ocp = ocp
        self.detection = detection
        self.h_logic = h_logic
        self.h_in = h_in
        self.out_codes = out_codes
        self.lfsr_spec = lfsr_spec
        self.r = h_logic.r
        self.t = t
        self.options = options
        if f.has_state:
            raise ValueError("chip function netlist must be combinational")
        if (h_mem is None) != (options.ram_depth is None):
            raise ValueError("a chip takes a memory code exactly when it has a RAM")
        self.h_mem = h_mem
        self.resolved = apply_config(detection, detection.intended)
        self._cycle_fn: Optional[Callable] = None  # generated on the first cycle
        self.ram: Optional[ProtectedRam] = None  # lane 0's memory
        if h_mem is not None:
            self.ram = ProtectedRam(options.ram_depth, options.ram_word_width, code=h_mem)
        self.reset(0)

    # state management ------------------------------------------------------------

    def reset(self, session_seeds: Union[Rng, Sequence[Rng]] = None) -> None:
        """Fresh run state; initial chained check bits drawn from the seeds.

        A list or tuple holds one session seed per lane; any other seed runs
        one lane. Lane j draws from its seed exactly what a one-lane reset
        draws, so it starts as that session does. A chip with a RAM gives
        each lane its own memory (`rams[j]`, with `ram` lane 0's), all at the
        initial cells. The harness is trusted to hand the same initial values
        to whoever encodes this chip's input stream and decodes its output
        stream. It ends the attack set (`clear_attacks`): an attack lives for one run.
        """
        seeds = list(session_seeds) if isinstance(session_seeds, (list, tuple)) else [session_seeds]
        if not seeds:
            raise ValueError("need a session seed per lane")
        r = self.r
        n_chain = r * (1 + len(self.out_codes))
        rows = []
        self._trigger_seeds: list[int] = []
        drawn: dict[int, tuple[bytes, int]] = {}  # lanes that share an int seed share draws
        for seed in seeds:
            got = drawn.get(seed) if isinstance(seed, int) else None
            if got is None:
                rng = as_rng(seed)
                got = random_bits(rng, n_chain), rng.getrandbits(64)
                if isinstance(seed, int):
                    drawn[seed] = got
            rows.append(got[0])
            self._trigger_seeds.append(got[1])
        start = pack_lanes(rows)
        self.mask = (1 << len(seeds)) - 1
        self._trigger_rngs: list[Optional[random.Random]] = [None] * len(seeds)
        self.prev_in_check: Bits = tuple(start[:r])
        self.prev_out_checks: tuple[Bits, ...] = tuple(
            tuple(start[i:i + r]) for i in range(r, len(start), r)
        )
        self.initial_prev_in_check = self.prev_in_check
        self.initial_prev_out_checks = list(self.prev_out_checks)
        self.lfsr_state = self.lfsr_spec.seed
        self.monitor = ErrorMonitor(self.lfsr_spec, self.mask)
        self.d_state: Bits = (0,) * self.resolved.state_width
        self.cycle_count = 0
        self._history: deque = deque(maxlen=HISTORY_DEPTH)
        self._last_tx_checks: tuple[Bits, ...] = self.prev_out_checks
        self.clear_attacks()
        # lane copies share the initial cells, so no check bits are recomputed
        self.rams = [] if self.ram is None else [self.ram, *(copy(self.ram) for _ in seeds[1:])]
        for ram in self.rams:
            ram.reset()

    def _lane_rng(self, j: int) -> random.Random:
        """Lane j's trigger generator, seeded at reset and built on first use."""
        rng = self._trigger_rngs[j]
        if rng is None:
            rng = self._trigger_rngs[j] = random.Random(self._trigger_seeds[j])
        return rng

    def sync_input_chain(self, prev_check: Bits) -> None:
        """Adopt a sender's chain start for this chip's input decoder."""
        if len(prev_check) != self.r:
            raise WidthError("chain width mismatch")
        self.prev_in_check = tuple(prev_check)
        self.initial_prev_in_check = tuple(prev_check)

    def install_attack(self, effect: AttackEffect, lanes: Optional[int] = None) -> None:
        """Arm effect in the lanes of the `lanes` mask (default: every lane) until the next
        `reset` or `clear_attacks`. Refused here with a ValueError: a bad trigger (check_trigger)
        or override (check_overrides), a pin, receiver or pad index out of range, a stored-state
        replay depth outside [1, HISTORY_DEPTH], and a RAM trojan that is not in RAM_TROJANS or
        that the chip has no RAM for. The effect joins the latest `_Group` of its trigger (and
        replay depth) if its lanes miss those of every earlier attack, else opens one, as a
        random trigger always does; so the groups, in creation order, give each lane what the
        attacks give in install order. No group is rebuilt, so its capture outlives installs."""
        lanes = self.mask if lanes is None else lanes
        if lanes <= 0 or lanes & ~self.mask:
            raise ValueError(f"lane mask {lanes:#x} is not a nonempty subset of {self.mask:#x}")
        check_trigger(effect.trigger)
        self.f.check_overrides(effect.f_overrides)
        self.resolved.check_overrides(effect.d_overrides)
        for name, size in (("input_flips", len(self.f.inputs)), ("recv_flips", self.r),
                           ("output_flips", len(self.f.outputs))):
            for i in getattr(effect, name):
                if type(i) is not int or not 0 <= i < size:
                    raise ValueError(f"{name}: index {i!r} is outside range({size})")
        stored = effect.kind == "decoupling_stored_state"
        key = (effect.trigger, effect.replay_depth if stored else 0)  # the attack's group key
        if stored and not 1 <= key[1] <= HISTORY_DEPTH:
            raise ValueError(f"replay_depth: {key[1]!r} is outside [1, {HISTORY_DEPTH}]")
        trojan = effect.ram_trojan
        if trojan is not None and (self.ram is None or trojan not in RAM_TROJANS):
            raise ValueError(f"ram_trojan {trojan!r}: " + ("the chip has no RAM" if self.ram is None
                             else f"expected one of {', '.join(RAM_TROJANS)}"))
        group = None if lanes & self._seen or effect.trigger[0] == "random" else self._latest.get(key)
        if group is None:
            group = self._latest[key] = _Group(effect, key[1])
            self._groups.append(group)
        group.add(effect, lanes)
        self._seen |= lanes
        self.attacks.append((effect, lanes))
        if effect.f_overrides or effect.d_overrides:  # a new wire needs new armed steps
            fault_fills(group.f, effect.f_overrides, lanes)
            fault_fills(group.d, effect.d_overrides, lanes)
            self._armed = None

    def clear_attacks(self) -> None:  # ends the attack set
        self.attacks: list[tuple[AttackEffect, int]] = []  # (effect, lanes), in install order
        self._groups: list[_Group] = []  # in creation order
        self._latest: dict[tuple, _Group] = {}  # (trigger, replay depth) -> its latest group
        self._seen = 0  # lanes of the attacks installed so far
        self._armed: Optional[tuple] = None  # see _arm

    def _arm(self) -> tuple:
        """(F step, F slots, D step, D slots): each netlist's fault step slotted on the wires
        the attacks override (or None, {}), kept until an override is installed or the set ends."""
        armed: list = []
        for net, key in ((self.f, "f_overrides"), (self.resolved, "d_overrides")):
            wires = frozenset(w for eff, _ in self.attacks for w in getattr(eff, key))
            armed += net.fault_step_fn(wires) if wires else (None, {})
        self._armed = tuple(armed)
        return self._armed

    # per-cycle dataflow ------------------------------------------------------------

    def cycle(
        self,
        inputs: Sequence[int],
        recv_check: Sequence[int],
        ram_op: Union[tuple, list[Optional[tuple]], None] = None,
    ) -> ChipCycleResult:
        """One clock in every lane; inputs and recv_check hold one bit per lane.

        ram_op is one (op, addr, data) for a one-lane chip, or a list of one
        op (or None) per lane, run by that lane's RAM under its RAM trojan.
        The clock runs on a function generated for this chip on its first
        cycle (see `_compile_cycle`).
        """
        step = self._cycle_fn
        if step is None:
            step = self._cycle_fn = _compile_cycle(self)
        return step(self, inputs, recv_check, ram_op)

    def _attack_data(self, inputs: Sequence[int], recv_check: Sequence[int]) -> tuple:
        """This cycle's active attack groups (`install_attack`) as data for the clock function.

        Returns the inputs and received check bits with pin flips applied,
        F's and D's fault vectors for their armed steps (None without an
        active override), each lane's RAM trojan, the lanes that replay a
        stored state (with the snapshots they replay) or null the parity
        outputs, and per output pad its flip mask (None if no pad flips).
        Only a random group is asked (`_Group.triggered`) which lanes it fires in.
        """
        _, f_slots, _, d_slots = self._armed or self._arm()
        x = list(inputs)
        rc = list(recv_check)
        fv = dv = pads = None
        trojans: dict[int, str] = {}  # lane -> RAM trojan active there
        replay = null = 0  # lanes replaying a stored state / nulling parity
        stored = []  # (lanes, snapshot) each active stored-state group replays
        cycle = self.cycle_count
        for g in self._groups:
            if g.p is not None:
                on = g.triggered(self._lane_rng)
                if not on:
                    continue
            elif g.first <= cycle <= g.last:
                on = g.lanes
            else:
                continue
            for i, flip in g.x.items():
                x[i] ^= flip & on
            for i, flip in g.rc.items():
                rc[i] ^= flip & on
            if g.pads:
                pads = pads or [0] * len(self.f.outputs)
                for i, flip in g.pads.items():
                    pads[i] ^= flip & on
            if g.f:
                fv = fault_vectors(fv, f_slots, g.f, on)
            if g.d:
                dv = fault_vectors(dv, d_slots, g.d, on)
            if g.trojans:
                trojans.update((j, trojan) for j, trojan in g.trojans.items() if on >> j & 1)
            null |= g.null & on
            if g.depth:
                # the trojan's extra flip-flops hold one earlier consistent
                # state; from engagement on, the CED path sees only that
                fresh = on & ~g.captured
                if fresh and len(self._history) >= g.depth:
                    past = self._history[-g.depth]
                    g.snapshot = select(fresh, past, g.snapshot) if g.snapshot else past
                    g.captured |= fresh
                taken = on & g.captured
                replay = replay & ~on | taken
                if taken:
                    stored.append((taken, g.snapshot))
        return x, rc, fv, dv, trojans, replay, null, stored, pads

    def _ram_lanes(self, ops: list, trojans: Optional[dict[int, str]]) -> tuple[list, int]:
        """Each lane's op (or None) on its RAM; the results and the reporting lanes."""
        results, reports = [], 0
        for j, (ram, op) in enumerate(zip(self.rams, ops)):
            res = None
            if op is not None:
                res = ram.cycle(*op, trojan=trojans.get(j) if trojans else None)
                reports |= res.attack << j
            results.append(res)
        return results, reports

    def _replayed(self, replay: int, stored: list, live: tuple) -> tuple:
        """The detection inputs: in the `replay` lanes, the snapshot of the last stored-state
        group that took them (a campaign batch has one per trigger and depth), live elsewhere."""
        snapshot = stored[0][1]
        for taken, snap in stored[1:]:
            snapshot = select(taken, snap, snapshot)
        return select(replay, snapshot, live)

    def _transmit(self, outputs: Bits, checks: tuple, replay: int, null: int,
                  pads: Optional[list[int]]) -> tuple[Bits, tuple]:
        """Pad values under attack: hijacked by a replay, nulled, then flipped."""
        if replay:
            outputs = tuple(b ^ replay for b in outputs)
        if null:
            outputs = tuple(b & ~null for b in outputs)
            checks = tuple(select(null, last, c) for last, c in zip(self._last_tx_checks, checks))
        if pads:
            outputs = tuple(map(xor, outputs, pads))
        return outputs, checks


def _compile_cycle(chip: ProtectedChip) -> Callable:
    """Generate chip's clock: cycle(chip, inputs, recv_check, ram_op) -> ChipCycleResult.

    Compiled-code simulation, as Netlist.step_fn does for one netlist: a
    straight-line function with the chip's widths, tap positions and LFSR
    polynomial as constants and both netlists' gates inlined. It broadcasts
    the taps, runs the armed attacks' data (`_attack_data`) if any, steps
    the function netlist, the lanes' RAMs and the detection netlist, splits
    the error, input-decoder and output-check words, updates the chained
    check bits, advances the LFSR and hands the error signal to the chip's
    monitor. A netlist with a fault override this cycle runs its armed step
    (`_arm`) over every gate; otherwise the function body holds only f's
    output cone (`output_cone`). On a quiet cycle (no overrides, no replay)
    the detection body reads the function body's variable for every gate
    that repeats one of its values (the OCP is a copy of f) and inlines its
    single-use temporaries; with function overrides or a replay, the
    detection inputs are not the function body's clean values, so the
    detection netlist runs on its armed step, or without detection
    overrides its step_fn. The registers are written after the RAM ops, so
    an op a RAM refuses leaves them as they were.
    """
    f, d, r, spec = chip.f, chip.resolved, chip.r, chip.lfsr_spec
    m, k, n_sub = len(f.inputs), len(f.outputs), len(chip.out_codes)
    x = [f"x{i}" for i in range(m)]
    rc = [f"rc{i}" for i in range(r)]
    pin = [f"pin{i}" for i in range(r)]
    fo = [f"fo{j}" for j in range(k)]
    po = [[f"po{s}_{i}" for i in range(r)] for s in range(n_sub)]
    taps = [f"t{i}" for i in range(r)]
    ram_sig = ["g0", *taps[1:]] if chip.ram is not None else []  # tap 0 flips in reporting lanes
    live = [*x, *rc, *pin, *fo, *(name for sub in po for name in sub)]
    packed = [*live, *taps, *ram_sig]
    if len(d.inputs) != len(packed):
        raise WidthError(f"detection netlist has {len(d.inputs)} inputs, "
                         f"the chip feeds it {len(packed)}")
    do = [f"do{j}" for j in range(len(d.outputs))]
    ds = [f"ds{i}" for i in range(d.state_width)]
    d_in = dict(zip((*d.inputs, *(g.out for g in d._dffs)), (*packed, *ds)))
    d_out = list(zip(d.outputs, do))
    values: dict[tuple, str] = {}  # f's gate values, which a quiet detection body reads
    f_lines, _, _ = inline_step(output_cone(f._topo, f.outputs), (), dict(zip(f.inputs, x)),
                                list(zip(f.outputs, fo)), "f", values)
    q_lines, _, q_next = inline_step(d._topo, d._dffs, d_in, d_out, "d", values, inline=True)
    error, in_sig = do[:r], do[r:2 * r]
    checks = [do[i:i + r] for i in range(2 * r, len(do), r)]

    def tup(names: list[str]) -> str:
        return f"({', '.join(names)},)" if names else "()"

    def unpack(names: list[str]) -> str:
        return f"{', '.join(names)}," if names else "_"

    body = [
        f"if len(inp) != {m}:",
        "    raise WidthError('primary input width mismatch')",
        f"if len(rc) != {r}:",
        "    raise WidthError('input check width mismatch')",
        "if ram_op is not None:",
        "    ops = ram_op if isinstance(ram_op, list) else (ram_op,)",
        "    if len(ops) != len(chip.rams):",
        "        raise WidthError(f'{len(ops)} RAM op(s) for {len(chip.rams)} RAM lane(s)')",
        "mask = chip.mask",
        "s = chip.lfsr_state",
        "if not s:",
        "    step_lfsr(s, SPEC)  # refuses the zero state",
        *(f"{t} = -(s >> {p} & 1) & mask" for t, p in zip(taps, spec.taps)),
        "if chip.attacks:",
        "    inp, rc, fv, dv, trojans, replay, null, stored, pads = chip._attack_data(inp, rc)",
        "else:",
        "    fv = dv = trojans = pads = None",
        "    replay = null = 0",
        f"{unpack(x)} = inp",
        f"{unpack(rc)} = rc",
        f"{unpack(pin)} = chip.prev_in_check",
        *([f"{unpack([tup(sub) for sub in po])} = chip.prev_out_checks"] if po else []),
        "if fv:",
        f"    {tup(fo)}, _ = chip._armed[0](inp, (), *fv, mask)",
        "else:",
        *(f"    {line}" for line in f_lines or ["pass"]),
        f"outputs = {tup(fo)}",
        f"live = {tup(live)}",
        "ram_res = None",
    ]
    if chip.ram is not None:
        body += [
            "g0 = t0",
            "if ram_op is not None:",
            "    if ops is ram_op:",
            "        ram_res, reports = chip._ram_lanes(ram_op, trojans)",
            "    else:",
            "        ram_res = (chip.ram.cycle(*ram_op, trojan=trojans[0]) if trojans",
            "                   else chip.ram.cycle(*ram_op))  # a trojan only by keyword",
            "        reports = ram_res.attack",
            "    if reports:",
            "        g0 = t0 ^ reports",
        ]
    body += [
        "if fv or dv or replay:",
        "    det = (*(chip._replayed(replay, stored, live) if replay else live),",
        f"           {', '.join([*taps, *ram_sig])})",
        f"    {tup(do)}, {'d_next' if ds else '_'} = (chip._armed[2](det, chip.d_state, *dv, mask)",
        "        if dv else D.step_fn()(det, chip.d_state, mask))",
        "else:",
        *([f"    {unpack(ds)} = chip.d_state"] if ds else []),
        *(f"    {line}" for line in q_lines or ["pass"]),
        *([f"    d_next = {tup(q_next)}"] if ds else []),
        f"error = {tup(error)}",
        f"checks = {tup([tup(c) for c in checks])}",
        f"decode = {' | '.join(f'({i} ^ {t})' for i, t in zip(in_sig, taps))}",
        "if replay or null or pads:",
        "    outputs, tx = chip._transmit(outputs, checks, replay, null, pads)",
        "else:",
        "    tx = checks",
        "if replay:",
        "    chip.prev_in_check = select(replay, chip.prev_in_check, rc)",
        "    chip.prev_out_checks = tuple(",
        "        select(replay, old, new) for old, new in zip(chip.prev_out_checks, checks))",
        "else:",
        f"    chip.prev_in_check = {tup(rc)}",
        "    chip.prev_out_checks = checks",
        "chip._last_tx_checks = tx",
        *(["chip.d_state = d_next"] if ds else []),
        "chip._history.append(live)",
        f"chip.lfsr_state = {step_source(spec, 's')}",
        "chip.cycle_count += 1",
        f"return ChipCycleResult(outputs, {'tx[0]' if n_sub else '()'}, tx, error,",
        "                       chip.monitor.check(error), decode, ram_res)",
    ]
    # module globals, so select, step_lfsr and the rest resolve at call time
    make = define([
        "def make(D, SPEC):",
        "    def cycle(chip, inp, rc, ram_op):",
        *(f"        {line}" for line in body),
        "    return cycle",
    ], "make", globals(), f"clock {f.name}")
    cycle = make(d, spec)
    cycle.make = make  # so the source stays in linecache while the clock lives
    return cycle


def _check_output_subsets(k: int, subsets: Sequence, widths: Iterable[int]) -> None:
    """Refuse an output subset that is empty, repeats an index or leaves range(k).

    Each subset's code must be len(subset) bits wide; the error names the subset.
    """
    if not subsets:
        raise ValueError("a chip needs at least one output subset")
    for s, width in zip(subsets, widths):
        if not s or len(set(s)) != len(s) or width != len(s) \
                or not all(type(j) is int and 0 <= j < k for j in s):
            raise ValueError(f"output subset {list(s)} needs distinct indices in range({k}) "
                             f"and a code as wide as itself (code width {width})")


def _is_pipeline_stages(stages) -> bool:  # 0 or 1 register stages, an int (not a bool)
    return type(stages) is int and stages in (0, 1)


def build_protected_chip(
    f: Netlist,
    r: int,
    t: int,
    lfsr_spec: LfsrSpec,
    rng_seed: Rng = None,
    options: Optional[ChipOptions] = None,
) -> ProtectedChip:
    """Sample codes, synthesize and obfuscate the detection netlist, wire a chip.

    The function netlist stays as-is; the detection netlist (input decoder,
    OCP, checker, output encoders, error combiner) is built around the codes
    and switchbox-obfuscated with a target of t switchboxes per output cone.
    """
    if f.has_state:
        raise ValueError("chip function netlist must be combinational")
    options = options or ChipOptions()
    rng = as_rng(rng_seed)
    m, k = len(f.inputs), len(f.outputs)
    subsets = [tuple(s) for s in options.output_subsets or (range(k),)]
    _check_output_subsets(k, subsets, map(len, subsets))
    if options.ram_depth is not None and not is_ram_depth(options.ram_depth):
        raise ValueError("depth must be a power of two >= 2")  # as ProtectedRam, before any draw
    if not _is_pipeline_stages(options.pipeline_stages):  # as load_chip_bundle
        raise ValueError(f"pipeline_stages: expected 0 or 1, got {options.pipeline_stages!r}")

    h_logic = sample_parity_code(k, r, rng.getrandbits(64))  # refuses r < 1
    if lfsr_spec.r != r:
        raise ValueError("LFSR tap subset width must equal r")
    h_in = options.h_in or sample_parity_code(m, r, rng.getrandbits(64))
    seen: dict[tuple[int, ...], ParityCheckMatrix] = {}
    out_codes: list[tuple[tuple[int, ...], ParityCheckMatrix]] = []
    for s in subsets:
        if s not in seen:
            seen[s] = sample_parity_code(len(s), r, rng.getrandbits(64))
        out_codes.append((s, seen[s]))
    h_mem = None
    if options.ram_depth is not None:
        addr_bits = options.ram_depth.bit_length() - 1
        h_mem = sample_parity_code(addr_bits + options.ram_word_width, r, rng.getrandbits(64))

    ocp = build_ocp(f, h_logic)
    det = build_detection_netlist(
        f, ocp, h_logic, h_in, out_codes,
        pipeline_stages=options.pipeline_stages,
        has_ram=h_mem is not None,
    )
    obf = insert_switchboxes(
        det,
        t,
        rng_seed=rng.getrandbits(64),
        max_iterations=INSERTION_MAX_ITERATIONS,
        sample_count=INSERTION_SAMPLE_COUNT,
    )
    return ProtectedChip(f, ocp, obf, h_logic, h_in, out_codes, lfsr_spec, t, options, h_mem)


# -- trusted harness helpers --------------------------------------------------------


class StimulusEncoder:
    """Trusted sender for a chip's input channel (same code, synced chain)."""

    def __init__(self, chip: ProtectedChip):
        self.code = chip.h_in
        self.prev_check = chip.initial_prev_in_check
        self._chain: Optional[Callable] = None  # the code's kernel, fetched on the first send

    def send(self, x: Sequence[int]) -> Bits:
        """Check bits of x XORed with the previous word's (one bit per lane)."""
        chain = self._chain
        if chain is None:
            chain = self._chain = self.code.chain_fn()
        check = self.prev_check = chain(x, self.prev_check)
        return check


class OutputReceiver:
    """Trusted receiver decoding every output subset of a chip, in one kernel call."""

    def __init__(self, chip: ProtectedChip):
        self.codes = chip.out_codes
        self.prev_checks = tuple(chip.initial_prev_out_checks)
        self.width = len(chip.f.outputs)
        self._breaks: Optional[Callable] = None  # the codes' kernel, fetched on the first receive

    def receive(self, outputs: Sequence[int], *checks: Sequence[int]) -> int:
        """Mask of the lanes whose outputs and check bits break some subset's chain (0 if none).

        outputs holds one value per chip output, and checks one tuple of check
        bits per output subset, as a cycle result's out_checks:
        receive(res.outputs, *res.out_checks). Any other width raises
        WidthError and leaves every chain as it was.
        """
        breaks = self._breaks
        if breaks is None:
            breaks = self._breaks = break_fn(self.codes, self.width)
        attack = breaks(outputs, checks, self.prev_checks)
        self.prev_checks = checks
        return attack


def closed_loop(chip: ProtectedChip, stimulus: Iterable[tuple]
                ) -> Iterator[tuple[ChipCycleResult, int]]:
    """Clock chip on each (inputs, ram_op) and yield (result, report mask): the lanes
    whose output word breaks the trusted receiver's chain or whose monitor or input
    decoder fires. Sender and receiver are built when iteration starts, after the
    caller's reset; the receiver sees every word, or its chain would go stale."""
    enc, rec = StimulusEncoder(chip), OutputReceiver(chip)
    for x, ram_op in stimulus:
        res = chip.cycle(x, enc.send(x), ram_op=ram_op)
        yield res, rec.receive(res.outputs, *res.out_checks) | res.monitor_attack | res.decode_attack


# -- chip bundles --------------------------------------------------------------------


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def save_chip_bundle(chip: ProtectedChip, path: Union[str, Path]) -> None:
    """Write a chip as a directory of netlists, codes and specs + manifest."""
    import json

    from .lfsr import format_lfsr_spec

    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    files: dict[str, str] = {
        "function.net": serialize_netlist(chip.f),
        "ocp.net": serialize_netlist(chip.ocp),
        "detection.net": serialize_obfuscated(chip.detection),
        "detection.cfg": format_config(chip.detection.intended),
        "logic.code": format_matrix(chip.h_logic),
        "input.code": format_matrix(chip.h_in),
        "lfsr.spec": format_lfsr_spec(chip.lfsr_spec),
    }
    for i, (subset, code) in enumerate(chip.out_codes):
        files[f"output{i}.code"] = format_matrix(code)
    if chip.h_mem is not None:
        files["ram.code"] = format_matrix(chip.h_mem)
    manifest = {
        "format": "tpad-chip/1",
        "name": chip.f.name,
        "r": chip.r,
        "t": chip.t,
        "pipeline_stages": chip.options.pipeline_stages,
        "ram_depth": chip.options.ram_depth,
        "ram_word_width": chip.options.ram_word_width,
        "output_subsets": [list(s) for s, _ in chip.out_codes],
        "files": {},
    }
    for name, text in files.items():
        (root / name).write_text(text)
        manifest["files"][name] = _sha256(text.encode())
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    # a chip saved here before may have had more output codes or a RAM code,
    # which load_chip_bundle would refuse as files the manifest does not list
    i = len(chip.out_codes)
    while (root / f"output{i}.code").is_file():
        (root / f"output{i}.code").unlink()
        i += 1
    if chip.h_mem is None and (root / "ram.code").is_file():
        (root / "ram.code").unlink()


_MANIFEST_KEYS = ("files", "t", "pipeline_stages", "ram_depth", "ram_word_width", "output_subsets")
_BUNDLE_FILES = ("function.net", "ocp.net", "detection.net", "detection.cfg",
                 "logic.code", "input.code", "lfsr.spec")


# each manifest value's check, and what it must be; `type(v) is int` refuses
# the bools that JSON true and false load as
_MANIFEST_VALUES = (
    ("t", lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    ("pipeline_stages", _is_pipeline_stages, "0 or 1"),
    ("ram_depth", lambda v: v is None or is_ram_depth(v), "a power of two >= 2 or null"),
    ("ram_word_width", lambda v: type(v) is int, "an integer"),
    ("output_subsets", lambda v: isinstance(v, list), "a list of lists of integers"),
)


def load_chip_bundle(path: Union[str, Path]) -> ProtectedChip:
    """Read a bundle back.

    A manifest missing a key or a file, holding a bad value, listing a file a
    bundle does not have (such as a `ram.code` for a chip without a RAM), or
    leaving out a file the directory holds raises ValueError before any
    listed file is read; one whose `pipeline_stages` disagrees with
    `detection.net`, before the chip is built. A file that does not parse
    raises ValueError starting `bundle file <name>: `.
    """
    import json

    root = Path(path)
    try:
        manifest = json.loads((root / "manifest.json").read_text())
    except ValueError as e:
        raise ValueError(f"bundle file manifest.json: {e}") from e
    if not isinstance(manifest, dict) or manifest.get("format") != "tpad-chip/1":
        raise ValueError("not a chip bundle")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ValueError(f"bundle manifest lacks key(s): {', '.join(missing)}")
    for key, ok, expected in _MANIFEST_VALUES:
        if not ok(manifest[key]):
            raise ValueError(f"bundle manifest key {key!r}: expected {expected}, "
                             f"got {manifest[key]!r}")
    for s in manifest["output_subsets"]:
        if not isinstance(s, list) or not all(type(j) is int for j in s):
            raise ValueError(f"bundle manifest key 'output_subsets': output subset {s!r} "
                             "is not a list of integers")
    required = [*_BUNDLE_FILES, *(f"output{i}.code" for i in range(len(manifest["output_subsets"])))]
    if manifest["ram_depth"] is not None:
        required.append("ram.code")
    missing = [name for name in required if name not in manifest["files"]]
    if missing:
        raise ValueError(f"bundle manifest lists no file(s): {', '.join(missing)}")
    unexpected = [name for name in manifest["files"] if name not in required]
    if unexpected:
        raise ValueError(f"bundle manifest lists unexpected file(s): {', '.join(unexpected)}")
    unlisted = sorted(p.name for p in root.iterdir()
                      if p.name != "manifest.json" and p.name not in manifest["files"])
    if unlisted:
        raise ValueError(f"bundle directory holds file(s) its manifest does not list: "
                         f"{', '.join(unlisted)}")
    texts: dict[str, str] = {}
    for name, digest in manifest["files"].items():
        text = (root / name).read_text()
        if _sha256(text.encode()) != digest:
            raise ValueError(f"bundle file {name} does not match its manifest hash")
        texts[name] = text
    from .lfsr import parse_lfsr_spec

    def parse(name: str, parser: Callable, *args):  # parser(text, *args), naming the file
        try:
            return parser(texts[name], *args)
        except (ValueError, NetlistError) as e:
            raise ValueError(f"bundle file {name}: {e}") from e

    f = parse("function.net", parse_netlist)
    ocp = parse("ocp.net", parse_netlist)
    detection = parse("detection.net", parse_obfuscated, parse("detection.cfg", parse_config))
    if manifest["pipeline_stages"] != any(g.kind == "DFF" for g in detection.gates):
        raise ValueError(f"bundle manifest key 'pipeline_stages': {manifest['pipeline_stages']} "
                         "disagrees with whether detection.net has DFFs")
    h_logic = parse("logic.code", parse_matrix)
    h_in = parse("input.code", parse_matrix)
    subsets = [tuple(s) for s in manifest["output_subsets"]]
    out_codes = [(s, parse(f"output{i}.code", parse_matrix)) for i, s in enumerate(subsets)]
    _check_output_subsets(len(f.outputs), subsets, (code.k for _, code in out_codes))
    h_mem = parse("ram.code", parse_matrix) if "ram.code" in texts else None
    options = ChipOptions(
        pipeline_stages=manifest["pipeline_stages"],
        ram_depth=manifest["ram_depth"],
        ram_word_width=manifest["ram_word_width"],
        output_subsets=tuple(subsets),
    )
    lfsr_spec = parse("lfsr.spec", parse_lfsr_spec)
    return ProtectedChip(
        f, ocp, detection, h_logic, h_in, out_codes, lfsr_spec, manifest["t"], options, h_mem
    )
