"""Switchbox wire-permutation elements and randomized insertion.

A two-input switchbox routes wire pair (x, y) either straight to (z, w)
(parallel) or swapped (crossed). Random insertion repeatedly pairs two
disjoint radius-1 gate neighborhoods with matching boundary shape, places
switchboxes on their incoming wires and outputs, drops any switchbox whose
two settings compute the same function, coin-flips the intended setting of
the survivors, and stops once every output cone holds at least t of them.

Every insertion keeps the union dependency graph (a switchbox output
depending on both its inputs) acyclic, so all 2^#SB configurations yield
valid netlists, not just the intended one.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator, Mapping, Optional, Sequence

from .netlist import (
    EXHAUSTIVE_INPUTS,
    HORIZON,
    EquivalenceVerdict,
    Gate,
    Netlist,
    NetlistError,
    check_equivalence,  # noqa: F401 - part of this module's namespace, which perfbench traces
    compare_steps,
    input_patterns,
    parse_text,
    topo_order,
    _compile_step,
    NetlistSyntaxError,
)
from .rng import Rng, as_rng

PARALLEL = "parallel"
CROSSED = "crossed"


class SwitchboxError(NetlistError):
    pass


class ConfigCoverageError(SwitchboxError):
    """A configuration misses or names switchboxes not in the netlist."""


class NoIncorrectConfigsError(SwitchboxError):
    """The config space has a single point, so no incorrect configs exist."""


class UnsatisfiableError(SwitchboxError):
    def __init__(self, message: str, per_output_counts: tuple[int, ...]):
        super().__init__(message)
        self.per_output_counts = per_output_counts


@dataclass(frozen=True)
class Switchbox:
    id: int
    ins: tuple[int, int]
    outs: tuple[int, int]
    kind: ClassVar[str] = "SB2"  # node kind in the union evaluation order

    def __post_init__(self):
        wires = (*self.ins, *self.outs)
        if len(set(wires)) != 4:
            raise SwitchboxError(f"switchbox {self.id} wires must be pairwise distinct")


@dataclass
class ObfuscatedNetlist:
    """A netlist whose wiring is partly deferred to switchbox settings."""

    name: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    gates: tuple[Gate, ...]
    switchboxes: tuple[Switchbox, ...]
    intended: dict[int, str]
    wire_names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        ids = [sb.id for sb in self.switchboxes]
        if len(set(ids)) != len(ids):
            raise SwitchboxError("duplicate switchbox ids")
        if set(self.intended) != set(ids):
            raise ConfigCoverageError("intended config must cover every switchbox exactly once")
        # single-driver and acyclicity (in the union sense) via apply_config
        apply_config(self, self.intended)

    @property
    def n_switchboxes(self) -> int:
        return len(self.switchboxes)

    @property
    def per_output_sb_count(self) -> tuple[int, ...]:
        wiring = _wiring(self)
        return tuple(_cone_switchboxes(w, *wiring) for w in self.outputs)


def apply_config(obf: ObfuscatedNetlist, cfg: dict[int, str]) -> Netlist:
    """Resolve every switchbox to plain buffers according to cfg."""
    have = {sb.id for sb in obf.switchboxes}
    if set(cfg) != have:
        missing = sorted(have - set(cfg))
        extra = sorted(set(cfg) - have)
        raise ConfigCoverageError(f"config mismatch, missing={missing} extra={extra}")
    gates = list(obf.gates)
    for sb in obf.switchboxes:
        mode = cfg[sb.id]
        if mode not in (PARALLEL, CROSSED):
            raise ConfigCoverageError(f"bad mode {mode!r} for sb{sb.id}")
        x, y = sb.ins if mode == PARALLEL else (sb.ins[1], sb.ins[0])
        gates.append(Gate(sb.outs[0], "BUF", (x,)))
        gates.append(Gate(sb.outs[1], "BUF", (y,)))
    return Netlist(obf.name, obf.inputs, obf.outputs, gates, obf.wire_names)


def union_step(
    inputs: Sequence[int],
    outputs: Sequence[int],
    gates: Sequence[Gate],
    switchboxes: Sequence[Switchbox],
) -> Callable:
    """One compiled step(inp, state, sel, mask=1) for every configuration.

    sel[i] is 0 to route switchboxes[i] parallel and -1 to cross it, so a
    configuration is a select vector rather than a new netlist. DFF state is
    ordered as the DFFs among `gates`, as in the netlists apply_config
    returns. Raises SwitchboxError when the union graph has a cycle.
    """
    order = topo_order([*gates, *switchboxes], lambda _: SwitchboxError("union graph cycle"))
    dffs = [g for g in gates if g.kind == "DFF"]
    selects = {sb.id: i for i, sb in enumerate(switchboxes)}
    return _compile_step(inputs, order, dffs, outputs, selects)


def _selects(bits: int, n: int) -> list[int]:
    """Select vector of n switchboxes, box i crossed when bit i of bits is set."""
    return [-((bits >> i) & 1) for i in range(n)]


def _wiring(obf: ObfuscatedNetlist) -> tuple[dict, dict, dict]:
    """(gate inputs by output wire, box by output wire, box inputs by id)."""
    return (
        {g.out: g.ins for g in obf.gates},
        {w: sb.id for sb in obf.switchboxes for w in sb.outs},
        {sb.id: sb.ins for sb in obf.switchboxes},
    )


def _cone_switchboxes(
    root: int,
    gate_ins: Mapping[int, Sequence[int]],
    sb_driver: Mapping[int, int],
    sb_ins: Mapping[int, Sequence[int]],
) -> int:
    """Switchboxes in the transitive fan-in of one wire.

    A switchbox belongs to a cone when either of its output wires feeds the
    cone; both of its inputs are then traversed, since either may drive the
    cone depending on the configuration.
    """
    seen_g: set[int] = set()
    seen_sb: set[int] = set()
    stack = [root]
    while stack:
        w = stack.pop()
        ins = gate_ins.get(w)
        if ins is not None:
            if w not in seen_g:
                seen_g.add(w)
                stack.extend(ins)
            continue
        sid = sb_driver.get(w)
        if sid is not None and sid not in seen_sb:
            seen_sb.add(sid)
            stack.extend(sb_ins[sid])
    return len(seen_sb)


@dataclass
class ScanReport:
    samples: int
    equivalent: int
    hits: list[dict[int, str]]

    @property
    def fraction_equivalent(self) -> float:
        return self.equivalent / self.samples


# -- insertion ---------------------------------------------------------------------


class _Work:
    """Mutable wiring state shared by the insertion steps.

    Two indexes keep the wiring queries local: `sb_driver` maps each
    switchbox output wire to its box, and `fanout` maps each wire to the
    (kind, ref, pin) sites reading it.
    """

    def __init__(self, net: Netlist):
        self.inputs = list(net.inputs)
        self.outputs = list(net.outputs)
        self.kind: dict[int, str] = {g.out: g.kind for g in net.gates}
        self.ins: dict[int, list[int]] = {g.out: list(g.ins) for g in net.gates}
        self.sb_ins: dict[int, list[int]] = {}
        self.sb_outs: dict[int, tuple[int, int]] = {}
        self.sb_driver: dict[int, int] = {}
        self.fanout: dict[int, set[tuple]] = defaultdict(set)
        for o, pins in self.ins.items():
            for p, w in enumerate(pins):
                self.fanout[w].add(("gate", o, p))
        for i, w in enumerate(self.outputs):
            self.fanout[w].add(("po", i, 0))
        self.wire_names = dict(net.wire_names)
        self.next_wire = max([*net.inputs, *(g.out for g in net.gates), -1]) + 1
        self.next_sb = 0

    def fresh_wire(self) -> int:
        w = self.next_wire
        self.next_wire += 1
        return w

    def gate_list(self) -> list[Gate]:
        return [Gate(o, self.kind[o], tuple(self.ins[o])) for o in self.kind]

    def switchbox_list(self) -> list[Switchbox]:
        return [Switchbox(i, tuple(self.sb_ins[i]), self.sb_outs[i]) for i in sorted(self.sb_ins)]

    def snapshot(self, intended: dict[int, str], name: str) -> ObfuscatedNetlist:
        return ObfuscatedNetlist(
            name,
            tuple(self.inputs),
            tuple(self.outputs),
            tuple(self.gate_list()),
            tuple(self.switchbox_list()),
            dict(intended),
            dict(self.wire_names),
        )

    def cone_counts(self) -> Iterator[int]:
        """Switchboxes per output cone, as ObfuscatedNetlist.per_output_sb_count."""
        return (_cone_switchboxes(w, self.ins, self.sb_driver, self.sb_ins) for w in self.outputs)

    # wiring queries ---------------------------------------------------------

    def consumers(self, wire: int) -> list[tuple]:
        """(kind, ref, pin) sites currently reading a wire."""
        return sorted(self.fanout.get(wire, ()))

    def rewire(self, site: tuple, wire: int) -> None:
        self.fanout[self.site_wire(site)].discard(site)
        self.fanout[wire].add(site)
        kind, ref, pin = site
        if kind == "gate":
            self.ins[ref][pin] = wire
        elif kind == "sb":
            self.sb_ins[ref][pin] = wire
        else:
            self.outputs[ref] = wire

    def site_wire(self, site: tuple) -> int:
        kind, ref, pin = site
        if kind == "gate":
            return self.ins[ref][pin]
        if kind == "sb":
            return self.sb_ins[ref][pin]
        return self.outputs[ref]

    # union dependency graph ---------------------------------------------------

    def union_cyclic_through(self, sb_id: int) -> bool:
        """True when sb_id lies on a union-graph cycle (DFFs cut the graph)."""
        stack = list(self.sb_ins[sb_id])
        seen: set[int] = set()
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            if w in self.kind:
                if self.kind[w] != "DFF":
                    stack.extend(self.ins[w])
            elif w in self.sb_driver:
                sid = self.sb_driver[w]
                if sid == sb_id:
                    return True
                stack.extend(self.sb_ins[sid])
        return False

    # neighborhood machinery -----------------------------------------------------

    def gate_preds(self, g: int) -> list[int]:
        return sorted({w for w in self.ins[g] if w in self.kind})

    def gate_succs(self, g: int) -> list[int]:
        return sorted({o for kind, o, _ in self.fanout.get(g, ()) if kind == "gate"})

    def neighborhood(self, v: int) -> set[int]:
        return {v, *self.gate_preds(v), *self.gate_succs(v)}

    def incoming_edges(self, nb: set[int]) -> list[tuple[int, int, int]]:
        """(wire, gate, pin) edges entering the neighborhood, sorted."""
        edges = []
        for g in sorted(nb):
            for p, w in enumerate(self.ins[g]):
                if w not in nb:
                    edges.append((w, g, p))
        return edges

    def output_gates(self, nb: set[int]) -> list[int]:
        """Gates of the neighborhood whose output wire is used outside it."""
        return [g for g in sorted(nb)
                if any(kind != "gate" or o not in nb for kind, o, _ in self.fanout.get(g, ()))]

    # switchbox editing -----------------------------------------------------------

    def add_switchbox(self, x: int, y: int, sites_z: list[tuple], sites_w: list[tuple]) -> Optional[int]:
        """Insert an SB over (x, y), rerouting the given sites to its outputs.

        Returns the new SB id, or None (with no state change) when the
        insertion would let some configuration form a combinational cycle.
        Stacking directly onto another SB's output pair is refused: crossing
        both boxes would cancel out, a guaranteed two-SB degenerate config.
        """
        if x == y:
            return None
        if x in self.sb_driver and self.sb_driver[x] == self.sb_driver.get(y):
            return None
        z = self.fresh_wire()
        w = self.fresh_wire()
        sid = self.next_sb
        undo = [(site, self.site_wire(site)) for site in sites_z + sites_w]
        for site in sites_z:
            self.rewire(site, z)
        for site in sites_w:
            self.rewire(site, w)
        self._attach(sid, x, y, z, w)
        if self.union_cyclic_through(sid):
            for site, old in undo:
                self.rewire(site, old)
            self._detach(sid)
            return None
        self.next_sb += 1
        self.wire_names[z] = f"sb{sid}_a"
        self.wire_names[w] = f"sb{sid}_b"
        return sid

    def _attach(self, sid: int, x: int, y: int, z: int, w: int) -> None:
        self.sb_ins[sid] = [x, y]
        self.sb_outs[sid] = (z, w)
        self.sb_driver[z] = self.sb_driver[w] = sid
        self.fanout[x].add(("sb", sid, 0))
        self.fanout[y].add(("sb", sid, 1))

    def _detach(self, sid: int) -> None:
        for p, wire in enumerate(self.sb_ins.pop(sid)):
            self.fanout[wire].discard(("sb", sid, p))
        for wire in self.sb_outs.pop(sid):
            del self.sb_driver[wire]
            self.fanout.pop(wire, None)

    def reverse_switchbox(self, sid: int) -> None:
        """Swap an SB's inputs, so its crossed setting routes as parallel did."""
        x, y = self.sb_ins[sid]
        self.rewire(("sb", sid, 0), y)
        self.rewire(("sb", sid, 1), x)

    def remove_switchbox(self, sid: int) -> None:
        """Drop an SB, restoring its parallel (identity) wiring."""
        x, y = self.sb_ins[sid]
        z, w = self.sb_outs[sid]
        for site in self.consumers(z):
            self.rewire(site, x)
        for site in self.consumers(w):
            self.rewire(site, y)
        self._detach(sid)
        self.wire_names.pop(z, None)
        self.wire_names.pop(w, None)


class _ToggleCheck:
    """Non-degeneracy test for the switchboxes one insertion round added.

    The union step is compiled once, with earlier boxes at their intended
    setting and this round's boxes parallel. Dropping a box rewires it as
    parallel, and a kept box whose inputs are reversed is marked crossed, so
    both still route straight through and the step stays valid all round.
    """

    def __init__(self, work: _Work, intended: dict[int, str], sample_count: int):
        sbs = work.switchbox_list()
        self.step = union_step(work.inputs, work.outputs, work.gate_list(), sbs)
        self.index = {sb.id: i for i, sb in enumerate(sbs)}
        self.base = [-1 if intended.get(sb.id) == CROSSED else 0 for sb in sbs]
        self.n_inputs = len(work.inputs)
        self.state_width = sum(kind == "DFF" for kind in work.kind.values())
        self.sample_count = sample_count

    def verdict(self, sid: int, rng_seed: int) -> EquivalenceVerdict:
        """check_equivalence of the base selection against sid toggled alone."""
        step, base, i = self.step, self.base, self.index[sid]
        toggled = list(base)
        toggled[i] = ~base[i]
        return compare_steps(
            lambda x, s, mask: step(x, s, base, mask),
            lambda x, s, mask: step(x, s, toggled, mask),
            self.n_inputs,
            (self.state_width, self.state_width),
            sample_count=self.sample_count,
            rng_seed=rng_seed,
        )


def insert_switchboxes(
    net: Netlist,
    t: int,
    rng_seed: Rng = None,
    max_iterations: int = 1000,
    min_switchboxes: int = 0,
    sample_count: int = 10000,
) -> ObfuscatedNetlist:
    """Randomized switchbox insertion until every output cone holds >= t SBs.

    Each round picks a random gate neighborhood, finds a disjoint partner
    with the same number of incoming wires and of outputs, switches the
    paired boundary wires, and keeps only switchboxes whose two settings are
    functionally distinct (tested with one switchbox toggled at a time, all
    others held at their intended setting). Surviving switchboxes get a fair
    coin flip for the intended setting, rewired so the intended state always
    realizes the original function. Raises UnsatisfiableError with the best
    per-cone counts when max_iterations rounds cannot meet the target.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    rng = as_rng(rng_seed)
    work = _Work(net)
    intended: dict[int, str] = {}
    name = f"{net.name}.obf"

    def satisfied() -> bool:
        if len(work.sb_ins) < min_switchboxes:
            return False
        return all(c >= t for c in work.cone_counts())

    for _ in range(max_iterations):
        gates = sorted(work.kind)
        if not gates:
            break
        v = rng.choice(gates)
        nb_v = work.neighborhood(v)
        inc_v = work.incoming_edges(nb_v)
        out_v = work.output_gates(nb_v)

        partner = None
        for u in rng.sample(gates, len(gates)):
            nb_u = work.neighborhood(u)
            if nb_u & nb_v:
                continue
            if len(work.incoming_edges(nb_u)) != len(inc_v):
                continue
            if len(work.output_gates(nb_u)) != len(out_v):
                continue
            partner = (u, nb_u)
            break
        if partner is None:
            continue
        _, nb_u = partner
        inc_u = work.incoming_edges(nb_u)
        out_u = work.output_gates(nb_u)

        round_sbs: list[int] = []
        for (wx, gv, pv), (wy, gu, pu) in zip(inc_v, inc_u):
            sid = work.add_switchbox(wx, wy, [("gate", gv, pv)], [("gate", gu, pu)])
            if sid is not None:
                round_sbs.append(sid)
        for s_gate, t_gate in zip(out_v, out_u):
            sites_z = work.consumers(s_gate)
            sites_w = work.consumers(t_gate)
            sid = work.add_switchbox(s_gate, t_gate, sites_z, sites_w)
            if sid is not None:
                round_sbs.append(sid)

        if round_sbs:
            check = _ToggleCheck(work, intended, sample_count)
            for sid in round_sbs:
                if check.verdict(sid, rng.getrandbits(32)).equivalent:
                    # degenerate (or not provably non-degenerate): drop it
                    work.remove_switchbox(sid)
                    continue
                if rng.random() < 0.5:
                    work.reverse_switchbox(sid)
                    intended[sid] = CROSSED
                else:
                    intended[sid] = PARALLEL

        if satisfied():
            return work.snapshot(intended, name)

    counts = tuple(work.cone_counts())
    raise UnsatisfiableError(
        f"could not reach {t} switchboxes per output cone "
        f"within {max_iterations} iterations (best counts: {counts})",
        counts,
    )


# -- degeneracy scanning ---------------------------------------------------------


def degeneracy_scan(obf: ObfuscatedNetlist, samples: int, rng_seed: Rng = None) -> ScanReport:
    """Sample incorrect configurations and count functional matches.

    Draws `samples` uniform configurations different from the intended one,
    compares each with it on the union step over check_equivalence's vectors
    (a sequential or sampled compare draws its seed after the configuration),
    and reports the fraction equivalent with every offending configuration.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    nsb = obf.n_switchboxes
    if nsb == 0:
        raise NoIncorrectConfigsError("no incorrect configs exist")
    rng = as_rng(rng_seed)
    intended_bits = sum(1 << i for i, sb in enumerate(obf.switchboxes)
                        if obf.intended[sb.id] == CROSSED)
    step = union_step(obf.inputs, obf.outputs, obf.gates, obf.switchboxes)
    intended = _selects(intended_bits, nsb)
    m, width = len(obf.inputs), sum(g.kind == "DFF" for g in obf.gates)
    cycles = HORIZON if width else 1
    exhaustive = m * cycles <= EXHAUSTIVE_INPUTS
    # truth-table lanes as compare_steps lays them out; the intended outputs once
    pats, full = input_patterns(m * cycles) if exhaustive else ([], 0)
    vectors = [tuple(pats[c * m:(c + 1) * m]) for c in range(cycles)]

    def outputs(sel: list[int]) -> list[tuple]:
        state, outs = (0,) * width, []
        for x in vectors:
            out, state = step(x, state, sel, full)
            outs.append(out)
        return outs

    reference = outputs(intended) if exhaustive else None
    hits: list[dict[int, str]] = []
    for _ in range(samples):
        bits = rng.getrandbits(nsb)
        while bits == intended_bits:
            bits = rng.getrandbits(nsb)
        sel = _selects(bits, nsb)
        seed = rng.getrandbits(32) if width or not exhaustive else None
        if exhaustive:
            same = outputs(sel) == reference
        else:
            same = compare_steps(lambda x, s, mask: step(x, s, intended, mask),
                                 lambda x, s, mask: step(x, s, sel, mask),
                                 m, (width, width), rng_seed=seed).equivalent
        if same:
            hits.append(_bits_to_cfg(obf, bits))
    return ScanReport(samples, len(hits), hits)


def _bits_to_cfg(obf: ObfuscatedNetlist, bits: int) -> dict[int, str]:
    return {
        sb.id: CROSSED if (bits >> i) & 1 else PARALLEL
        for i, sb in enumerate(obf.switchboxes)
    }


# -- files -------------------------------------------------------------------------

_CFG_RE = re.compile(r"^\s*sb(\d+)\s*=\s*(parallel|crossed)\s*$")


def serialize_obfuscated(obf: ObfuscatedNetlist) -> str:
    """Netlist text with one `sbN = SB2(x, y -> z, w)` line per switchbox."""
    names: dict[int, str] = {}
    used = set()
    for w in sorted({*obf.inputs, *obf.outputs,
                     *(g.out for g in obf.gates),
                     *(w for sb in obf.switchboxes for w in (*sb.ins, *sb.outs)),
                     *(w for g in obf.gates for w in g.ins)}):
        cand = obf.wire_names.get(w, f"w{w}")
        while cand in used:
            cand += "_"
        names[w] = cand
        used.add(cand)
    lines = [f".model {obf.name}"]
    if obf.inputs:
        lines.append(".inputs " + " ".join(names[w] for w in obf.inputs))
    if obf.outputs:
        lines.append(".outputs " + " ".join(names[w] for w in obf.outputs))
    for g in obf.gates:
        lines.append(f"{names[g.out]} = {g.kind}(" + ", ".join(names[w] for w in g.ins) + ")")
    for sb in obf.switchboxes:
        lines.append(
            f"sb{sb.id} = SB2({names[sb.ins[0]]}, {names[sb.ins[1]]} -> "
            f"{names[sb.outs[0]]}, {names[sb.outs[1]]})"
        )
    return "\n".join(lines) + "\n"


def parse_obfuscated(text: str, intended: dict[int, str], name: str = "netlist") -> ObfuscatedNetlist:
    """serialize_obfuscated's text, read by parse_netlist's parser; errors give the line."""
    model, inputs, outputs, gates, sbs, names = parse_text(text, name, switchboxes=True)
    return ObfuscatedNetlist(model, tuple(inputs), tuple(outputs), tuple(gates),
                             tuple(Switchbox(*sb) for sb in sbs), dict(intended), names)


def format_config(intended: dict[int, str]) -> str:
    return "\n".join(f"sb{i} = {intended[i]}" for i in sorted(intended)) + "\n"


def parse_config(text: str) -> dict[int, str]:
    cfg: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _CFG_RE.match(line)
        if not m:
            raise NetlistSyntaxError("expected 'sbN = parallel|crossed'", lineno)
        cfg[int(m.group(1))] = m.group(2)
    return cfg
