"""Switchbox wire-permutation elements and randomized insertion.

A two-input switchbox routes wire pair (x, y) either straight to (z, w)
(parallel) or swapped (crossed). Random insertion repeatedly pairs two
disjoint radius-1 gate neighborhoods with matching boundary shape, places
switchboxes on their incoming wires and outputs, drops any switchbox whose
two settings compute the same function, coin-flips the intended setting of
the survivors, and stops once every output cone holds at least t of them.
Each round's boxes are tested one toggle at a time against the original
netlist's step, compiled once per insertion with every wire as an output:
the untoggled side reads its outputs off those wire values, and the
toggled side propagates only the difference the toggle makes, gate by
gate, as a single fault is propagated in event-driven fault simulation.

Every insertion keeps the union dependency graph (a switchbox output
depending on both its inputs) acyclic, so all 2^#SB configurations yield
valid netlists, not just the intended one.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from typing import Callable, ClassVar, Iterable, Mapping, Optional, Sequence

from .netlist import (
    EXHAUSTIVE_INPUTS,
    HORIZON,
    EquivalenceVerdict,
    Gate,
    Netlist,
    NetlistError,
    check_equivalence,  # noqa: F401 - part of this module's namespace, which perfbench traces
    compare_steps,
    define,
    format_text,
    input_patterns,
    parse_text,
    stable_names,
    text_lines,
    topo_order,
    _compile_step,
    _gate_expr,
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
        gate_ins = {g.out: g.ins for g in self.gates}
        sb_driver = {w: sb.id for sb in self.switchboxes for w in sb.outs}
        sb_ins = {sb.id: sb.ins for sb in self.switchboxes}
        return tuple(_cone_switchboxes(w, gate_ins, sb_driver, sb_ins) for w in self.outputs)


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
    (kind, ref, pin) sites reading it. `origin` maps every output wire a
    box ever had to the original netlist's wire it carries when the boxes
    route as intended; chains of boxes are resolved as each box is added,
    and entries outlive removed boxes, since wire ids are never reused.

    The union graph's nodes are ("gate", out) for each non-DFF gate and
    ("sb", id) for each box, a site's first two fields. DFFs cut the graph,
    so their outputs are sources, as are the inputs (rank 0). `rank` labels
    every node above the nodes it reads, a topological order that is kept
    as boxes come and go (Pearce and Kelly 2006), and `labels` holds the
    labels in ascending order.
    """

    GAP = 1 << 16  # the first labels' spacing, and the factor that spreads out worn-down gaps

    def __init__(self, net: Netlist):
        self.inputs = list(net.inputs)
        self.outputs = list(net.outputs)
        self.kind: dict[int, str] = {g.out: g.kind for g in net.gates}
        self.ins: dict[int, list[int]] = {g.out: list(g.ins) for g in net.gates}
        self.dffs = [g.out for g in net.gates if g.kind == "DFF"]
        self.sb_ins: dict[int, list[int]] = {}
        self.sb_outs: dict[int, tuple[int, int]] = {}
        self.sb_driver: dict[int, int] = {}
        self.origin: dict[int, int] = {}
        self.fanout: dict[int, set[tuple]] = defaultdict(set)
        for o, pins in self.ins.items():
            for p, w in enumerate(pins):
                self.fanout[w].add(("gate", o, p))
        for i, w in enumerate(self.outputs):
            self.fanout[w].add(("po", i, 0))
        self.rank = {("gate", g.out): k * self.GAP for k, g in enumerate(net._topo, 1)}
        self.labels = sorted(self.rank.values())
        self.unmet = list(range(len(self.outputs)))  # every output whose cone holds < t boxes
        self.wire_names = dict(net.wire_names)
        self.next_wire = max([*net.inputs, *(g.out for g in net.gates), -1]) + 1
        self.next_sb = 0
        self.gates: dict[int, Gate] = {}  # gate(o), until a pin of o is rewired

    def fresh_wire(self) -> int:
        w = self.next_wire
        self.next_wire += 1
        return w

    def gate(self, o: int) -> Gate:
        g = self.gates.get(o)
        if g is None:
            g = self.gates[o] = Gate(o, self.kind[o], tuple(self.ins[o]))
        return g

    def switchbox(self, sid: int) -> Switchbox:
        return Switchbox(sid, tuple(self.sb_ins[sid]), self.sb_outs[sid])

    def snapshot(self, intended: dict[int, str], name: str) -> ObfuscatedNetlist:
        return ObfuscatedNetlist(
            name,
            tuple(self.inputs),
            tuple(self.outputs),
            tuple(self.gate(o) for o in self.kind),
            tuple(self.switchbox(i) for i in sorted(self.sb_ins)),
            dict(intended),
            dict(self.wire_names),
        )

    def cone_count(self, i: int) -> int:
        """Switchboxes in output i's cone, as ObfuscatedNetlist.per_output_sb_count."""
        return _cone_switchboxes(self.outputs[i], self.ins, self.sb_driver, self.sb_ins)

    def satisfied(self, t: int) -> bool:
        """True once every output cone holds at least t switchboxes.

        Cone counts never fall: a box is spliced into wires and spliced back
        out, and reversing it keeps its inputs. So only the first output on
        `unmet` is counted, and dropped once it has t.
        """
        while self.unmet and self.cone_count(self.unmet[0]) >= t:
            del self.unmet[0]
        return not self.unmet

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
            self.gates.pop(ref, None)
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

    def nodes(self, sites: Iterable[tuple]) -> list[tuple]:
        """The union nodes of some sites; an output port or a DFF is none."""
        kind = self.kind
        return [s[:2] for s in sites if s[0] == "sb" or s[0] == "gate" and kind[s[1]] != "DFF"]

    def driver(self, wire: int) -> Optional[tuple]:
        """The union node driving a wire; None for a source."""
        if wire in self.sb_driver:
            return ("sb", self.sb_driver[wire])
        return ("gate", wire) if self.kind.get(wire, "DFF") != "DFF" else None

    def _forward(self, starts: list[tuple], top: int, targets: list[tuple]) -> Optional[set]:
        """Nodes reachable from starts with rank <= top; None if one is in targets."""
        seen, stack = set(starts), list(starts)
        while stack:
            node = stack.pop()
            if node in targets:
                return None
            for w in self.sb_outs[node[1]] if node[0] == "sb" else node[1:]:
                for n in self.nodes(self.fanout.get(w, ())):
                    if n not in seen and self.rank[n] <= top:
                        seen.add(n)
                        stack.append(n)
        return seen

    def _place(self, node: tuple, top: int, later: set) -> None:
        """Label a new node just after `top`, the later of its drivers' labels.

        `later` holds every node reading it, directly or not, labelled at or
        before `top`; they move, in their order, to just after it. That is
        the forward half of Pearce and Kelly's reorder; the backward half is
        empty, since the new node may take any label after its drivers.
        """
        rank, labels = self.rank, self.labels
        moved = [node, *sorted(later, key=rank.get)]
        for n in later:
            del labels[bisect_left(labels, rank[n])]
        i = bisect_right(labels, top)
        while i < len(labels) and labels[i] - top <= len(moved):  # no room: spread all out
            self.rank = rank = {n: r * self.GAP for n, r in rank.items()}
            self.labels = labels = [r * self.GAP for r in labels]
            top *= self.GAP
        step = (labels[i] - top) // (len(moved) + 1) if i < len(labels) else self.GAP
        labels[i:i] = new = [top + step * k for k in range(1, len(moved) + 1)]
        rank.update(zip(moved, new))

    # neighborhood machinery -----------------------------------------------------

    def neighborhood(self, v: int) -> set[int]:
        """Gate v with the gates driving it and the gates reading it."""
        return {v, *(w for w in self.ins[v] if w in self.kind),
                *(o for kind, o, _ in self.fanout.get(v, ()) if kind == "gate")}

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

    def shape(self, nb: set[int]) -> tuple[int, int]:
        """(len(incoming_edges(nb)), len(output_gates(nb))), counted without the lists."""
        n_in = n_out = 0
        for g in nb:
            for w in self.ins[g]:
                if w not in nb:
                    n_in += 1
            for kind, o, _ in self.fanout.get(g, ()):
                if kind != "gate" or o not in nb:
                    n_out += 1
                    break
        return n_in, n_out

    # switchbox editing -----------------------------------------------------------

    def add_switchbox(self, x: int, y: int, sites_z: list[tuple], sites_w: list[tuple]) -> Optional[int]:
        """Insert an SB over (x, y), rerouting the given sites to its outputs.

        Returns the new SB id, or None (with no state change but two wire
        ids spent) when the insertion would let some configuration form a
        combinational cycle: when a rerouted site reaches either driver. Only
        a site labelled at or before the later driver can, and only through
        nodes labelled so, so the search stays in that window. Stacking
        directly onto another SB's output pair is refused: crossing both
        boxes would cancel out, a guaranteed two-SB degenerate config.
        """
        if x == y:
            return None
        if x in self.sb_driver and self.sb_driver[x] == self.sb_driver.get(y):
            return None
        z = self.fresh_wire()
        w = self.fresh_wire()
        rank = self.rank
        drivers = [d for d in (self.driver(x), self.driver(y)) if d]
        top = max([rank[d] for d in drivers], default=0)
        early = [n for n in self.nodes(sites_z + sites_w) if rank[n] <= top]
        later = self._forward(early, top, drivers) if early else ()
        if later is None:
            return None
        sid = self.next_sb
        self.next_sb += 1
        for site in sites_z:
            self.rewire(site, z)
        for site in sites_w:
            self.rewire(site, w)
        self.sb_ins[sid] = [x, y]
        self.sb_outs[sid] = (z, w)
        self.sb_driver[z] = self.sb_driver[w] = sid
        self.fanout[x].add(("sb", sid, 0))
        self.fanout[y].add(("sb", sid, 1))
        self._place(("sb", sid), top, later)
        self.origin[z] = self.origin.get(x, x)
        self.origin[w] = self.origin.get(y, y)
        self.wire_names[z] = f"sb{sid}_a"
        self.wire_names[w] = f"sb{sid}_b"
        return sid

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
        for p, wire in enumerate(self.sb_ins.pop(sid)):
            self.fanout[wire].discard(("sb", sid, p))
        for wire in self.sb_outs.pop(sid):
            del self.sb_driver[wire]
            self.fanout.pop(wire, None)
        del self.labels[bisect_left(self.labels, self.rank.pop(("sb", sid)))]
        self.wire_names.pop(z, None)
        self.wire_names.pop(w, None)


def _wire_step(net: Netlist) -> tuple[Callable, dict[int, int]]:
    """net's step(inp, state, mask=1) returning every wire's value, and each wire's index."""
    wires = (*net.inputs, *(g.out for g in net.gates))
    step = _compile_step(net.inputs, net._topo, net._dffs, wires)
    return step, {w: k for k, w in enumerate(wires)}


@lru_cache(maxsize=None)
def _gate_fn(kind: str, arity: int) -> Callable:
    """gate(a0, ..., mask): one `kind` gate over `arity` operands, compiled once per process."""
    args = [f"a{i}" for i in range(arity)]
    return define([f"def gate({', '.join([*args, 'mask'])}):", f" return {_gate_expr(kind, args)}"],
                  "gate", {}, f"gate {kind}/{arity}")


class _ToggleCheck:
    """Non-degeneracy test of one undecided switchbox against the base selection.

    At the base selection (decided boxes at their intended setting, the
    round's undecided boxes parallel) every union wire carries the value of
    the original wire it stands for (`_Work.origin`), from any state. So the
    base side reads its outputs and DFF D inputs off `original`, the
    original netlist's step with every wire as an output (_wire_step, the
    one step an insertion compiles). The toggled side starts from the same
    values, flips the box's outputs in the lanes where its inputs differ and
    walks forward in `_Work.rank` order, evaluating a node again only when
    an input of it changed, until no difference is left; DFFs read their Q
    from the state, so the walk stops at them. `original` runs only when
    (inputs, state, mask) differ from its last run: once per cycle while the
    two sides' states agree. Verdicts and counterexamples are those the
    whole union step would give. Dropping a box rewires it as parallel, and
    a kept box whose inputs are reversed is marked crossed, so both still
    route straight through.
    """

    def __init__(self, original: tuple[Callable, dict[int, int]], work: _Work,
                 intended: dict[int, str], sample_count: int):
        (self.wire_step, self.index), self.last = original, (None, ())
        self.work, self.intended, self.sample_count = work, intended, sample_count

    def values(self, x: tuple, s: tuple, mask: int) -> tuple[int, ...]:
        """Every original wire's value, from the last run if it had these arguments."""
        if self.last[0] != (x, s, mask):
            self.last = (x, s, mask), self.wire_step(x, s, mask)[0]
        return self.last[1]

    def steps(self, sid: int) -> tuple[Callable, Callable]:
        """The union's step(inp, state, mask) at the base selection, and with sid crossed;
        both hold until the wiring next changes."""
        work, index, origin, rank, intended, values = (self.work, self.index, self.work.origin,
                                                        self.work.rank, self.intended, self.values)
        kinds, gate_ins, sb_ins, sb_outs, fanout = (work.kind, work.ins, work.sb_ins, work.sb_outs,
                                                    work.fanout)
        wires = [*work.outputs, *(gate_ins[o][0] for o in work.dffs)]  # what a compare reads
        pos, n = [index[origin.get(w, w)] for w in wires], len(work.outputs)

        def step(x, s, mask, toggle=False):
            v, new = values(x, s, mask), {}
            heap = [(rank["sb", sid], ("sb", sid))] if toggle else []  # the base side walks nothing
            queued = {node for _, node in heap}
            while heap:
                kind, ref = heappop(heap)[1]
                ins, outs = (gate_ins[ref], (ref,)) if kind == "gate" else (sb_ins[ref], sb_outs[ref])
                got = [new[w] if w in new else v[index[origin.get(w, w)]] for w in ins]
                if kind == "gate":
                    got = (_gate_fn(kinds[ref], len(ins))(*got, mask),)
                elif (intended.get(ref) == CROSSED) != (ref == sid):  # crossed as intended, or sid
                    got.reverse()
                for w, value in zip(outs, got):
                    if value != v[index[origin.get(w, w)]]:  # a changed wire queues its readers
                        new[w] = value
                        for k, r, _ in fanout.get(w, ()):
                            node = k, r
                            if k != "po" and node not in queued and (k == "sb" or kinds[r] != "DFF"):
                                queued.add(node)
                                heappush(heap, (rank[node], node))
            got = [new.get(w, v[k]) for w, k in zip(wires, pos)]
            return got[:n], tuple(got[n:])

        return step, lambda x, s, mask: step(x, s, mask, True)

    def verdict(self, sid: int, rng_seed: int) -> EquivalenceVerdict:
        """check_equivalence of the base selection against sid toggled alone."""
        width = len(self.work.dffs)
        return compare_steps(*self.steps(sid), len(self.work.inputs), (width, width),
                             sample_count=self.sample_count, rng_seed=rng_seed)


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
    check = _ToggleCheck(_wire_step(net), work, intended, sample_count)
    name = f"{net.name}.obf"

    gates = sorted(work.kind)
    for _ in range(max_iterations if gates else 0):
        v = rng.choice(gates)
        nb_v = work.neighborhood(v)
        inc_v = work.incoming_edges(nb_v)
        out_v = work.output_gates(nb_v)
        shape = (len(inc_v), len(out_v))

        for u in rng.sample(gates, len(gates)):
            nb_u = work.neighborhood(u)
            if not nb_u & nb_v and work.shape(nb_u) == shape:
                break
        else:
            continue
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

        if len(work.sb_ins) >= min_switchboxes and work.satisfied(t):
            return work.snapshot(intended, name)

    counts = tuple(map(work.cone_count, range(len(work.outputs))))
    raise UnsatisfiableError(
        f"could not reach {t} switchboxes per output cone "
        f"within {max_iterations} iterations (best counts: {counts})",
        counts,
    )


# -- degeneracy scanning ---------------------------------------------------------


PACK = 64  # configurations per union-step call of a truth-table scan


def degeneracy_scan(obf: ObfuscatedNetlist, samples: int, rng_seed: Rng = None) -> ScanReport:
    """Sample incorrect configurations and count functional matches.

    Draws `samples` uniform configurations different from the intended one,
    compares each with it on the union step over check_equivalence's vectors
    (a sequential or sampled compare draws its seed after the configuration),
    and reports the fraction equivalent with every offending configuration.

    A truth-table scan runs PACK configurations per union-step call: box i's
    select is a lane int whose block c is all ones when configuration c
    crosses box i, and every block holds one fixed probe of max(PACK, boxes)
    table points. Only configurations whose probe outputs match the intended
    selection's are compared on the whole table, so the report is unchanged.
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
    configs, seeds = [], []
    for _ in range(samples):
        bits = rng.getrandbits(nsb)
        while bits == intended_bits:
            bits = rng.getrandbits(nsb)
        configs.append(bits)
        seeds.append(rng.getrandbits(32) if width or not exhaustive else None)
    hits = []
    if not exhaustive:
        for bits, seed in zip(configs, seeds):
            sel = _selects(bits, nsb)
            if compare_steps(lambda x, s, mask: step(x, s, intended, mask),
                             lambda x, s, mask: step(x, s, sel, mask),
                             m, (width, width), rng_seed=seed).equivalent:
                hits.append(bits)
        return ScanReport(samples, len(hits), [_bits_to_cfg(obf, b) for b in hits])

    def outputs(variables: Sequence[int], sel: Sequence[int], mask: int) -> list[int]:
        """Every cycle's outputs, with variable c*m+j as input j in cycle c."""
        state, outs = (0,) * width, []
        for c in range(cycles):
            out, state = step(tuple(variables[c * m:(c + 1) * m]), state, sel, mask)
            outs += out
        return outs

    # truth-table lanes as compare_steps lays them out, and the probe's
    pats, full = input_patterns(m * cycles)
    size, w = full.bit_length(), max(PACK, nsb)
    points = [k % size for k in range(w)] if size <= w else as_rng(0).sample(range(size), w)
    block, lanes = (1 << w) - 1, (1 << PACK * w) - 1
    rep = lanes // block  # bit 0 of every block
    probe = [sum(((p >> v) & 1) << k for k, p in enumerate(points)) * rep
             for v in range(m * cycles)]
    probe_ref, reference = outputs(probe, intended, lanes), outputs(pats, intended, full)
    for start in range(0, samples, PACK):
        chunk = configs[start:start + PACK]
        y = sum(bits << c * w for c, bits in enumerate(chunk))
        diff = 0
        for a, b in zip(outputs(probe, [((y >> i) & rep) * block for i in range(nsb)], lanes),
                        probe_ref):
            diff |= a ^ b
        hits += [bits for c, bits in enumerate(chunk) if not (diff >> c * w) & block
                 and outputs(pats, _selects(bits, nsb), full) == reference]
    return ScanReport(samples, len(hits), [_bits_to_cfg(obf, b) for b in hits])


def _bits_to_cfg(obf: ObfuscatedNetlist, bits: int) -> dict[int, str]:
    return {
        sb.id: CROSSED if (bits >> i) & 1 else PARALLEL
        for i, sb in enumerate(obf.switchboxes)
    }


# -- files -------------------------------------------------------------------------

_CFG_RE = re.compile(r"^\s*sb(\d+)\s*=\s*(parallel|crossed)\s*$")


def serialize_obfuscated(obf: ObfuscatedNetlist) -> str:
    """Netlist text with one `sbN = SB2(x, y -> z, w)` line per switchbox."""
    names = stable_names((*obf.inputs, *obf.outputs,
                          *(w for g in obf.gates for w in (g.out, *g.ins)),
                          *(w for sb in obf.switchboxes for w in (*sb.ins, *sb.outs))),
                         obf.wire_names)
    sbs = [f"sb{sb.id} = SB2({names[sb.ins[0]]}, {names[sb.ins[1]]} -> "
           f"{names[sb.outs[0]]}, {names[sb.outs[1]]})" for sb in obf.switchboxes]
    return format_text(obf.name, obf.inputs, obf.outputs, obf.gates, names, sbs)


def parse_obfuscated(text: str, intended: dict[int, str], name: str = "netlist") -> ObfuscatedNetlist:
    """serialize_obfuscated's text, read by parse_netlist's parser; errors give the line."""
    model, inputs, outputs, gates, sbs, names = parse_text(text, name, switchboxes=True)
    return ObfuscatedNetlist(model, tuple(inputs), tuple(outputs), tuple(gates),
                             tuple(Switchbox(*sb) for sb in sbs), dict(intended), names)


def format_config(intended: dict[int, str]) -> str:
    return "\n".join(f"sb{i} = {intended[i]}" for i in sorted(intended)) + "\n"


def parse_config(text: str) -> dict[int, str]:
    cfg: dict[int, str] = {}
    for lineno, line in text_lines(text):
        m = _CFG_RE.match(line)
        if not m:
            raise NetlistSyntaxError("expected 'sbN = parallel|crossed'", lineno)
        if int(m.group(1)) in cfg:
            raise NetlistSyntaxError(f"repeated switchbox sb{m.group(1)}", lineno)
        cfg[int(m.group(1))] = m.group(2)
    return cfg
