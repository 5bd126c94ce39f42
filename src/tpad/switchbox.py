"""Switchbox wire-permutation elements and randomized insertion.

A two-input switchbox routes wire pair (x, y) either straight to (z, w)
(parallel) or swapped (crossed). Random insertion repeatedly pairs two
disjoint radius-1 gate neighborhoods with matching boundary shape, places
switchboxes on their incoming wires and outputs, drops any switchbox whose
two settings compute the same function, coin-flips the intended setting of
the survivors, and stops once every output cone holds at least t of them.
Each box is tested toggled alone against the original netlist's step,
compiled once per insertion with every wire as an output: the untoggled
side reads its outputs off those wire values, and the toggled side
propagates only the difference a toggle makes, gate by gate, as a fault is
propagated in event-driven fault simulation. A round's boxes are tested
in one blocked compare, box i toggled only in lane block i, so one walk
over the union of their cones serves them all. A box's seed is drawn after
the coin of the box before it, which only a kept box draws, so the round's
seeds are drawn ahead from a copy of the generator under a guess of which
boxes are kept, and boxes whose guessed seed proves wrong are compared
again; the verdicts and draws are those of testing one box after another.

Every insertion keeps the union dependency graph (a switchbox output
depending on both its inputs) acyclic, so all 2^#SB configurations yield
valid netlists, not just the intended one.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from typing import Callable, ClassVar, Iterable, Mapping, Optional, Sequence

from .netlist import (
    BATCH,
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


class _Positions(dict):
    """Union wire -> index of the original wire it carries (`_Work.origin`) in the values
    of _wire_step; an entry holds for a whole insertion, since wire ids are never reused."""

    def __init__(self, index: dict[int, int], origin: dict[int, int]):
        super().__init__(index)
        self.origin = origin

    def __missing__(self, w: int) -> int:
        k = self[w] = self[self.origin[w]]
        return k


class _ToggleCheck:
    """Non-degeneracy tests of a round's undecided switchboxes against the base selection.

    At the base selection (decided boxes at their intended setting, the
    round's undecided boxes parallel) every union wire carries the value of
    the original wire it stands for (`_Work.origin`), from any state. So the
    base side reads its outputs and DFF D inputs off `original`, the
    original netlist's step with every wire as an output (_wire_step, the
    one step an insertion compiles). The toggled side starts from the same
    values, flips each tested box's outputs in its own lane block where its
    inputs differ, and walks forward in `_Work.rank` order, evaluating a node
    again only when an input of it changed, until no difference is left; so
    one walk over the union of the boxes' cones serves them all, as parallel
    fault simulation runs one faulty machine per bit slice (Seshu 1965).
    DFFs read their Q from the state, so the walk stops at them. `original`
    runs only when (inputs, state, mask) differ from its last run: once per
    call while the two sides' states agree. Each verdict and counterexample
    is the one the whole union step gives with that box toggled alone.
    Dropping a box rewires it as parallel, and a kept box whose inputs are
    reversed is marked crossed, so both still route straight through and the
    other boxes' verdicts stand.
    """

    def __init__(self, original: tuple[Callable, dict[int, int]], work: _Work,
                 intended: dict[int, str], sample_count: int):
        (self.wire_step, index), self.last = original, (None, ())
        self.work, self.intended, self.sample_count = work, intended, sample_count
        self.pos = _Positions(index, work.origin)
        self.fns = {o: _gate_fn(kind, len(work.ins[o])) for o, kind in work.kind.items()
                    if kind != "DFF"}
        self.ahead = random.Random(0)  # set to an insertion generator's state to draw ahead

    def values(self, x: tuple, s: tuple, mask: int) -> tuple[int, ...]:
        """Every original wire's value, from the last run if it had these arguments."""
        if self.last[0] != (x, s, mask):
            self.last = (x, s, mask), self.wire_step(x, s, mask)[0]
        return self.last[1]

    def toggled(self, sids: Sequence[int]) -> Callable:
        """The union's step(inp, state, mask, blocks=()) with sids[i] crossed in the lanes
        the {i: lanes} mapping blocks gives it, and so at the base selection without blocks;
        it holds until the wiring next changes."""
        work, pos, rank, intended, values, fns = (self.work, self.pos, self.work.rank,
                                                  self.intended, self.values, self.fns)
        kinds, gate_ins, sb_ins, sb_outs, fanout = (work.kind, work.ins, work.sb_ins, work.sb_outs,
                                                    work.fanout)
        wires = [*work.outputs, *(gate_ins[o][0] for o in work.dffs)]  # what a compare reads
        at, n = [pos[w] for w in wires], len(work.outputs)
        readers: dict[int, list[tuple]] = {}  # wire -> (rank, kind, ref) of the nodes walked from it

        def step(x, s, mask, blocks=()):
            v = values(x, s, mask)
            if not blocks:  # the base selection
                return [v[k] for k in at[:n]], tuple(v[k] for k in at[n:])
            new, cross = {}, {sids[i]: lanes for i, lanes in blocks.items()}
            heap = sorted((rank["sb", sid], "sb", sid) for sid in cross)  # sorted: a heap
            queued = set(heap)
            while heap:
                _, kind, ref = heappop(heap)
                if kind == "gate":
                    value = fns[ref](*[new[w] if w in new else v[pos[w]] for w in gate_ins[ref]], mask)
                    changed = () if value == v[pos[ref]] else ((ref, value),)
                else:
                    (a, b), outs = [new[w] if w in new else v[pos[w]] for w in sb_ins[ref]], sb_outs[ref]
                    if intended.get(ref) == CROSSED:
                        a, b = b, a
                    if ref in cross:  # crossed again in its block
                        t = (a ^ b) & cross[ref]
                        a, b = a ^ t, b ^ t
                    changed = [(w, c) for w, c in zip(outs, (a, b)) if c != v[pos[w]]]
                for w, value in changed:  # a changed wire queues its readers
                    new[w] = value
                    if w not in readers:
                        readers[w] = [(rank[k, r], k, r) for k, r, _ in fanout.get(w, ())
                                      if k == "sb" or k == "gate" and kinds[r] != "DFF"]
                    for node in readers[w]:
                        if node not in queued:
                            queued.add(node)
                            heappush(heap, node)
            got = [new[w] if w in new else v[k] for w, k in zip(wires, at)]
            return got[:n], tuple(got[n:])

        return step

    def verdicts(self, sids: Sequence[int], seeds: Sequence[int],
                 sample_count: Optional[int] = None) -> list[EquivalenceVerdict]:
        """check_equivalence of the base selection against each sids[i] toggled alone,
        its sampled vectors drawn from seeds[i], in one blocked compare."""
        width, step = len(self.work.dffs), self.toggled(sids)
        return compare_steps(step, step, len(self.work.inputs), (width, width),
                             sample_count or self.sample_count, seeds)

    def settle(self, sids: list[int], rng: random.Random) -> None:
        """Test a round's boxes, in order: drop each degenerate one (or one not provably
        non-degenerate), and give each other one a fair coin for its intended setting.

        rng draws what testing one box after another draws: each box's seed, then the
        coin of a kept box. So the seeds are drawn ahead, from a copy of rng, first as
        if every box were kept. One batch of each box's vectors then guesses which boxes
        are kept (those it refutes), and the boxes whose seed that guess changes, or that
        the batch leaves open, are compared in full with the seeds drawn ahead again.
        Then the draws are made in order; a box that breaks the guess (its later batches
        refute it) leaves the boxes after it to be compared again from there. An
        exhaustive compare ignores its seed, so it is never redone.
        """
        work, intended, sample_count = self.work, self.intended, self.sample_count
        while sids:
            # getrandbits(96n) draws the next 3n 32-bit words, word k at bit 32k
            # (rng.random_bits relies on the same order); a seed takes one, a coin two
            self.ahead.setstate(rng.getstate())
            stream = self.ahead.getrandbits(96 * len(sids))
            words = [stream >> 32 * k & 0xFFFFFFFF for k in range(3 * len(sids))]
            first = _seeds(words, [True] * len(sids))
            got = self.verdicts(sids, first, min(BATCH, sample_count))
            keep = [not v.equivalent for v in got]
            seeds = _seeds(words, keep)
            again = [k for k, v in enumerate(got) if v.mode == "sampled" and (
                seeds[k] != first[k] or v.equivalent and v.vectors_checked < sample_count)]
            if again:
                for k, v in zip(again, self.verdicts([sids[k] for k in again],
                                                     [seeds[k] for k in again])):
                    got[k] = v
            redo: list[int] = []
            for k, (sid, verdict) in enumerate(zip(sids, got)):
                rng.getrandbits(32)  # seeds[k]
                if verdict.equivalent:
                    work.remove_switchbox(sid)
                elif rng.random() < 0.5:
                    work.reverse_switchbox(sid)
                    intended[sid] = CROSSED
                else:
                    intended[sid] = PARALLEL
                if verdict.mode == "sampled" and verdict.equivalent == keep[k]:
                    redo = sids[k + 1:]
                    break
            sids = redo


def _seeds(words: Sequence[int], keep: Sequence[bool]) -> list[int]:
    """The seeds a round's boxes draw from a stream of 32-bit words when box k draws its
    coin iff keep[k]: getrandbits(32) takes one word and random() two."""
    seeds, at = [], 0
    for kept in keep:
        seeds.append(words[at])
        at += 1 + 2 * kept
    return seeds


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
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
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

        check.settle(round_sbs, rng)

        if len(work.sb_ins) >= min_switchboxes and work.satisfied(t):
            return work.snapshot(intended, name)

    counts = tuple(map(work.cone_count, range(len(work.outputs))))
    raise UnsatisfiableError(
        f"could not reach {t} switchboxes per output cone "
        f"within {max_iterations} iterations (best counts: {counts})",
        counts,
    )


# -- degeneracy scanning ---------------------------------------------------------


PACK = 64  # configurations per union-step call of a truth-table scan's probe


def degeneracy_scan(obf: ObfuscatedNetlist, samples: int, rng_seed: Rng = None) -> ScanReport:
    """Sample incorrect configurations and count functional matches.

    Draws `samples` uniform configurations different from the intended one,
    each followed by a seed when the compare is sequential or sampled, and
    reports the fraction equivalent to the intended one, with every such
    configuration in draw order. They are decided in one compare_steps call
    on the union step, one lane block per configuration: box i's select is
    the OR of the lanes of the blocks whose configuration crosses box i.

    A truth-table scan first runs a fixed probe of max(PACK, boxes) table
    points, PACK configurations to a union-step call, block c's lanes crossing
    box i when configuration c does. A probe point is a row of every table, so
    only the configurations that match the intended one there are compared.
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
    intended = [-((intended_bits >> i) & 1) for i in range(nsb)]
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
    candidates = list(range(samples))
    if exhaustive:  # keep the configurations whose outputs match the intended ones on the probe
        def outputs(variables: Sequence[int], sel: Sequence[int], mask: int) -> list[int]:
            """Every cycle's outputs, with variable c*m+j as input j in cycle c."""
            state, outs = (0,) * width, []
            for c in range(cycles):
                out, state = step(tuple(variables[c * m:(c + 1) * m]), state, sel, mask)
                outs += out
            return outs

        size, w = 1 << m * cycles, max(PACK, nsb)
        points = [k % size for k in range(w)] if size <= w else as_rng(0).sample(range(size), w)
        block, lanes = (1 << w) - 1, (1 << PACK * w) - 1
        rep = lanes // block  # bit 0 of every block
        probe = [sum(((p >> v) & 1) << k for k, p in enumerate(points)) * rep
                 for v in range(m * cycles)]
        probe_ref, candidates = outputs(probe, intended, lanes), []
        for start in range(0, samples, PACK):
            chunk = configs[start:start + PACK]
            y = sum(bits << c * w for c, bits in enumerate(chunk))
            diff = 0
            for a, b in zip(outputs(probe, [((y >> i) & rep) * block for i in range(nsb)], lanes),
                            probe_ref):
                diff |= a ^ b
            candidates += [start + c for c in range(len(chunk)) if not (diff >> c * w) & block]
    crossed = [[i for i in range(nsb) if configs[k] >> i & 1] for k in candidates]

    def variant(x: tuple, s: tuple, mask: int, blocks: Mapping[int, int]) -> tuple:
        """The union step with block b's lanes at configuration candidates[b]."""
        sel = [0] * nsb
        for b, lanes in blocks.items():
            for i in crossed[b]:
                sel[i] |= lanes
        return step(x, s, sel, mask)

    verdicts = compare_steps(lambda x, s, mask: step(x, s, intended, mask), variant, m,
                             (width, width), rng_seeds=[seeds[k] for k in candidates])
    hits = [{sb.id: CROSSED if configs[k] >> i & 1 else PARALLEL for i, sb in enumerate(obf.switchboxes)}
            for k, v in zip(candidates, verdicts) if v.equivalent]
    return ScanReport(samples, len(hits), hits)


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
