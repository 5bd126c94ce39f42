"""Gate-level netlist IR: text format, simulation, logic cones, equivalence.

The netlist text format is line oriented:

    # one-bit full adder
    .model adder
    .inputs a b cin
    .outputs s cout
    x1 = XOR(a, b)
    s = XOR(x1, cin)
    g1 = AND(a, b)
    g2 = AND(x1, cin)
    cout = OR(g1, g2)

Gate kinds: AND OR XOR NAND NOR (arity >= 2), NOT BUF DFF (arity 1),
CONST0 CONST1 (arity 0). Every wire has exactly one driver (a primary
input or a gate output), and the combinational part must be acyclic;
DFF outputs act as cut points. Forward references are allowed. The
serializer emits a canonical form (gates in topological order) that
round-trips through the parser bit exactly.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

Bits = tuple[int, ...]

GATE_KINDS = ("AND", "OR", "XOR", "NAND", "NOR", "NOT", "BUF", "CONST0", "CONST1", "DFF")
_UNARY = ("NOT", "BUF", "DFF")
_NULLARY = ("CONST0", "CONST1")


class NetlistError(Exception):
    """Base class for netlist construction and parsing failures."""


class NetlistSyntaxError(NetlistError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class MultipleDriverError(NetlistError):
    pass


class UndrivenWireError(NetlistError):
    pass


class ArityError(NetlistError):
    pass


class CombinationalCycleError(NetlistError):
    pass


class WidthError(NetlistError):
    pass


class ArityMismatchError(NetlistError):
    """Two netlists cannot be compared because their port counts differ."""


@dataclass(frozen=True)
class Gate:
    out: int
    kind: str
    ins: tuple[int, ...]

    @property
    def outs(self) -> tuple[int]:
        return (self.out,)


def topo_order(nodes: Sequence, cycle_error: Callable) -> list:
    """Evaluation order of nodes with `kind`, `ins` and `outs` (wire ids).

    DFFs cut the graph: they are left out of the order, and the wires they
    drive count as sources. A combinational cycle raises cycle_error(node)
    for a node on it.
    """
    driver = {w: i for i, n in enumerate(nodes) for w in n.outs}
    cut = [n.kind == "DFF" for n in nodes]
    state = [0] * len(nodes)  # 0 unseen, 1 visiting, 2 done
    order = []
    for root in range(len(nodes)):
        if cut[root] or state[root]:
            continue
        stack = [(root, 0)]
        state[root] = 1
        while stack:
            i, idx = stack.pop()
            ins = nodes[i].ins
            while idx < len(ins):
                d = driver.get(ins[idx])
                idx += 1
                if d is None or cut[d]:
                    continue
                if state[d] == 1:
                    raise cycle_error(nodes[d])
                if not state[d]:
                    stack.append((i, idx))
                    stack.append((d, 0))
                    state[d] = 1
                    break
            else:
                state[i] = 2
                order.append(nodes[i])
    return order


class Netlist:
    """Immutable single-driver gate graph with ordered input/output ports."""

    def __init__(
        self,
        name: str,
        inputs: Sequence[int],
        outputs: Sequence[int],
        gates: Sequence[Gate],
        wire_names: Optional[dict[int, str]] = None,
    ):
        self.name = name
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.gates = tuple(gates)
        self.wire_names = dict(wire_names or {})
        self._validate()
        self._topo = self._topo_sort()
        self._dffs = tuple(g for g in self.gates if g.kind == "DFF")
        self._step: Optional[Callable] = None
        self._fault_step: Optional[tuple[Callable, dict[int, int]]] = None
        self._names: Optional[tuple[dict[int, str], dict[str, int]]] = None  # as serialized

    # -- construction checks -------------------------------------------------

    def _validate(self) -> None:
        driver: dict[int, str] = {}
        for w in self.inputs:
            if w in driver:
                raise MultipleDriverError(f"wire {self._wn(w)} listed as input twice")
            driver[w] = "input"
        for g in self.gates:
            if g.kind not in GATE_KINDS:
                raise ArityError(f"unknown gate kind {g.kind!r}")
            need = 1 if g.kind in _UNARY else 0 if g.kind in _NULLARY else None
            if need is None:
                if len(g.ins) < 2:
                    raise ArityError(f"{g.kind} gate {self._wn(g.out)} needs >= 2 inputs")
            elif len(g.ins) != need:
                raise ArityError(f"{g.kind} gate {self._wn(g.out)} needs exactly {need} input(s)")
            if g.out in driver:
                raise MultipleDriverError(f"wire {self._wn(g.out)} has multiple drivers")
            driver[g.out] = "gate"
        for g in self.gates:
            for w in g.ins:
                if w not in driver:
                    raise UndrivenWireError(f"wire {self._wn(w)} has no driver")
        for w in self.outputs:
            if w not in driver:
                raise UndrivenWireError(f"output wire {self._wn(w)} has no driver")

    def _topo_sort(self) -> tuple[Gate, ...]:
        """Topological order of combinational gates; DFF outputs are sources."""
        return tuple(topo_order(self.gates, lambda g: CombinationalCycleError(
            f"combinational cycle through wire {self._wn(g.out)}")))

    # -- naming ---------------------------------------------------------------

    def _wn(self, w: int) -> str:
        return self.wire_names.get(w, f"w{w}")

    def _serial_names(self) -> tuple[dict[int, str], dict[str, int]]:
        if self._names is None:
            names = _stable_names(self)
            self._names = names, {n: w for w, n in names.items()}
        return self._names

    def wire_name(self, w: int) -> str:
        """The name serialize_netlist writes for w (w<id> for unnamed wires)."""
        return self._serial_names()[0].get(w) or self._wn(w)

    def wire(self, name: str) -> int:
        """The wire serialize_netlist writes as `name`; KeyError if there is none."""
        by_name = self._serial_names()[1]
        if name not in by_name:
            raise KeyError(f"no wire named {name!r} in {self.name}")
        return by_name[name]

    # -- basic facts ----------------------------------------------------------

    @property
    def state_width(self) -> int:
        return len(self._dffs)

    @property
    def has_state(self) -> bool:
        return bool(self._dffs)

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    # -- evaluation -----------------------------------------------------------

    def step_fn(self) -> Callable:
        """Compiled (inputs, state, mask) -> (outputs, next_state) evaluator.

        Values are ints; with mask=1 they are single bits, with a wider mask
        each int packs one bit position per test vector (bit-parallel runs).
        """
        if self._step is None:
            self._step = _compile_step(self.inputs, self._topo, self._dffs, self.outputs)
        return self._step

    def fault_step_fn(self) -> tuple[Callable, dict[int, int]]:
        """Compiled step(inp, state, a, b, mask=1) with per-wire fault masks.

        Returns the step and its slots (wire -> k). Every wire, inputs and
        DFF outputs included, is driven as `value & a[k] ^ b[k]`, so per lane
        (a[k], b[k]) = (-1, 0) leaves it alone, (-1, m) flips it and (0, m)
        forces it to m; eval_wires builds a and b from named overrides.
        Compiled on first use, like step_fn.
        """
        if self._fault_step is None:
            wires = (*self.inputs, *(g.out for g in self._dffs), *(g.out for g in self._topo))
            slots = {w: k for k, w in enumerate(wires)}
            step = _compile_step(self.inputs, self._topo, self._dffs, self.outputs, faults=slots)
            self._fault_step = (step, slots)
        return self._fault_step

    def evaluate(self, inputs: Sequence[int], state: Sequence[int] = ()) -> tuple[Bits, Bits]:
        """Cycle-accurate evaluation: outputs plus next DFF state."""
        if len(inputs) != len(self.inputs):
            raise WidthError(f"expected {len(self.inputs)} input bits, got {len(inputs)}")
        if len(state) != self.state_width:
            raise WidthError(f"expected {self.state_width} state bits, got {len(state)}")
        out, nxt = self.step_fn()(tuple(inputs), tuple(state), 1)
        return out, nxt


def _gate_expr(g: Gate, ref: Callable[[int], str] = "v{}".format) -> str:
    """g's value as a Python expression over the variables ref(w) of its inputs."""
    args = [ref(w) for w in g.ins]
    if g.kind == "AND":
        return " & ".join(args)
    if g.kind == "OR":
        return " | ".join(args)
    if g.kind == "XOR":
        return " ^ ".join(args)
    if g.kind == "NAND":
        return "mask ^ (" + " & ".join(args) + ")"
    if g.kind == "NOR":
        return "mask ^ (" + " | ".join(args) + ")"
    if g.kind == "NOT":
        return f"mask ^ {args[0]}"
    if g.kind == "BUF":
        return args[0]
    if g.kind == "CONST0":
        return "0"
    if g.kind == "CONST1":
        return "mask"
    raise AssertionError(g.kind)


def _compile_step(
    inputs: Sequence[int],
    order: Sequence,
    dffs: Sequence[Gate],
    outputs: Sequence[int],
    selects: Optional[dict[int, int]] = None,
    faults: Optional[dict[int, int]] = None,
) -> Callable:
    """Generate one straight-line step function over gates in `order`.

    Without `selects` it is step(inp, state, mask=1). With `selects` (switchbox
    id -> select index), `order` may also hold switchboxes (kind "SB2") and
    the function is step(inp, state, sel, mask=1): sel[i] is 0 to route that
    switchbox's inputs parallel and -1 (every lane) to cross them. With
    `faults` (wire -> slot k) it takes two more vectors, step(inp, state,
    [sel,] a, b, mask=1), and drives each such wire as `value & a[k] ^ b[k]`.
    Without `faults`, inp and state are unpacked whole, so a tuple of the
    wrong length raises ValueError, and a BUF's wire reads its input's
    variable, as in inline_step.
    """
    params = ["inp", "state", *(["sel"] if selects is not None else []),
              *(["a", "b"] if faults is not None else []), "mask=1"]
    lines = [f"def step({', '.join(params)}):"]
    names: dict[int, str] = {}  # BUF wire -> the variable of its input

    def ref(w: int) -> str:
        return names.get(w) or f"v{w}"

    def seq(wires) -> str:  # "vX, vY," to unpack into or to put in parentheses; "()" for none
        return "".join(f"{ref(w)}, " for w in wires)[:-1] or "()"

    def drive(w: int, expr: str) -> None:
        k = None if faults is None else faults.get(w)
        lines.append(f" v{w} = {expr}" if k is None else f" v{w} = ({expr}) & a[{k}] ^ b[{k}]")

    for vec, wires in (("inp", inputs), ("state", [g.out for g in dffs])):
        if faults is None:
            lines.append(f" {seq(wires)} = {vec}")
        else:
            for i, w in enumerate(wires):
                drive(w, f"{vec}[{i}]")
    for g in order:
        if g.kind == "SB2":
            (x, y), (z, w) = g.ins, g.outs
            lines.append(f" t = ({ref(x)} ^ {ref(y)}) & sel[{selects[g.id]}]")
            drive(z, f"{ref(x)} ^ t")
            drive(w, f"{ref(y)} ^ t")
        elif g.kind == "BUF" and faults is None:
            names[g.out] = ref(g.ins[0])
        else:
            drive(g.out, _gate_expr(g, ref))
    lines.append(f" return ({seq(outputs)}), ({seq(g.ins[0] for g in dffs)})")
    ns: dict = {}
    exec("\n".join(lines), ns)  # noqa: S102 - generated from validated gate list
    return ns["step"]


def inline_step(
    net: Netlist, inputs: Sequence[str], state: Sequence[str], outputs: Sequence[str], var: str
) -> tuple[list[str], list[str]]:
    """Statements that run one step of net inside a generated function.

    inputs[i] and state[i] name the variables that hold input i and DFF i's
    output, and mask must be a variable too. The statements leave output j in
    outputs[j] and every other wire w in f"{var}{w}"; with them come the
    names of the next-state values. A gate that drives exactly one output
    assigns that output's variable itself, and a BUF's wire reads its
    input's variable, so only an output that no gate can name gets a copy.
    """
    names = dict(zip(net.inputs, inputs))
    names.update(zip((g.out for g in net._dffs), state))
    for j, w in enumerate(net.outputs):
        if w not in names and net.outputs.count(w) == 1:
            names[w] = outputs[j]

    def ref(w: int) -> str:
        return names.get(w) or f"{var}{w}"

    lines = []
    for g in net._topo:
        if g.kind == "BUF" and g.out not in names:
            names[g.out] = ref(g.ins[0])
        else:
            lines.append(f"{ref(g.out)} = {_gate_expr(g, ref)}")
    lines += [f"{name} = {ref(w)}" for name, w in zip(outputs, net.outputs) if ref(w) != name]
    return lines, [ref(g.ins[0]) for g in net._dffs]


_FAULTS = {"flip": (-1, -1), "stuck0": (0, 0), "stuck1": (0, -1)}  # mode -> (a, b) in its lanes


def eval_wires(
    net: Netlist,
    inputs: Sequence[int],
    state: Sequence[int] = (),
    overrides: Optional[dict[int, Union[str, dict[str, int]]]] = None,
    mask: int = 1,
) -> tuple[Bits, Bits]:
    """Evaluation with per-wire fault overrides, on the compiled fault step.

    overrides maps wire id -> 'flip' | 'stuck0' | 'stuck1', applied in every
    lane of mask, or -> {mode: lanes}, applying each mode in its own lanes;
    a fault acts on the value right after the wire is driven (inputs and DFF
    outputs included). An unknown mode, a wire the netlist does not have, or
    lanes outside mask or shared by two modes of one wire raise ValueError
    before anything is evaluated.
    """
    if len(inputs) != len(net.inputs):
        raise WidthError(f"expected {len(net.inputs)} input bits, got {len(inputs)}")
    if len(state) != net.state_width:
        raise WidthError(f"expected {net.state_width} state bits, got {len(state)}")
    step, slots = net.fault_step_fn()
    a = [-1] * len(slots)
    b = [0] * len(slots)
    for w, modes in (overrides or {}).items():
        k = slots.get(w)
        if k is None:
            raise ValueError(f"override on wire {w}, which {net.name} does not have")
        seen = 0
        for mode, lanes in (modes.items() if isinstance(modes, dict) else ((modes, mask),)):
            if mode not in _FAULTS:
                raise ValueError(f"unknown override {mode!r} on wire {net.wire_name(w)}")
            if lanes & (seen | ~mask):
                raise ValueError(f"{mode} lanes {lanes:#x} on wire {net.wire_name(w)} "
                                 f"lie outside mask {mask:#x} or under another mode")
            seen |= lanes
            a[k] &= _FAULTS[mode][0] | ~lanes
            b[k] |= _FAULTS[mode][1] & lanes
    return step(inputs, state, a, b, mask)


# -- builder -------------------------------------------------------------------


class NetlistBuilder:
    """Incremental constructor used by synthesis passes."""

    def __init__(self, name: str):
        self.name = name
        self._next = 0
        self._inputs: list[int] = []
        self._outputs: list[int] = []
        self._gates: list[Gate] = []
        self._names: dict[int, str] = {}

    def _fresh(self, name: Optional[str]) -> int:
        w = self._next
        self._next += 1
        if name is not None:
            self._names[w] = name
        return w

    def input(self, name: Optional[str] = None) -> int:
        w = self._fresh(name)
        self._inputs.append(w)
        return w

    def gate(self, kind: str, *ins: int, name: Optional[str] = None) -> int:
        w = self._fresh(name)
        self._gates.append(Gate(w, kind, tuple(ins)))
        return w

    def inline(self, net: Netlist, input_wires: Sequence[int]) -> list[int]:
        """Copy another netlist's gates, mapping its inputs onto input_wires.

        Returns the wires carrying the copied netlist's outputs.
        """
        if len(input_wires) != len(net.inputs):
            raise WidthError("inline input count mismatch")
        remap = dict(zip(net.inputs, input_wires))
        for g in net.gates:
            remap[g.out] = self._fresh(None)
        for g in net.gates:
            self._gates.append(Gate(remap[g.out], g.kind, tuple(remap[w] for w in g.ins)))
        return [remap[w] for w in net.outputs]

    def xor_tree(self, wires: Sequence[int]) -> int:
        """Balanced XOR reduction; a single wire passes through unchanged."""
        level = list(wires)
        if not level:
            raise ValueError("empty xor tree")
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.gate("XOR", level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def set_outputs(self, wires: Sequence[int]) -> None:
        self._outputs = list(wires)

    def build(self) -> Netlist:
        return Netlist(self.name, self._inputs, self._outputs, self._gates, self._names)


# -- text format ---------------------------------------------------------------

_GATE_RE = re.compile(r"^\s*([A-Za-z_][\w.$]*)\s*=\s*([A-Z][A-Z0-9]*)\s*\((.*)\)\s*$")
_NAME_RE = re.compile(r"^[A-Za-z_][\w.$]*$")


def parse_text(text: str, name: str = "netlist", switchboxes: bool = False) -> tuple:
    """The one line parser of parse_netlist and switchbox.parse_obfuscated.

    It reads directives and gate lines and, with `switchboxes`, also
    `sbN = SB2(x, y -> z, w)` lines. Malformed lines, bad names, undriven
    wires and wires with several drivers raise errors that give the line.
    Returns (model, inputs, outputs, gates, switchboxes, names); wire ids
    go to inputs, then to gate and switchbox outputs in line order, and a
    switchbox is (N, (x, y), (z, w)).
    """
    model = name
    input_names: list[tuple[str, int]] = []
    output_names: list[tuple[str, int]] = []
    nodes: list[tuple[str, str, list[str], list[str], int]] = []  # name, kind, outs, ins, line
    expected = "'name = KIND(args)'" + (" or 'sbN = SB2(x, y -> z, w)'" if switchboxes else "")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            if parts[0] == ".model":
                if len(parts) != 2:
                    raise NetlistSyntaxError(".model expects one name", lineno)
                model = parts[1]
            elif parts[0] in (".inputs", ".outputs"):
                what = parts[0][1:-1]
                found = _checked_names(parts[1:], what, raw, lineno)
                (input_names if what == "input" else output_names).extend((n, lineno) for n in found)
            else:
                raise NetlistSyntaxError(f"unknown directive {parts[0]!r}", lineno)
            continue
        m = _GATE_RE.match(line)
        if not m:
            eq = raw.find("=")
            raise NetlistSyntaxError(f"expected {expected}", lineno, eq + 1 if eq >= 0 else 1)
        out, kind, argstr = m.group(1), m.group(2), m.group(3).strip()
        if kind == "SB2" and switchboxes:
            pins = [[a.strip() for a in side.split(",")] for side in argstr.split("->")]
            if not (out.startswith("sb") and out[2:].isdigit()) or [len(p) for p in pins] != [2, 2]:
                raise NetlistSyntaxError("expected 'sbN = SB2(x, y -> z, w)'", lineno)
            ins, outs = pins
        elif kind in GATE_KINDS:
            ins, outs = [a.strip() for a in argstr.split(",")] if argstr else [], [out]
        else:
            raise NetlistSyntaxError(f"unknown gate kind {kind!r}", lineno, raw.find(kind) + 1)
        nodes.append((out, kind, _checked_names(outs, "wire", raw, lineno),
                      _checked_names(ins, "wire", raw, lineno), lineno))

    ids: dict[str, int] = {}
    driven_on: dict[str, int] = {}

    def drive(n: str, lineno: int) -> int:
        if n in ids:
            raise MultipleDriverError(
                f"line {lineno}: wire {n!r} has multiple drivers (also line {driven_on[n]})")
        ids[n] = len(ids)
        driven_on[n] = lineno
        return ids[n]

    def resolve(n: str, lineno: int) -> int:
        if n not in ids:
            raise UndrivenWireError(f"line {lineno}: wire {n!r} has no driver")
        return ids[n]

    inputs = [drive(n, lineno) for n, lineno in input_names]
    for _, _, outs, _, lineno in nodes:
        for n in outs:
            drive(n, lineno)
    gates, sbs = [], []
    for out, kind, outs, args, lineno in nodes:
        ins = tuple(resolve(a, lineno) for a in args)
        if kind == "SB2":
            sbs.append((int(out[2:]), ins, tuple(ids[n] for n in outs)))
        else:
            gates.append(Gate(ids[out], kind, ins))
    outputs = [resolve(n, lineno) for n, lineno in output_names]
    return model, inputs, outputs, gates, sbs, {w: n for n, w in ids.items()}


def _checked_names(names: list[str], what: str, raw: str, lineno: int) -> list[str]:
    for n in names:
        if not _NAME_RE.match(n):
            raise NetlistSyntaxError(f"bad {what} name {n!r}", lineno, raw.find(n) + 1)
    return names


def parse_netlist(text: str, name: str = "netlist") -> Netlist:
    """Parse the line-oriented netlist format into a Netlist."""
    model, inputs, outputs, gates, _, names = parse_text(text, name)
    return Netlist(model, inputs, outputs, gates, names)


def _stable_names(net: Netlist) -> dict[int, str]:
    """Name of every wire of net as serialize_netlist writes it."""
    used = set(net.wire_names.values())
    names = {}
    for w in sorted({*net.inputs, *net.outputs, *(g.out for g in net.gates)}):
        cand = net.wire_names.get(w)
        if cand is None:
            cand = f"w{w}"
            while cand in used:
                cand += "_"
            used.add(cand)
        names[w] = cand
    return names


def serialize_netlist(net: Netlist) -> str:
    """Canonical text form: declarations, then gates in topological order."""
    names = _stable_names(net)
    lines = [f".model {net.name}"]
    if net.inputs:
        lines.append(".inputs " + " ".join(names[w] for w in net.inputs))
    if net.outputs:
        lines.append(".outputs " + " ".join(names[w] for w in net.outputs))
    for g in net._topo:
        lines.append(f"{names[g.out]} = {g.kind}(" + ", ".join(names[w] for w in g.ins) + ")")
    for g in sorted(net._dffs, key=lambda g: g.out):
        lines.append(f"{names[g.out]} = DFF({names[g.ins[0]]})")
    return "\n".join(lines) + "\n"


# -- logic cones ----------------------------------------------------------------


def output_cone(net: Netlist, output_index: int) -> Netlist:
    """Sub-netlist with exactly the transitive fan-in gates of one output.

    The full ordered primary-input list is retained so the cone evaluates on
    the same input vectors as the parent netlist.
    """
    if not 0 <= output_index < len(net.outputs):
        raise IndexError(f"output index {output_index} out of range")
    by_out = {g.out: g for g in net.gates}
    keep: set[int] = set()
    stack = [net.outputs[output_index]]
    while stack:
        w = stack.pop()
        g = by_out.get(w)
        if g is None or g.out in keep:
            continue
        keep.add(g.out)
        stack.extend(g.ins)
    gates = [g for g in net.gates if g.out in keep]
    return Netlist(
        f"{net.name}.cone{output_index}",
        net.inputs,
        (net.outputs[output_index],),
        gates,
        net.wire_names,
    )


# -- equivalence ----------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    mode: str  # 'exhaustive' or 'sampled'
    vectors_checked: int
    counterexample: Optional[tuple] = None  # Bits, or per-cycle tuple of Bits
    horizon: Optional[int] = None  # set for sequential (unrolled) compares


@lru_cache(maxsize=32)  # every exhaustive compare of an insertion asks for the same m
def input_patterns(m: int) -> tuple[tuple[int, ...], int]:
    """Truth-table bit patterns for m variables over all 2^m points."""
    size = 1 << m
    full = (1 << size) - 1
    pats = []
    for j in range(m):
        period = 1 << (j + 1)
        unit = ((1 << (1 << j)) - 1) << (1 << j)
        rep = full // ((1 << period) - 1)
        pats.append(unit * rep)
    return tuple(pats), full


# vector schedule: truth tables up to 16 input bits, sequential netlists unrolled 4 cycles
EXHAUSTIVE_INPUTS = 16
HORIZON = 4


def check_equivalence(
    n1: Netlist,
    n2: Netlist,
    sample_count: int = 10000,
    rng_seed: Optional[int] = None,
) -> EquivalenceVerdict:
    """Compare two netlists, exhaustively when the input space is small.

    Combinational netlists are compared over all input vectors when the
    input count is at most EXHAUSTIVE_INPUTS, otherwise over sample_count
    uniform random vectors (verdict tagged 'sampled'). Sequential netlists
    are unrolled for HORIZON cycles from the all-zero state; the exhaustive
    bound then applies to inputs * HORIZON.
    Non-equivalence verdicts always carry a replayable counterexample.
    """
    if len(n1.inputs) != len(n2.inputs) or len(n1.outputs) != len(n2.outputs):
        raise ArityMismatchError(
            f"{n1.name}: {len(n1.inputs)}->{len(n1.outputs)}, "
            f"{n2.name}: {len(n2.inputs)}->{len(n2.outputs)}"
        )
    return compare_steps(n1.step_fn(), n2.step_fn(), len(n1.inputs),
                         (n1.state_width, n2.state_width), sample_count, rng_seed)


def compare_steps(
    f1: Callable,
    f2: Callable,
    n_inputs: int,
    state_widths: tuple[int, int] = (0, 0),
    sample_count: int = 10000,
    rng_seed: Optional[int] = None,
) -> EquivalenceVerdict:
    """check_equivalence's vector schedule over two (inp, state, mask) steps.

    The steps take n_inputs input bits and DFF states of the given widths;
    either width being nonzero makes the compare sequential. Every
    counterexample is replayed through both steps at mask=1.
    """
    m = n_inputs
    sequential = any(state_widths)
    cycles = HORIZON if sequential else 1
    total_vars = m * cycles
    seq_horizon = cycles if sequential else None
    zero1, zero2 = (0,) * state_widths[0], (0,) * state_widths[1]

    def first_diff(cyc_inputs, mask) -> Optional[int]:
        """Lowest lane in which some output differs in some cycle, or None."""
        s1, s2 = zero1, zero2
        for c in range(cycles):
            o1, s1 = f1(cyc_inputs[c], s1, mask)
            o2, s2 = f2(cyc_inputs[c], s2, mask)
            for a, b in zip(o1, o2):
                if a != b:
                    d = a ^ b
                    return (d & -d).bit_length() - 1
        return None

    def refuted(mode, checked, cyc_inputs, lane):
        seq_cex = tuple(
            tuple((cyc_inputs[c][j] >> lane) & 1 for j in range(m)) for c in range(cycles)
        )
        _assert_replays(f1, f2, zero1, zero2, seq_cex)
        cex = seq_cex if sequential else seq_cex[0]
        return EquivalenceVerdict(False, mode, checked, cex, horizon=seq_horizon)

    if total_vars <= EXHAUSTIVE_INPUTS:
        # truth-table lanes: lane v holds bit c*m+j of v for input j in cycle c
        pats, full = input_patterns(total_vars)
        cyc_inputs = [tuple(pats[c * m:(c + 1) * m]) for c in range(cycles)]
        lane = first_diff(cyc_inputs, full)
        if lane is None:
            return EquivalenceVerdict(True, "exhaustive", 1 << total_vars, horizon=seq_horizon)
        return refuted("exhaustive", 1 << total_vars, cyc_inputs, lane)

    rng = random.Random(rng_seed)
    done = 0
    while done < sample_count:
        batch = min(512, sample_count - done)
        mask = (1 << batch) - 1
        cyc_inputs = [tuple(rng.getrandbits(batch) for _ in range(m)) for _ in range(cycles)]
        lane = first_diff(cyc_inputs, mask)
        if lane is not None:
            return refuted("sampled", done + lane + 1, cyc_inputs, lane)
        done += batch
    return EquivalenceVerdict(True, "sampled", sample_count, horizon=seq_horizon)


def _assert_replays(f1: Callable, f2: Callable, s1: Bits, s2: Bits, seq_cex: tuple) -> None:
    """Raise unless the per-cycle vectors make the two steps' outputs differ."""
    for x in seq_cex:
        o1, s1 = f1(x, s1, 1)
        o2, s2 = f2(x, s2, 1)
        if o1 != o2:
            return
    raise AssertionError("equivalence counterexample does not replay")


# -- simplification --------------------------------------------------------------


def simplify_netlist(net: Netlist) -> Netlist:
    """Constant folding, buffer forwarding, structural sharing, dead removal.

    DFFs are kept (their cycle-zero output differs from a constant), and the
    returned netlist defines its own DFF state ordering.
    """
    repl: dict[int, int] = {}  # wire -> canonical wire
    const: dict[int, int] = {}  # wire -> 0/1
    seen: dict[tuple, int] = {}
    gates: list[Gate] = []
    next_id = max([*net.inputs, *(g.out for g in net.gates), -1]) + 1

    def fresh() -> int:
        nonlocal next_id
        w = next_id
        next_id += 1
        return w

    def canon(w: int) -> int:
        while w in repl:
            w = repl[w]
        return w

    for g in net._topo + net._dffs:
        ins = tuple(canon(w) for w in g.ins)
        kind = g.kind
        if kind == "DFF":
            key = ("DFF", ins)
            prev = seen.get(key)
            if prev is not None:
                repl[g.out] = prev
                continue
            seen[key] = g.out
            gates.append(Gate(g.out, "DFF", ins))
            continue
        vals = [const.get(w) for w in ins]
        if kind in ("CONST0", "CONST1"):
            const[g.out] = 1 if kind == "CONST1" else 0
            continue
        if kind == "BUF":
            if vals[0] is not None:
                const[g.out] = vals[0]
            else:
                repl[g.out] = ins[0]
            continue
        if kind == "NOT":
            if vals[0] is not None:
                const[g.out] = 1 - vals[0]
                continue
        if kind in ("AND", "NAND", "OR", "NOR", "XOR"):
            live = []
            acc = 0 if kind in ("OR", "NOR", "XOR") else 1
            for w, v in zip(ins, vals):
                if v is None:
                    live.append(w)
                elif kind in ("AND", "NAND"):
                    acc &= v
                elif kind in ("OR", "NOR"):
                    acc |= v
                else:
                    acc ^= v
            if kind in ("AND", "NAND") and acc == 0:
                const[g.out] = 1 if kind == "NAND" else 0
                continue
            if kind in ("OR", "NOR") and acc == 1:
                const[g.out] = 0 if kind == "NOR" else 1
                continue
            if not live:
                v = acc
                if kind in ("NAND", "NOR"):
                    v = 1 - v
                const[g.out] = v
                continue
            invert = kind in ("NAND", "NOR") or (kind == "XOR" and acc == 1)
            base = {"NAND": "AND", "NOR": "OR"}.get(kind, kind)
            if len(live) == 1:
                kind2, ins2 = ("NOT", (live[0],)) if invert else ("BUF", (live[0],))
            else:
                ordered = tuple(sorted(live))
                kind2, ins2 = base, ordered
                if invert:
                    kind2 = {"AND": "NAND", "OR": "NOR"}.get(base, base)
                    if base == "XOR":
                        # fold the inversion into a NOT after the shared XOR
                        key = ("XOR", ordered)
                        prev = seen.get(key)
                        if prev is None:
                            prev = fresh()
                            seen[key] = prev
                            gates.append(Gate(prev, "XOR", ordered))
                        kind2, ins2 = "NOT", (prev,)
            if kind2 == "BUF":
                repl[g.out] = ins2[0]
                continue
            key = (kind2, ins2)
            prev = seen.get(key)
            if prev is not None:
                repl[g.out] = prev
                continue
            seen[key] = g.out
            gates.append(Gate(g.out, kind2, ins2))
            continue
        # NOT of a live wire
        key = (kind, ins)
        prev = seen.get(key)
        if prev is not None:
            repl[g.out] = prev
            continue
        seen[key] = g.out
        gates.append(Gate(g.out, kind, ins))

    # materialize constants that ended up driving outputs or live gate inputs
    const_gate: dict[int, int] = {}
    extra: list[Gate] = []

    def resolve(w: int) -> int:
        w = canon(w)
        if w in const:
            v = const[w]
            if v not in const_gate:
                const_gate[v] = fresh()
                extra.append(Gate(const_gate[v], "CONST1" if v else "CONST0", ()))
            return const_gate[v]
        return w

    fixed_gates = []
    for g in gates:
        fixed_gates.append(Gate(g.out, g.kind, tuple(resolve(w) for w in g.ins)))
    outputs = [resolve(w) for w in net.outputs]
    fixed_gates.extend(extra)

    # dead-code removal: keep fan-in of outputs, following DFF data inputs
    by_out = {g.out: g for g in fixed_gates}
    keep: set[int] = set()
    stack = list(outputs)
    while stack:
        w = stack.pop()
        g = by_out.get(w)
        if g is None or g.out in keep:
            continue
        keep.add(g.out)
        stack.extend(g.ins)
    live_gates = [g for g in fixed_gates if g.out in keep]
    return Netlist(net.name, net.inputs, outputs, live_gates, net.wire_names)


# -- random circuits (experiments and tests) -------------------------------------


def random_netlist(
    n_inputs: int,
    n_gates: int,
    n_outputs: int,
    rng_seed: Optional[int] = None,
    name: str = "rand",
) -> Netlist:
    """Random combinational DAG over the two-input gate library."""
    rng = random.Random(rng_seed)
    b = NetlistBuilder(name)
    wires = [b.input(f"i{i}") for i in range(n_inputs)]
    kinds = ["AND", "OR", "XOR", "NAND", "NOR", "AND", "OR", "XOR", "NOT"]
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind == "NOT":
            wires.append(b.gate("NOT", rng.choice(wires)))
        else:
            a = rng.choice(wires)
            c = rng.choice(wires)
            tries = 0
            while c == a and tries < 4:
                c = rng.choice(wires)
                tries += 1
            wires.append(b.gate(kind, a, c))
    pool = wires[n_inputs:] if n_gates >= n_outputs else wires
    outs = rng.sample(pool, min(n_outputs, len(pool)))
    b.set_outputs(outs)
    return b.build()
