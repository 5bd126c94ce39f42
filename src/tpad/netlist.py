"""Gate-level netlist IR: text format, simulation, equivalence, generated code.

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

import itertools
import linecache
import random
import re
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

Bits = tuple[int, ...]

KERNEL_CACHE_SIZE = 128  # generated kernels kept per generator: a chip needs a handful

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


def output_cone(order: Sequence, roots: Iterable[int]) -> list:
    """The nodes of a topological order whose outputs reach some root wire."""
    live = set(roots)
    for node in reversed(order):
        if live.intersection(node.outs):
            live.update(node.ins)
    return [node for node in order if live.intersection(node.outs)]


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

    @cached_property
    def _serial_names(self) -> tuple[dict[int, str], dict[str, int]]:
        """wire -> name and name -> wire, as serialize_netlist writes them."""
        names = stable_names((*self.inputs, *self.outputs, *(g.out for g in self.gates)),
                             self.wire_names)
        return names, {n: w for w, n in names.items()}

    def wire_name(self, w: int) -> str:
        """The name serialize_netlist writes for w (w<id> for unnamed wires)."""
        return self._serial_names[0].get(w) or self._wn(w)

    def wire(self, name: str) -> int:
        """The wire serialize_netlist writes as `name`; KeyError if there is none."""
        by_name = self._serial_names[1]
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

    @cached_property
    def wires(self) -> frozenset[int]:
        """Every wire: the inputs and each gate's output."""
        return frozenset((*self.inputs, *(g.out for g in self.gates)))

    # -- evaluation -----------------------------------------------------------

    def step_fn(self) -> Callable:
        """Compiled (inputs, state, mask) -> (outputs, next_state) evaluator.

        Values are ints; with mask=1 they are single bits, with a wider mask
        each int packs one bit position per test vector (bit-parallel runs).
        """
        if self._step is None:
            self._step = _compile_step(self.inputs, self._topo, self._dffs, self.outputs)
        return self._step

    @lru_cache(maxsize=KERNEL_CACHE_SIZE)  # noqa: B019 - keyed by the netlist, as by its wires
    def fault_step_fn(self, wires: frozenset) -> tuple[Callable, dict[int, int]]:
        """Compiled step(inp, state, a, b, mask=1) with fault slots on `wires`.

        Returns the step and its slots (wire -> k), in the order inputs, DFF
        outputs, gates. Each slotted wire is driven as `value & a[k] ^ b[k]`,
        so per lane (a[k], b[k]) = (-1, 0) leaves it alone, (-1, m) flips it
        and (0, m) forces it to m; fault_fills and fault_vectors set a and b.
        Compiled on first use; a process keeps its latest KERNEL_CACHE_SIZE.
        """
        order = (*self.inputs, *(g.out for g in self._dffs), *(g.out for g in self._topo))
        slots = {w: k for k, w in enumerate(w for w in order if w in wires)}
        return _compile_step(self.inputs, self._topo, self._dffs, self.outputs, faults=slots), slots

    def check_overrides(self, overrides: dict[int, str]) -> None:
        """Refuse (ValueError) an override on a wire this netlist does not have
        or of a mode other than 'flip', 'stuck0' and 'stuck1'."""
        for w, mode in overrides.items():
            if w not in self.wires:
                raise ValueError(f"override on wire {w}, which {self.name} does not have")
            if mode not in _FAULTS:
                raise ValueError(f"unknown override {mode!r} on wire {self.wire_name(w)}")


# kind -> (head, operand separator, tail) of a gate's Python expression
_EXPR = {"AND": ("", " & ", ""), "OR": ("", " | ", ""), "XOR": ("", " ^ ", ""),
         "NAND": ("mask ^ (", " & ", ")"), "NOR": ("mask ^ (", " | ", ")"), "BUF": ("", "", ""),
         "NOT": ("mask ^ ", "", ""), "CONST0": ("0", "", ""), "CONST1": ("mask", "", "")}


def _gate_expr(kind: str, args: Sequence[str]) -> str:
    """The Python expression of a `kind` gate over the operand expressions args."""
    head, sep, tail = _EXPR[kind]
    return head + sep.join(args) + tail


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
    [sel,] a, b, mask=1), and drives each such wire as `value & a[k] ^ b[k]`
    (an input or DFF output is driven again from its unpacked value). inp
    and state are unpacked whole, so a tuple of the wrong length raises
    ValueError, and a BUF's wire reads its input's variable, as in inline_step.
    """
    params = ["inp", "state", *(["sel"] if selects is not None else []),
              *(["a", "b"] if faults is not None else []), "mask=1"]
    lines = [f"def step({', '.join(params)}):"]

    def seq(names: list[str]) -> str:  # "x, y," to unpack into or to put in parentheses
        return ", ".join(names) + "," if names else "()"

    entry = (("inp", inputs), ("state", [g.out for g in dffs]))
    lines += [f" {seq([f'v{w}' for w in wires])} = {vec}" for vec, wires in entry]
    given = {w: f"v{w}" for _, wires in entry for w in wires}
    body, outs, nxt = inline_step(order, dffs, given, [(w, None) for w in outputs], "v",
                                  selects=selects, faults=faults)
    lines += [" " + "\n ".join(body)] if body else []  # one indented block
    lines.append(f" return ({seq(outs)}), ({seq(nxt)})")
    kind = "fault step" if faults is not None else "union step" if selects is not None else "step"
    return define(lines, "step", {}, f"{kind} {len(order)} gates")


_kernel_ids = itertools.count()


def define(lines: Sequence[str], name: str, namespace: dict, label: str) -> Callable:
    """The function `name` that the generated source `lines` defines.

    The source runs once with `namespace` as its globals, under the file name
    `<tpad {label} #n>` (n unique in the process). linecache holds it while
    the function lives, so tracebacks show its lines and profiles name it.
    """
    source = "\n".join(lines)
    filename = f"<tpad {label} #{next(_kernel_ids)}>"
    defined: dict = {}
    exec(compile(source, filename, "exec"), namespace, defined)  # noqa: S102 - the one exec site
    fn = defined[name]
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    weakref.finalize(fn, linecache.cache.pop, filename, None)
    return fn


# parenthesis levels an inlined temporary may reach; Python's parser refuses
# about 200, so a long chain of single-use gates is cut into statements
INLINE_DEPTH = 32


def inline_step(
    order: Sequence, dffs: Sequence[Gate], inputs: dict[int, str],
    outputs: Sequence[tuple[int, Optional[str]]], var: str,
    values: Optional[dict[tuple, str]] = None, inline: bool = False,
    selects: Optional[dict[int, int]] = None, faults: Optional[dict[int, int]] = None,
) -> tuple[list[str], list[str], list[str]]:
    """Statements that run one step over the nodes in `order` inside a generated function.

    inputs maps each wire set on entry (an input or a DFF output) to the
    expression that holds it; outputs pairs each output wire with the
    variable to leave it in, or None for its own; every other wire w goes in
    f"{var}{w}", and mask must be a variable. Returns the statements, each
    output's variable and the next-state values. A gate that drives exactly
    one output assigns that output's variable, and a BUF's wire (an entry
    wire too) reads its operand, so only an output no gate can name gets a
    copy. A switchbox (kind "SB2") sets t = (x ^ y) & sel[selects[id]] and
    drives x ^ t and y ^ t; a wire with a fault slot k drives (value) & a[k] ^ b[k].

    `values` maps a gate's canonical expression, its kind and sorted operand
    variables, to the variable that holds it (value numbering): a gate found
    there reads that variable instead of being computed again (an output's
    own variable copies it), and each gate computed here is added. With
    `inline`, a temporary that exactly one statement reads goes into that
    statement in parentheses, up to INLINE_DEPTH levels deep, and leaves
    `values`. Neither goes with switchboxes, which share t, or with faults.
    """
    assert not (selects or faults) or (values is None and not inline)
    names: dict[int, str] = {}  # wire -> the variable assigned its value, else f"{var}{w}"
    lines: list[str] = []
    rows: list[tuple] = []  # with inline: (variable, kind, operands, fault slot) until written
    held: dict[str, tuple[str, int]] = {}  # temporary -> (its expression, its depth)

    def emit(t: str, kind: str, args: list[str], k: Optional[int], depth: int = -1) -> None:
        """Write t = kind over args through fault slot k, or with a depth hold it to inline."""
        expr = _gate_expr(kind, args)
        if k is not None:
            expr = f"({expr}) & a[{k}] ^ b[{k}]"
        if depth < 0:
            lines.append(f"{t} = {expr}")
        else:
            held[t] = expr, depth

    put = (lambda *row: rows.append(row)) if inline else emit
    for w, expr in inputs.items():  # a BUF of its expression, as below
        if faults and w in faults:
            put(f"{var}{w}", "BUF", [expr], faults[w])
        else:
            names[w] = expr
    names.update({w: name for w, name in outputs if name is not None and w not in names
                  and sum(v == w for v, _ in outputs) == 1})
    for g in order:
        kind = g.kind
        if kind == "SB2":
            (x, y), (z, w) = [names.get(i) or f"{var}{i}" for i in g.ins], g.outs
            lines.append(f"t = ({x} ^ {y}) & sel[{selects[g.id]}]")  # no inlining with selects
            put(names.get(z) or f"{var}{z}", "XOR", [x, "t"], faults.get(z) if faults else None)
            put(names.get(w) or f"{var}{w}", "XOR", [y, "t"], faults.get(w) if faults else None)
            continue
        out = g.out
        k = faults.get(out) if faults else None
        if kind == "BUF" and k is None and out not in names:
            names[out] = names.get(g.ins[0]) or f"{var}{g.ins[0]}"
            continue
        args = [names.get(w) or f"{var}{w}" for w in g.ins]
        t = names.get(out) or f"{var}{out}"
        if values is not None and kind != "BUF":
            have = values.setdefault((kind, *sorted(args)), t)
            if have is not t:  # an output's own variable copies it at the end
                names[out] = have
                continue
        put(t, kind, args, k)
    for w, name in outputs:
        if name is not None and names.get(w) != name:
            put(name, "BUF", [names.get(w) or f"{var}{w}"], None)
    outs = [name or names.get(w) or f"{var}{w}" for w, name in outputs]
    nxt = [names.get(g.ins[0]) or f"{var}{g.ins[0]}" for g in dffs]
    if rows:  # how many rows read each variable; one read after the statements never moves
        reads = {**Counter(a for row in rows for a in row[2]), **dict.fromkeys(outs + nxt, 0)}
        for t, kind, args, k in rows:  # a held temporary goes into its reader in parentheses
            got = [held.pop(a, (a, -1)) for a in args]  # (but not into a BUF's)
            parts = [e if d < 0 or kind == "BUF" else f"({e})" for e, d in got]
            depth = max([0, *(d + (kind != "BUF") for _, d in got)]) + (kind in ("NAND", "NOR"))
            if reads.get(t) != 1 or depth >= INLINE_DEPTH:
                depth = -1
            elif values:
                values.pop((kind, *sorted(args)), None)
            emit(t, kind, parts, k, depth)
    return lines, outs, nxt


_FAULTS = {"flip": (-1, -1), "stuck0": (0, 0), "stuck1": (0, -1)}  # mode -> (a, b) in its lanes


def fault_fills(fills: dict, overrides: dict[int, str], lanes: int) -> dict[int, tuple[int, int, int]]:
    """fills ({wire: (lanes, a, b)}, for any step slotted on those wires) with each
    override's mode added in `lanes` of its wire, lanes that must be new to that wire."""
    for w, mode in overrides.items():
        fa, fb = _FAULTS[mode]
        filled, a, b = fills.get(w, (0, 0, 0))
        fills[w] = (filled | lanes, a | fa & lanes, b | fb & lanes)
    return fills


def fault_vectors(vectors: Optional[tuple], slots: dict[int, int],
                  fills: dict[int, tuple[int, int, int]], on: int = -1) -> tuple[list[int], list[int]]:
    """Fault vectors (a, b) for a step slotted as `slots`: `vectors` (updated in place),
    or all clear if None, with each fill's modes set at its wire's slot in those of its
    lanes that lie in `on`, so the last mode set on a wire wins."""
    a, b = vectors or ([-1] * len(slots), [0] * len(slots))
    for w, (lanes, fa, fb) in fills.items():
        k, lanes = slots[w], lanes & on
        a[k] = a[k] & ~lanes | fa & lanes
        b[k] = b[k] & ~lanes | fb & lanes
    return a, b


def eval_wires(
    net: Netlist,
    inputs: Sequence[int],
    state: Sequence[int] = (),
    overrides: Optional[dict[int, str]] = None,
    mask: int = 1,
) -> tuple[Bits, Bits]:
    """Outputs and next DFF state, with per-wire fault overrides in every lane of mask.

    overrides maps wire id -> 'flip' | 'stuck0' | 'stuck1'; a fault acts on
    the value right after the wire is driven (inputs and DFF outputs
    included). It runs the fault step slotted on every wire. A wrong input
    or state width raises WidthError, and an override check_overrides
    refuses raises ValueError, before anything is evaluated.
    """
    if len(inputs) != len(net.inputs):
        raise WidthError(f"expected {len(net.inputs)} input bits, got {len(inputs)}")
    if len(state) != net.state_width:
        raise WidthError(f"expected {net.state_width} state bits, got {len(state)}")
    overrides = overrides or {}
    net.check_overrides(overrides)
    step, slots = net.fault_step_fn(net.wires)
    a, b = fault_vectors(None, slots, fault_fills({}, overrides, mask))
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


def text_lines(text: str) -> list[tuple[int, str]]:
    """(line number, text before any `#`, stripped) of each line with more than a comment."""
    return [(n, line) for n, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]


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


def stable_names(wires: Iterable[int], given: dict[int, str]) -> dict[int, str]:
    """The name a serializer writes for each wire, lowest wire first.

    A wire keeps its given name (w<id> if it has none) unless a lower wire
    already took it; then "_" is appended until the name is free.
    """
    names: dict[int, str] = {}
    used: set[str] = set()
    for w in sorted(set(wires)):
        name = given.get(w, f"w{w}")
        while name in used:
            name += "_"
        names[w] = name
        used.add(name)
    return names


def format_text(model: str, inputs: Sequence[int], outputs: Sequence[int],
                gates: Iterable[Gate], names: dict[int, str], tail: Sequence[str] = ()) -> str:
    """The directive lines, one line per gate in the given order, then the tail lines."""
    lines = [f".model {model}"]
    if inputs:
        lines.append(".inputs " + " ".join(names[w] for w in inputs))
    if outputs:
        lines.append(".outputs " + " ".join(names[w] for w in outputs))
    lines += (f"{names[g.out]} = {g.kind}(" + ", ".join(names[w] for w in g.ins) + ")" for g in gates)
    return "\n".join([*lines, *tail]) + "\n"


def serialize_netlist(net: Netlist) -> str:
    """Canonical text form: declarations, then gates in topological order."""
    dffs = sorted(net._dffs, key=lambda g: g.out)
    return format_text(net.name, net.inputs, net.outputs, (*net._topo, *dffs), net._serial_names[0])


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
BATCH = 512  # lanes of one batch of sampled vectors
LANE_CAP = 1 << 16  # lanes of one packed compare call; the widest truth table is one block


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
    step2 = n2.step_fn()
    return compare_steps(n1.step_fn(), lambda x, s, mask, _: step2(x, s, mask), len(n1.inputs),
                         (n1.state_width, n2.state_width), sample_count, (rng_seed,))[0]


def compare_steps(
    f1: Callable,
    f2: Callable,
    n_inputs: int,
    state_widths: tuple[int, int] = (0, 0),
    sample_count: int = 10000,
    rng_seeds: Sequence[Optional[int]] = (None,),
) -> list[EquivalenceVerdict]:
    """check_equivalence's vector schedule over two steps, one lane block per seed.

    f1(inp, state, mask) is one step for every block; f2(inp, state, mask,
    blocks) gets a {block: lanes} mapping of only the blocks with lanes in
    the call, so that block i can compare f1 with its own variant of f2.
    The steps take n_inputs input bits and DFF states of the given widths;
    either width being nonzero makes the compare sequential.

    Block i gets the verdict a compare of it alone gives: a truth table, or
    batches of BATCH vectors drawn from random.Random(rng_seeds[i]) in turn,
    and the first batch that differs in some cycle, then its first such
    cycle, then that cycle's first differing output, then that output's
    lowest lane. Every block's first batch runs in one call, side by side;
    a sampled block whose first batch shows no difference draws its later
    batches with the same calls and runs them side by side in the next call.
    A call that would pass LANE_CAP lanes is split. Every counterexample is
    replayed through both steps at mask=1, with blocks {i: 1}.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    m, n_blocks = n_inputs, len(rng_seeds)
    cycles = HORIZON if any(state_widths) else 1
    horizon, rows = (cycles if cycles > 1 else None), m * cycles
    zero1, zero2 = (0,) * state_widths[0], (0,) * state_widths[1]
    exhaustive = rows <= EXHAUSTIVE_INPUTS
    mode = "exhaustive" if exhaustive else "sampled"
    lanes = 1 << rows if exhaustive else min(BATCH, sample_count)
    slot = -(-lanes // 8)  # bytes a unit's input takes in a call
    verdicts: list[Optional[EquivalenceVerdict]] = [None] * n_blocks
    rngs: dict[int, random.Random] = {}  # a sampled block's, from its first draw until refuted

    def run(units: list[tuple]) -> None:
        """One call over units (block, vectors checked before, lanes, inputs): unit k holds
        lanes 8*slot*k on, and its inputs are `rows` little-endian slots, input j of cycle c
        at c*m + j. Sets the verdict of each block with a differing unit."""
        table = np.frombuffer(b"".join(unit[3] for unit in units), np.uint8).reshape(
            len(units), rows, slot)
        units[:] = [unit[:3] for unit in units]  # frees the drawn bytes; table keeps their join
        flat, size = memoryview(table.transpose(1, 0, 2).tobytes()), len(units) * slot
        x = [int.from_bytes(flat[r * size:(r + 1) * size], "little") for r in range(rows)]
        del flat  # the row ints hold the inputs through the cycles
        x = [tuple(x[c * m:(c + 1) * m]) for c in range(cycles)]
        pending = [(i, k, ((1 << n) - 1) << 8 * slot * k) for k, (i, _, n) in enumerate(units)]
        first: dict[int, tuple] = {}  # block -> (its lowest differing unit, lane in it)
        xc, s1, s2 = x[0], zero1, zero2
        for c in range(cycles):
            blocks: dict[int, int] = {}
            for i, _, ones in pending:
                blocks[i] = blocks.get(i, 0) | ones
            live = sum(blocks.values())
            if c:  # later cycles run only the pending units' lanes, the rest zeroed
                xc, s1, s2 = (tuple(v & live for v in vs) for vs in (x[c], s1, s2))
            o1, s1 = f1(xc, s1, live)
            o2, s2 = f2(xc, s2, live, blocks)
            for a, b in zip(o1, o2):
                d = a ^ b
                if d:
                    for i, k, ones in pending:
                        bits = d & ones
                        if bits and (i not in first or k < first[i][0]):
                            first[i] = k, (bits & -bits).bit_length() - 1 - 8 * slot * k
                    pending = [span for span in pending if span[0] not in first
                               or span[1] < first[span[0]][0]]
            if not pending:
                break
        for i in sorted(first):
            k, lane = first[i]
            bits = (table[k, :, lane >> 3] >> (lane & 7) & 1).tolist()
            seq_cex = tuple(tuple(bits[c * m:(c + 1) * m]) for c in range(cycles))
            _assert_replays(f1, lambda inp, s, mask: f2(inp, s, mask, {i: 1}), zero1, zero2, seq_cex)
            checked = 1 << rows if exhaustive else units[k][1] + lane + 1
            verdicts[i] = EquivalenceVerdict(False, mode, checked, seq_cex if horizon else seq_cex[0],
                                             horizon=horizon)
            rngs.pop(i, None)

    def packed(groups: Iterable[list[tuple]]) -> None:
        """Run each block's group of units, as many groups to a call as LANE_CAP lanes hold."""
        call = []
        for group in groups:
            if call and 8 * slot * (len(call) + len(group)) > LANE_CAP:
                run(call)
                call = []
            call += group
        if call:
            run(call)

    if exhaustive:
        truth = b"".join(p.to_bytes(slot, "little") for p in input_patterns(rows)[0])
        packed([[(i, 0, lanes, truth)] for i in range(n_blocks)])
        checked = lanes
    else:
        done = [0] * n_blocks

        def draw(i: int, limit: int) -> list[tuple]:
            """Block i's next batches, up to limit lanes but at least one batch. A batch of
            a whole slot whose lanes are a multiple of 32 is one getrandbits call: it
            draws the 32-bit words that its `rows` calls would, lowest first."""
            group, rng = [], rngs.get(i) or rngs.setdefault(i, random.Random(rng_seeds[i]))
            while done[i] < sample_count and (not group or 8 * slot * (len(group) + 1) <= limit):
                n = min(BATCH, sample_count - done[i])
                raw = (rng.getrandbits(n * rows).to_bytes(rows * slot, "little")
                       if n == 8 * slot and n % 32 == 0 else
                       b"".join(rng.getrandbits(n).to_bytes(slot, "little") for _ in range(rows)))
                group.append((i, done[i], n, raw))
                done[i] += n
            return group

        limit = lanes  # the first batches, then the rest LANE_CAP lanes at a time
        while todo := [i for i, v in enumerate(verdicts) if v is None and done[i] < sample_count]:
            packed(draw(i, limit) for i in todo)  # drawn as the calls fill
            limit = LANE_CAP
        checked = sample_count
    return [v or EquivalenceVerdict(True, mode, checked, horizon=horizon) for v in verdicts]


def _assert_replays(f1: Callable, f2: Callable, s1: Bits, s2: Bits, seq_cex: tuple) -> None:
    """Raise unless the per-cycle vectors make the two steps' outputs differ."""
    for x in seq_cex:
        o1, s1 = f1(x, s1, 1)
        o2, s2 = f2(x, s2, 1)
        if o1 != o2:
            return
    raise AssertionError("equivalence counterexample does not replay")


# -- simplification --------------------------------------------------------------


# kind -> (base kind, absorbing constant, inverted). An odd number of constant-1
# inputs inverts an XOR; CONST0 and CONST1 are XORs of nothing and BUF and NOT
# one-input ANDs and NANDs, so one fold handles every kind but DFF.
_FOLD = {
    "AND": ("AND", 0, False), "NAND": ("AND", 0, True),
    "OR": ("OR", 1, False), "NOR": ("OR", 1, True), "XOR": ("XOR", None, False),
    "BUF": ("AND", 0, False), "NOT": ("AND", 0, True),
    "CONST0": ("XOR", None, False), "CONST1": ("XOR", None, True),
}


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

    def canon(w: int) -> int:
        while w in repl:
            w = repl[w]
        return w

    def share(out: Optional[int], kind: str, ins: tuple) -> int:
        """The wire carrying kind(ins): out, recorded as a new gate (a fresh wire
        when out is None), or an earlier identical gate's wire, forwarding out."""
        nonlocal next_id
        prev = seen.get((kind, ins))
        if prev is None:
            if out is None:
                out, next_id = next_id, next_id + 1
            prev = seen[kind, ins] = out
            gates.append(Gate(out, kind, ins))
        elif out is not None:
            repl[out] = prev
        return prev

    for g in net._topo + net._dffs:
        ins = tuple(canon(w) for w in g.ins)
        if g.kind == "DFF":
            share(g.out, "DFF", ins)
            continue
        base, absorb, inv = _FOLD[g.kind]
        consts = [const[w] for w in ins if w in const]
        if absorb in consts:
            const[g.out] = absorb ^ inv
            continue
        if absorb is None:
            inv ^= sum(consts) & 1
        live = sorted(w for w in ins if w not in const)
        if not live:
            const[g.out] = int(inv) if absorb is None else 1 - absorb ^ inv
        elif len(live) == 1 and not inv:
            repl[g.out] = live[0]
        elif len(live) == 1:
            share(g.out, "NOT", (live[0],))
        elif base == "XOR" and inv:  # fold the inversion into a NOT after the shared XOR
            share(g.out, "NOT", (share(None, "XOR", tuple(live)),))
        else:  # an inverted AND or OR is a NAND or NOR
            share(g.out, "N" + base if inv else base, tuple(live))

    def resolve(w: int) -> int:  # a constant's wire is one shared CONST0/CONST1 gate
        w = canon(w)
        return share(None, f"CONST{const[w]}", ()) if w in const else w

    # materialize constants that ended up driving outputs or live gate inputs
    n = len(gates)
    fixed_gates = [Gate(g.out, g.kind, tuple(map(resolve, g.ins))) for g in gates[:n]]
    outputs = [resolve(w) for w in net.outputs]
    fixed_gates += gates[n:]

    # dead-code removal: keep fan-in of outputs, following DFF data inputs
    by_out = {g.out: g for g in fixed_gates}
    keep: set[int] = set()
    stack = list(outputs)
    while stack:
        g = by_out.get(stack.pop())
        if g is not None and g.out not in keep:
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
