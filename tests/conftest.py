from dataclasses import dataclass
from typing import Sequence

import pytest

from tpad.lfsr import LfsrSpec
from tpad.netlist import Bits, Gate, Netlist, WidthError, parse_netlist

FULL_ADDER = """\
.model adder
.inputs a b cin
.outputs s cout
x1 = XOR(a, b)
s = XOR(x1, cin)
g1 = AND(a, b)
g2 = AND(x1, cin)
cout = OR(g1, g2)
"""

# two-function ALU: op=0 adds (2-bit sum, no carry out), op=1 bitwise AND
ALU2 = """\
.model alu2
.inputs a0 a1 b0 b1 op
.outputs r0 r1
s0 = XOR(a0, b0)
c0 = AND(a0, b0)
x1 = XOR(a1, b1)
s1 = XOR(x1, c0)
n0 = AND(a0, b0)
n1 = AND(a1, b1)
no = NOT(op)
m00 = AND(no, s0)
m01 = AND(op, n0)
r0 = OR(m00, m01)
m10 = AND(no, s1)
m11 = AND(op, n1)
r1 = OR(m10, m11)
"""


@pytest.fixture(scope="session")
def full_adder():
    return parse_netlist(FULL_ADDER)


@pytest.fixture(scope="session")
def alu2():
    return parse_netlist(ALU2)


def lfsr16(r: int) -> LfsrSpec:
    """Degree-16 primitive polynomial with an r-bit tap subset."""
    return LfsrSpec(16, 0x1002D, 0xACE1, tuple(range(0, 2 * r, 2))[:r])


def with_dffs(net, rng, k):
    """net with k DFFs: each feeds one random gate pin and reads a random wire."""
    gates = list(net.gates)
    wires = [*net.inputs, *(g.out for g in gates)]
    q = max(wires) + 1
    for j in range(k):
        i = rng.randrange(len(gates))
        g = gates[i]
        p = rng.randrange(len(g.ins))
        gates[i] = Gate(g.out, g.kind, g.ins[:p] + (q + j,) + g.ins[p + 1:])
        gates.append(Gate(q + j, "DFF", (rng.choice(wires),)))
    return Netlist(net.name, net.inputs, net.outputs, gates, net.wire_names)


# -- error-signal oracles: the reference for the detection netlist's combiner ----


@dataclass(frozen=True)
class ErrorSignal:
    bits: Bits
    cycle: int = 0


def checker_output(taps: Sequence[int], predicted: Sequence[int], actual: Sequence[int],
                   cycle: int = 0) -> ErrorSignal:
    """Per-bit taps XOR predicted XOR actual; equals taps iff they agree."""
    if not len(taps) == len(predicted) == len(actual):
        raise WidthError("taps, predicted and actual must share a width")
    return ErrorSignal(tuple(t ^ p ^ a for t, p, a in zip(taps, predicted, actual)), cycle)


def combine_error_signals(taps: Sequence[int], signals: Sequence[ErrorSignal]) -> ErrorSignal:
    """Bitwise OR where the tap bit is 0, AND where it is 1."""
    if not signals:
        raise ValueError("need at least one checker signal")
    for s in signals:
        if len(s.bits) != len(taps):
            raise WidthError("checker signal width mismatch")
    out = []
    for i, t in enumerate(taps):
        bits = [s.bits[i] for s in signals]
        if t:
            v = 1
            for b in bits:
                v &= b
        else:
            v = 0
            for b in bits:
                v |= b
        out.append(v)
    cycle = signals[0].cycle
    return ErrorSignal(tuple(out), cycle)
