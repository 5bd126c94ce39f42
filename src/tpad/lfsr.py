"""Programmable LFSR error encoding and trusted monitors.

A Fibonacci LFSR with a programmable feedback polynomial drives the error
signal: an r-bit tap subset of the register is the "all clear" value each
cycle. A checker XORs its tap bits with predicted and actual check bits,
so its output equals the taps exactly when prediction matches reality.
Multiple checker outputs combine per bit through OR (tap bit 0) or AND
(tap bit 1), both of which pull any deviation away from the tap value.
A monitor mirrors the LFSR and flags any cycle whose received signal
differs from its own taps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .netlist import Bits, WidthError


class LfsrError(ValueError):
    pass


class ZeroStateError(LfsrError):
    pass


class UnsupportedDegreeError(LfsrError):
    pass


def _validate_poly(poly: int, degree: int) -> None:
    if degree < 1:
        raise LfsrError("degree must be >= 1")
    if poly < 0 or poly.bit_length() - 1 != degree:
        raise LfsrError(f"polynomial 0x{poly:x} does not have degree {degree}")
    if not poly & 1:
        raise LfsrError("polynomial constant term must be 1")


@dataclass(frozen=True)
class LfsrSpec:
    """Feedback polynomial (bit i = coefficient of x^i), seed, and tap subset."""

    degree: int
    poly: int
    seed: int
    taps: tuple[int, ...]

    def __post_init__(self):
        _validate_poly(self.poly, self.degree)
        if not 0 < self.seed < (1 << self.degree):
            raise LfsrError("seed must be a nonzero state")
        if len(set(self.taps)) != len(self.taps):
            raise LfsrError("tap positions must be distinct")
        for t in self.taps:
            if not 0 <= t < self.degree:
                raise LfsrError(f"tap position {t} out of range")

    @property
    def r(self) -> int:
        return len(self.taps)


def step_lfsr(state: int, spec: LfsrSpec) -> int:
    """One Fibonacci shift: feedback is the parity of polynomial-selected bits."""
    if state == 0:
        raise ZeroStateError("LFSR state must be nonzero")
    low_mask = spec.poly & ((1 << spec.degree) - 1)
    fb = (state & low_mask).bit_count() & 1
    return (state >> 1) | (fb << (spec.degree - 1))


def lfsr_taps(state: int, spec: LfsrSpec) -> Bits:
    return tuple((state >> p) & 1 for p in spec.taps)


def is_primitive(poly: int, degree: int, max_degree: int = 24) -> bool:
    """Exhaustive period test: primitive iff the cycle of state 1 has length 2^L - 1.

    Degrees above max_degree are refused (the walk is exponential); callers
    there must supply an externally vetted polynomial.
    """
    _validate_poly(poly, degree)
    if degree > max_degree:
        raise UnsupportedDegreeError(
            f"degree {degree} exceeds the exhaustive test limit {max_degree}"
        )
    spec = LfsrSpec(degree, poly, 1, ())
    target = (1 << degree) - 1
    state = 1
    for steps in range(1, target + 1):
        state = step_lfsr(state, spec)
        if state == 1:
            return steps == target
    return False


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


class ErrorMonitor:
    """Trusted mirror of a chip's LFSR; flags mismatching error signals.

    With a lane mask wider than 1, each received bit is a lane int and every
    lane expects the same taps (every lane's LFSR starts at the spec's seed).
    """

    def __init__(self, spec: LfsrSpec, mask: int = 1):
        self.spec = spec
        self.mask = mask
        self.state = spec.seed
        self.cycle = 0

    def check(self, received: Sequence[int]) -> int:
        """Mask of the lanes whose signal reports an attack (0 if none); always advances."""
        spec, state, mask = self.spec, self.state, self.mask
        if len(received) != len(spec.taps):
            raise WidthError("error signal width mismatch")
        attack = 0
        for got, p in zip(received, spec.taps):
            attack |= got ^ (-(state >> p & 1) & mask)
        self.state = step_lfsr(state, spec)
        self.cycle += 1
        return attack


# -- spec file -------------------------------------------------------------------


def format_lfsr_spec(spec: LfsrSpec) -> str:
    return (
        f"L = {spec.degree}\n"
        f"poly = 0x{spec.poly:x}\n"
        f"seed = 0x{spec.seed:x}\n"
        f"taps = {' '.join(str(t) for t in spec.taps)}\n"
    )


_SPEC_FIELDS = ("L", "poly", "seed", "taps")


def parse_lfsr_spec(text: str) -> LfsrSpec:
    """format_lfsr_spec's text; errors name the line or the field.

    A field other than L, poly, seed and taps is refused.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LfsrError(f"line {lineno}: bad spec line {line!r}")
        key, val = (p.strip() for p in line.split("=", 1))
        if key not in _SPEC_FIELDS:
            raise LfsrError(f"line {lineno}: unknown field {key!r}")
        if key in fields:
            raise LfsrError(f"line {lineno}: repeated field {key!r}")
        fields[key] = val

    def num(key: str, text: str, base: int = 10) -> int:
        try:
            return int(text, base)
        except ValueError:
            raise LfsrError(f"field {key!r}: expected a base-{base} integer, got {text!r}") from None

    try:
        degree = num("L", fields["L"])
        poly = num("poly", fields["poly"], 16)
        seed = num("seed", fields["seed"], 16)
        taps = tuple(num("taps", t) for t in fields["taps"].split())
    except KeyError as e:
        raise LfsrError(f"missing field {e.args[0]!r}") from e
    return LfsrSpec(degree, poly, seed, taps)
