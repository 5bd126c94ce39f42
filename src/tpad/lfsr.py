"""Programmable LFSR error encoding and trusted monitors.

A Fibonacci LFSR with a programmable feedback polynomial drives the error
signal: an r-bit tap subset of the register is the "all clear" value each
cycle, around which the chip's detection netlist combines its checkers. A
monitor mirrors the LFSR and flags any cycle whose received signal differs
from its own taps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .netlist import Bits, WidthError
from .parity import KERNEL_CACHE_SIZE


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
        object.__setattr__(self, "taps", tuple(self.taps))  # hashable, to key the kernel cache
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


def step_source(spec: LfsrSpec, state: str) -> str:
    """step_lfsr(state, spec) as a Python expression on a nonzero `state`."""
    low_mask = spec.poly & ((1 << spec.degree) - 1)
    return f"{state} >> 1 | (({state} & {low_mask:#x}).bit_count() & 1) << {spec.degree - 1}"


def step_lfsr(state: int, spec: LfsrSpec) -> int:
    """One Fibonacci shift: feedback is the parity of polynomial-selected bits."""
    if state == 0:
        raise ZeroStateError("LFSR state must be nonzero")
    low_mask = spec.poly & ((1 << spec.degree) - 1)
    fb = (state & low_mask).bit_count() & 1
    return (state >> 1) | (fb << (spec.degree - 1))


def lfsr_taps(state: int, spec: LfsrSpec) -> Bits:
    return tuple((state >> p) & 1 for p in spec.taps)


def is_primitive(poly: int, degree: int) -> bool:
    """Exhaustive period test: primitive iff the cycle of state 1 has length 2^L - 1.

    Degrees above 24 are refused (the walk is exponential); callers there
    must supply an externally vetted polynomial.
    """
    _validate_poly(poly, degree)
    if degree > 24:
        raise UnsupportedDegreeError(f"degree {degree} exceeds the exhaustive test limit 24")
    spec = LfsrSpec(degree, poly, 1, ())
    target = (1 << degree) - 1
    state = 1
    for steps in range(1, target + 1):
        state = step_lfsr(state, spec)
        if state == 1:
            return steps == target
    return False


class ErrorMonitor:
    """Trusted mirror of a chip's LFSR; flags mismatching error signals.

    With a lane mask wider than 1, each received bit is a lane int and every
    lane expects the same taps (every lane's LFSR starts at the spec's seed).
    The check runs its spec's generated kernel (`_compile_monitor_check`).
    """

    def __init__(self, spec: LfsrSpec, mask: int = 1):
        self.spec = spec
        self.mask = mask
        self.state = spec.seed
        self.cycle = 0
        self._check: Optional[Callable] = None  # the spec's kernel, fetched on the first check

    def check(self, received: Sequence[int]) -> int:
        """Mask of the lanes whose signal reports an attack (0 if none); always advances.

        A zero mirror state raises ZeroStateError and leaves the monitor as it was.
        """
        check = self._check
        if check is None:
            check = self._check = _compile_monitor_check(self.spec)
        return check(self, received)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _compile_monitor_check(spec: LfsrSpec) -> Callable[[ErrorMonitor, Sequence[int]], int]:
    """check(monitor, received): the tap compare and the mirror's step, straight-line."""
    got = [f"g{i}" for i in range(spec.r)]
    differs = [f"({g} ^ (-(s >> {p} & 1) & mask))" for g, p in zip(got, spec.taps)]
    lines = [
        "def check(mon, received):",
        f"    if len(received) != {spec.r}:",
        "        raise WidthError('error signal width mismatch')",
        "    s = mon.state",
        "    if not s:",
        "        raise ZeroStateError('LFSR state must be nonzero')",
        "    mask = mon.mask",
        *([f"    {', '.join(got)}, = received"] if got else []),
        f"    mon.state = {step_source(spec, 's')}",
        "    mon.cycle += 1",
        f"    return {' | '.join(differs) or '0'}",
    ]
    ns = {"WidthError": WidthError, "ZeroStateError": ZeroStateError}
    exec("\n".join(lines), ns)  # noqa: S102 - generated from a validated spec
    return ns["check"]


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
