"""Write-through RAM protected by a randomized parity code over address||data.

Check bits cover the concatenation of address and data (address high bits
first), so both wrong-location and wrong-value effects disturb them. The
array operates in write-through mode: a write exposes the written word at
RAM_Out immediately, letting the checker compare RAM_In against RAM_Out in
the same cycle. Data_Out sits behind a latch that loads only on an actual
read, and on idle cycles neither RAM_Out nor Data_Out may change.

A cycle performs one action. A trojan's row in `TROJAN_ACTIONS` names the
requested op it acts on and what the array does instead: a read, a write or
nothing. Armed on any other op, the trojan does nothing. Address-corrupting
trojans act on the internal address bus feeding both the cell array and the
in-macro check-bit encoder; data-corrupting ones act downstream of the
encoder. The checker derives its symptoms from the requested op, address and
RAM_In and from RAM_Out and Data_Out before and after the cycle. It never
learns which trojan is armed; each row names the symptom that exposes it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .netlist import Bits
from .parity import ParityCheckMatrix

READ = "read"
WRITE = "write"
IDLE = "idle"

# checker symptoms (columns of the detection table)
CHECK_BITS_INCORRECT = "check_bits_at_ram_out_incorrect"
IN_NEQ_OUT = "ram_in_neq_ram_out"
OUT_NEQ_DATAOUT = "ram_out_neq_data_out"
IDLE_READ_ACTIVITY = "idle_ram_out_eq_data_out"
IDLE_WRITE_ACTIVITY = "idle_ram_in_eq_ram_out"

# trojan -> (op it acts on, op the array performs instead, symptom that exposes it)
TROJAN_ACTIONS = {
    "read_wrong_address": (READ, READ, CHECK_BITS_INCORRECT),
    "read_wrong_data": (READ, READ, CHECK_BITS_INCORRECT),
    "write_instead_of_read": (READ, WRITE, OUT_NEQ_DATAOUT),
    "does_not_read": (READ, IDLE, CHECK_BITS_INCORRECT),
    "write_wrong_address": (WRITE, WRITE, CHECK_BITS_INCORRECT),
    "write_wrong_data": (WRITE, WRITE, CHECK_BITS_INCORRECT),
    "read_instead_of_write": (WRITE, READ, IN_NEQ_OUT),
    "does_not_write": (WRITE, IDLE, IN_NEQ_OUT),
    "read_instead_of_idle": (IDLE, READ, IDLE_READ_ACTIVITY),
    "write_instead_of_idle": (IDLE, WRITE, IDLE_WRITE_ACTIVITY),
}
EXPECTED_SYMPTOM = {trojan: row[2] for trojan, row in TROJAN_ACTIONS.items()}
RAM_TROJANS = tuple(TROJAN_ACTIONS)
_OPS = (READ, WRITE, IDLE)


def is_ram_depth(depth) -> bool:
    """The depth rule: an int (not a bool) that is a power of two >= 2."""
    return type(depth) is int and depth >= 2 and not depth & (depth - 1)


def _span(cols: list[int]) -> tuple[int, ...]:
    """table[v] = XOR of cols[b] over the set bits b of v, for every v < 2**len(cols)."""
    table = [0]
    for c in cols:
        table += [t ^ c for t in table]
    return tuple(table)


@dataclass(slots=True)
class RamWord:
    data: int
    check: Bits


@dataclass(slots=True)
class RamCycleResult:
    data_out: Optional[int]
    attack: bool
    symptoms: tuple[str, ...]


class ProtectedRam:
    """Cycle-stepped model of the protected memory plus its checker."""

    def __init__(self, depth: int, word_width: int, code: ParityCheckMatrix):
        if not is_ram_depth(depth):
            raise ValueError("depth must be a power of two >= 2")
        self.depth = depth
        self.word_width = word_width
        self.addr_bits = depth.bit_length() - 1
        k = self.addr_bits + word_width
        self._word_limit = 1 << word_width
        self.code = code
        if self.code.k != k:
            raise ValueError(f"memory code must cover {k} bits, has {self.code.k}")
        # The code is linear, so check(addr || data) is the XOR of one entry per
        # address and one per data byte, each r check bits packed into an int
        # (check bit i at bit i); _unpack turns a packed int back into Bits.
        cols = [sum(row[j] << i for i, row in enumerate(code.rows)) for j in range(k)]
        addr_cols, data_cols = cols[:self.addr_bits][::-1], cols[self.addr_bits:][::-1]
        self._addr_checks = _span(addr_cols)
        self._data_checks = tuple((b, _span(data_cols[b:b + 8])) for b in range(0, word_width, 8))
        self._unpack = tuple(tuple(c >> i & 1 for i in range(code.r)) for c in range(1 << code.r))
        # cells start consistent: data 0 with matching check bits per address;
        # RamWords are replaced, never changed in place, so resets, lanes and RAM_Out share them
        self._initial_cells = tuple(RamWord(0, self._check(a, 0)) for a in range(depth))
        self.reset()

    def reset(self) -> None:
        """Every cell back to data 0 with its check bits, outputs to cell 0."""
        self.cells = list(self._initial_cells)
        self.ram_out = self.cells[0]
        self.data_out = self.ram_out.data

    def _check(self, addr: int, data: int) -> Bits:
        """code.check_bits of addr then data, high bits first, from the tables."""
        c = self._addr_checks[addr]
        for shift, table in self._data_checks:
            c ^= table[data >> shift & 0xFF]
        return self._unpack[c]

    def random_op(self, rng: random.Random) -> tuple:
        """A random (op, addr, data_in): 40% writes of a random word, 40% reads, 20% idle."""
        roll = rng.random()
        if roll < 0.4:
            return WRITE, rng.randrange(self.depth), rng.randrange(1 << self.word_width)
        if roll < 0.8:
            return READ, rng.randrange(self.depth), None
        return IDLE, None, None

    def cycle(
        self,
        op: str,
        addr: Optional[int] = None,
        data_in: Optional[int] = None,
        trojan: Optional[str] = None,
    ) -> RamCycleResult:
        """One requested op: the trojan's row picks the array's action; then the checker runs."""
        if op not in _OPS:
            raise ValueError(f"unknown op {op!r}")
        if trojan is not None and trojan not in RAM_TROJANS:
            raise ValueError(f"unknown trojan {trojan!r}")
        if addr is None:
            if op != IDLE:
                raise ValueError("address out of range")
        elif type(addr) is not int or not 0 <= addr < self.depth:  # a bool or float is no address
            raise ValueError("address out of range")
        if data_in is None:
            if op == WRITE:
                raise ValueError("write needs data_in")
        elif type(data_in) is not int or not 0 <= data_in < self._word_limit:
            raise ValueError("data word out of range")

        prev = (self.ram_out, self.data_out) if op == IDLE else None  # what an idle cycle compares

        # a rogue action on an idle cycle uses address 0 and data 0 by default
        act, where = op, 0 if addr is None else addr
        if trojan is not None and TROJAN_ACTIONS[trojan][0] == op:
            act = TROJAN_ACTIONS[trojan][1]
            if trojan.endswith("_wrong_address"):
                where ^= 1  # the neighboring word line, and its check bits
        else:
            trojan = None  # a trojan acts only on the op its row names
        if act == READ:
            word = self.cells[where]
            if trojan == "read_wrong_data":
                word = RamWord(word.data ^ 1, word.check)
            self.ram_out = word
            self.data_out = word.data  # the latch loads only on an actual read
        elif act == WRITE:
            data = 0 if data_in is None else data_in
            word = RamWord(data, self._check(where, data))
            self.cells[where] = self.ram_out = word
            if trojan == "write_wrong_data":
                # a data upset after the write-through sample, caught on the next read
                self.cells[where] = RamWord(data ^ 1, word.check)

        out, latch = self.ram_out, self.data_out
        if op != IDLE:  # a write compares RAM_In with RAM_Out, a read RAM_Out with Data_Out
            bad_check = self._check(addr, out.data) != out.check
            mismatch = out.data != (data_in if op == WRITE else latch)
            if not (bad_check or mismatch):
                return RamCycleResult(latch, False, ())
            symptoms = tuple(compress((IN_NEQ_OUT, CHECK_BITS_INCORRECT, OUT_NEQ_DATAOUT),
                                      (mismatch and op == WRITE, bad_check, mismatch and op == READ)))
        else:
            out_changed = out is not prev[0] and out != prev[0]
            if not out_changed and latch == prev[1]:
                return RamCycleResult(latch, False, ())  # nothing moved
            read_activity = out.data == latch
            # unexpected idle activity is an attack even if it matches neither signature
            write_activity = out_changed and (data_in is not None and out.data == data_in or not read_activity)
            symptoms = tuple(compress((IDLE_READ_ACTIVITY, IDLE_WRITE_ACTIVITY),
                                      (read_activity, write_activity)))
        return RamCycleResult(latch, bool(symptoms), symptoms)
