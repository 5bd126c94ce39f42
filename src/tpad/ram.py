"""Write-through RAM protected by a randomized parity code over address||data.

Check bits cover the concatenation of address and data (address high bits
first), so both wrong-location and wrong-value effects disturb them. The
array operates in write-through mode: a write exposes the written word at
RAM_Out immediately, letting the checker compare RAM_In against RAM_Out in
the same cycle. Data_Out sits behind a latch that loads only on an actual
read, and on idle cycles neither RAM_Out nor Data_Out may change.

Trojan behaviors are injectable per cycle; each maps to the checker symptom
that exposes it:

    read   wrong_address / wrong_data / does_not  -> check bits at RAM_Out bad
    read   write_instead                          -> RAM_Out != Data_Out
    write  wrong_address / wrong_data             -> check bits at RAM_Out bad
    write  read_instead / does_not                -> RAM_In != RAM_Out
    idle   read_instead                           -> RAM_Out = Data_Out (changed)
    idle   write_instead                          -> RAM_In = RAM_Out (changed)

Address-corrupting trojans act on the internal address bus feeding both the
cell array and the in-macro check-bit encoder, while the checker works from
the requested address; data-corrupting trojans act downstream of the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
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

EXPECTED_SYMPTOM = {
    "read_wrong_address": CHECK_BITS_INCORRECT,
    "read_wrong_data": CHECK_BITS_INCORRECT,
    "write_instead_of_read": OUT_NEQ_DATAOUT,
    "does_not_read": CHECK_BITS_INCORRECT,
    "write_wrong_address": CHECK_BITS_INCORRECT,
    "write_wrong_data": CHECK_BITS_INCORRECT,
    "read_instead_of_write": IN_NEQ_OUT,
    "does_not_write": IN_NEQ_OUT,
    "read_instead_of_idle": IDLE_READ_ACTIVITY,
    "write_instead_of_idle": IDLE_WRITE_ACTIVITY,
}
RAM_TROJANS = tuple(EXPECTED_SYMPTOM)


def addr_data_bits(addr: int, data: int, addr_bits: int, word_width: int) -> Bits:
    """Info vector for the memory code: address then data, high bits first."""
    a = tuple((addr >> (addr_bits - 1 - i)) & 1 for i in range(addr_bits))
    d = tuple((data >> (word_width - 1 - i)) & 1 for i in range(word_width))
    return a + d


@dataclass
class RamWord:
    data: int
    check: Bits


@dataclass
class RamCycleResult:
    op: str
    data_out: Optional[int]
    attack: bool
    symptoms: tuple[str, ...]


class ProtectedRam:
    """Cycle-stepped model of the protected memory plus its checker."""

    def __init__(self, depth: int, word_width: int, code: ParityCheckMatrix):
        if depth < 2 or depth & (depth - 1):
            raise ValueError("depth must be a power of two >= 2")
        self.depth = depth
        self.word_width = word_width
        self.addr_bits = depth.bit_length() - 1
        k = self.addr_bits + word_width
        self.code = code
        if self.code.k != k:
            raise ValueError(f"memory code must cover {k} bits, has {self.code.k}")
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
        return self.code.check_bits(
            addr_data_bits(addr, data, self.addr_bits, self.word_width)
        )

    def cycle(
        self,
        op: str,
        addr: Optional[int] = None,
        data_in: Optional[int] = None,
        trojan: Optional[str] = None,
    ) -> RamCycleResult:
        """One memory operation with an optional trojan behavior injected."""
        if op not in (READ, WRITE, IDLE):
            raise ValueError(f"unknown op {op!r}")
        if trojan is not None and trojan not in RAM_TROJANS:
            raise ValueError(f"unknown trojan {trojan!r}")
        if op != IDLE:
            if addr is None or not 0 <= addr < self.depth:
                raise ValueError("address out of range")
        if op == WRITE and data_in is None:
            raise ValueError("write needs data_in")
        if data_in is not None and not 0 <= data_in < (1 << self.word_width):
            raise ValueError("data word out of range")

        prev_ram_out = self.ram_out
        prev_data_out = self.data_out
        symptoms: list[str] = []

        if op == READ:
            did_read = True
            if trojan == "read_wrong_address":
                # the row decoder selects a neighboring word line
                cell = self.cells[addr ^ 1]
                self.ram_out = cell
            elif trojan == "read_wrong_data":
                cell = self.cells[addr]
                self.ram_out = RamWord(cell.data ^ 1, cell.check)
            elif trojan == "write_instead_of_read":
                did_read = False
                rogue = 0 if data_in is None else data_in
                word = RamWord(rogue, self._check(addr, rogue))
                self.cells[addr] = word
                self.ram_out = word
            elif trojan == "does_not_read":
                did_read = False
                self.ram_out = prev_ram_out
            else:
                cell = self.cells[addr]
                self.ram_out = cell
            if did_read:
                # latch control follows the actual array read; rogue writes
                # and silent no-ops leave Data_Out holding its old value
                self.data_out = self.ram_out.data
            if self._check(addr, self.ram_out.data) != self.ram_out.check:
                symptoms.append(CHECK_BITS_INCORRECT)
            if self.ram_out.data != self.data_out:
                symptoms.append(OUT_NEQ_DATAOUT)

        elif op == WRITE:
            if trojan == "write_wrong_address":
                # internal address bus corrupted ahead of the check-bit
                # encoder; the checker works from the requested address
                eff = addr ^ 1
                word = RamWord(data_in, self._check(eff, data_in))
                self.cells[eff] = word
                self.ram_out = word
            elif trojan == "write_wrong_data":
                # cell upset after the write-through sample: clean at the
                # write cycle, caught by check bits on the next read
                word = RamWord(data_in, self._check(addr, data_in))
                self.cells[addr] = RamWord(data_in ^ 1, word.check)
                self.ram_out = word
            elif trojan == "read_instead_of_write":
                cell = self.cells[addr]
                self.ram_out = cell
                self.data_out = self.ram_out.data
            elif trojan == "does_not_write":
                self.ram_out = prev_ram_out
            else:
                word = RamWord(data_in, self._check(addr, data_in))
                self.cells[addr] = word
                self.ram_out = word
            if self.ram_out.data != data_in:
                symptoms.append(IN_NEQ_OUT)
            if self._check(addr, self.ram_out.data) != self.ram_out.check:
                symptoms.append(CHECK_BITS_INCORRECT)

        else:  # IDLE
            if trojan == "read_instead_of_idle":
                cell = self.cells[0 if addr is None else addr]
                self.ram_out = cell
                self.data_out = self.ram_out.data
            elif trojan == "write_instead_of_idle":
                rogue_addr = 0 if addr is None else addr
                rogue = 0 if data_in is None else data_in
                word = RamWord(rogue, self._check(rogue_addr, rogue))
                self.cells[rogue_addr] = word
                self.ram_out = word
            out_changed = (
                self.ram_out.data != prev_ram_out.data
                or self.ram_out.check != prev_ram_out.check
            )
            latch_changed = self.data_out != prev_data_out
            if (out_changed or latch_changed) and self.ram_out.data == self.data_out:
                symptoms.append(IDLE_READ_ACTIVITY)
            if out_changed and (data_in is not None and self.ram_out.data == data_in):
                symptoms.append(IDLE_WRITE_ACTIVITY)
            elif out_changed and not symptoms:
                # any unexpected idle activity is an attack even if it matches
                # neither signature exactly
                symptoms.append(IDLE_WRITE_ACTIVITY)

        return RamCycleResult(op, self.data_out, bool(symptoms), tuple(symptoms))

