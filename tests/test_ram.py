import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpad.parity import ParityCheckMatrix, sample_parity_code
from tpad.ram import (
    CHECK_BITS_INCORRECT,
    EXPECTED_SYMPTOM,
    IDLE,
    IDLE_READ_ACTIVITY,
    IDLE_WRITE_ACTIVITY,
    IN_NEQ_OUT,
    OUT_NEQ_DATAOUT,
    RAM_TROJANS,
    READ,
    TROJAN_ACTIONS,
    WRITE,
    ProtectedRam,
    RamCycleResult,
    RamWord,
)


def addr_data_bits(addr: int, data: int, addr_bits: int, word_width: int) -> tuple[int, ...]:
    """Info vector for the memory code: address then data, high bits first."""
    a = tuple((addr >> (addr_bits - 1 - i)) & 1 for i in range(addr_bits))
    d = tuple((data >> (word_width - 1 - i)) & 1 for i in range(word_width))
    return a + d


# Fixture code over 8 address + 16 data bits reproducing the worked values:
# check(BE||0124) = 110 = 6h and check(BF||0124) = 010 = 2h.
WORKED_ROWS = (
    tuple(1 if j in {0, 5, 6, 7, 15, 21} else 0 for j in range(24)),
    tuple(1 if j in {1, 2, 8, 9, 10, 11, 12, 13, 14, 16, 23} else 0 for j in range(24)),
    tuple(1 if j in {3, 4, 15, 17, 18, 19, 20, 22} else 0 for j in range(24)),
)


@pytest.fixture
def worked_code():
    return ParityCheckMatrix(WORKED_ROWS)


@pytest.fixture
def ram(worked_code):
    return ProtectedRam(256, 16, code=worked_code)


class TestWorkedValues:
    def test_write_check_bits_are_6(self, worked_code):
        bits = worked_code.check_bits(addr_data_bits(0xBE, 0x0124, 8, 16))
        assert bits == (1, 1, 0)  # 6h

    def test_neighbor_address_check_bits_are_2(self, worked_code):
        bits = worked_code.check_bits(addr_data_bits(0xBF, 0x0124, 8, 16))
        assert bits == (0, 1, 0)  # 2h

    def test_clean_write_then_read(self, ram):
        assert not ram.cycle(WRITE, 0xBE, 0x0124).attack
        res = ram.cycle(READ, 0xBE)
        assert not res.attack and res.data_out == 0x0124

    def test_redirected_read_detected(self, ram):
        ram.cycle(WRITE, 0xBE, 0x0124)
        res = ram.cycle(READ, 0xBF, trojan="read_wrong_address")
        assert res.attack and res.symptoms == (CHECK_BITS_INCORRECT,)


# Each trojan row's staging, so exactly its table symptom can fire: one
# (op, addr, data_in, trojan) per cycle, the last cycle showing the symptom.
STAGES = {
    "read_wrong_address": ((WRITE, 0x10, 0x1111, None), (READ, 0x10, None, None),
                           (READ, 0x11, None, "read_wrong_address")),
    "read_wrong_data": ((WRITE, 0x10, 0x1111, None), (READ, 0x10, None, None),
                        (READ, 0x10, None, "read_wrong_data")),
    "write_instead_of_read": ((WRITE, 0x10, 0x1111, None), (READ, 0x10, None, None),
                              (READ, 0x10, 0x2222, "write_instead_of_read")),
    "does_not_read": ((WRITE, 0x10, 0x1111, None), (READ, 0x10, None, None),
                      (READ, 0x11, None, "does_not_read")),
    "write_wrong_address": ((WRITE, 0x20, 0x3333, "write_wrong_address"),),
    "write_wrong_data": ((WRITE, 0x20, 0x3333, "write_wrong_data"), (READ, 0x20, None, None)),
    "read_instead_of_write": ((WRITE, 0x20, 0x3333, None),
                              (WRITE, 0x20, 0x4444, "read_instead_of_write")),
    "does_not_write": ((WRITE, 0x20, 0x3333, None), (WRITE, 0x20, 0x4444, "does_not_write")),
    "read_instead_of_idle": ((WRITE, 0x30, 0x5555, None), (WRITE, 0x31, 0x6666, None),
                             (IDLE, 0x30, None, "read_instead_of_idle")),
    "write_instead_of_idle": ((WRITE, 0x30, 0x5555, None),
                              (IDLE, 0x31, 0x7777, "write_instead_of_idle")),
}


def _staged(worked_code, trojan):
    """The result of the last cycle of the trojan row's staging."""
    ram = ProtectedRam(256, 16, code=worked_code)
    for op, addr, data_in, armed in STAGES[trojan]:
        res = ram.cycle(op, addr, data_in, trojan=armed)
    return res


class TestDetectionTable:
    @pytest.mark.parametrize("trojan", RAM_TROJANS)
    def test_each_row_fires_its_exact_symptom(self, worked_code, trojan):
        res = _staged(worked_code, trojan)
        assert res.attack
        assert res.symptoms == (EXPECTED_SYMPTOM[trojan],)

    @pytest.mark.parametrize("trojan", RAM_TROJANS)
    def test_trojan_leaves_other_ops_alone(self, worked_code, trojan):
        rng = random.Random(5)
        armed, clean = (ProtectedRam(256, 16, code=worked_code) for _ in range(2))
        others = [op for op in (READ, WRITE, IDLE) if op != TROJAN_ACTIONS[trojan][0]]
        for _ in range(300):
            op, addr, data_in = rng.choice(others), rng.randrange(256), rng.randrange(1 << 16)
            assert armed.cycle(op, addr, data_in, trojan=trojan) == clean.cycle(op, addr, data_in)
            assert armed.cells == clean.cells

    def test_latent_write_corruption_clean_at_write_time(self, worked_code):
        ram = ProtectedRam(256, 16, code=worked_code)
        assert not ram.cycle(WRITE, 0x20, 0x3333, trojan="write_wrong_data").attack

    def test_write_instead_of_read_symptom_names(self, worked_code):
        res = _staged(worked_code, "write_instead_of_read")
        assert res.symptoms == (OUT_NEQ_DATAOUT,)

    def test_does_not_write_symptom_names(self, worked_code):
        res = _staged(worked_code, "does_not_write")
        assert res.symptoms == (IN_NEQ_OUT,)


class TestIdleCompare:
    def test_clean_idle_cycle_compares_no_words(self, worked_code, monkeypatch):
        """An idle cycle whose RAM_Out is the same word object skips RamWord.__eq__;
        the detection table reads the same with the compare counted."""
        calls = []
        eq = RamWord.__eq__
        monkeypatch.setattr(RamWord, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
        ram = ProtectedRam(256, 16, code=worked_code)
        rng = random.Random(3)
        for _ in range(200):
            ram.cycle(WRITE, rng.randrange(256), rng.randrange(1 << 16))
            ram.cycle(READ, rng.randrange(256))
            assert not ram.cycle(IDLE).attack
        assert calls == []
        for trojan in RAM_TROJANS:
            res = _staged(worked_code, trojan)
            assert res.symptoms == (EXPECTED_SYMPTOM[trojan],)
        assert calls  # a rogue write on an idle cycle is compared by value


class TestHealthyTraffic:
    def test_no_false_positives_random_ops(self, ram):
        rng = random.Random(0)
        for _ in range(20_000):
            op = rng.choice((READ, WRITE, IDLE))
            if op == WRITE:
                res = ram.cycle(WRITE, rng.randrange(256), rng.randrange(1 << 16))
            elif op == READ:
                res = ram.cycle(READ, rng.randrange(256))
            else:
                res = ram.cycle(IDLE)
            assert not res.attack

    def test_data_out_latch_holds_through_writes_and_idle(self, ram):
        ram.cycle(WRITE, 1, 0xAAAA)
        ram.cycle(READ, 1)
        assert ram.data_out == 0xAAAA
        ram.cycle(WRITE, 2, 0xBBBB)
        assert ram.data_out == 0xAAAA  # only reads load the latch
        ram.cycle(IDLE)
        assert ram.data_out == 0xAAAA


class TestValidation:
    def test_address_range(self, ram):
        with pytest.raises(ValueError):
            ram.cycle(READ, 256)

    @pytest.mark.parametrize("addr", [-1, 256])
    @pytest.mark.parametrize("op", [READ, WRITE, IDLE])
    def test_address_range_on_every_op(self, ram, op, addr):
        """Refused before any state changes, whatever the op or the armed trojan."""
        ram.cycle(WRITE, 0xFF, 0x1234)
        before = (list(ram.cells), ram.ram_out, ram.data_out)
        for trojan in (None, "write_instead_of_idle", "read_instead_of_idle"):
            with pytest.raises(ValueError, match="^address out of range$"):
                ram.cycle(op, addr, 5, trojan=trojan)
        assert (ram.cells, ram.ram_out, ram.data_out) == before

    def test_write_needs_data(self, ram):
        with pytest.raises(ValueError):
            ram.cycle(WRITE, 3)

    def test_code_width_must_cover_addr_and_data(self, worked_code):
        with pytest.raises(ValueError):
            ProtectedRam(512, 16, code=worked_code)  # 9 addr bits != 8


class TestCheckTables:
    """The per-address and per-byte tables against the code on address || data."""

    @pytest.mark.parametrize("depth", [2, 4, 8, 16])
    def test_every_word_of_small_geometries(self, depth):
        addr_bits = depth.bit_length() - 1
        for width in range(1, 9):
            code = sample_parity_code(addr_bits + width, 1 + (depth + width) % 6, depth * 16 + width)
            ram = ProtectedRam(depth, width, code=code)
            for addr in range(depth):
                for data in range(1 << width):
                    expected = code.check_bits(addr_data_bits(addr, data, addr_bits, width))
                    assert ram._check(addr, data) == expected, (width, addr, data)

    def test_sampled_words_at_64_by_16(self):
        code = sample_parity_code(6 + 16, 6, 64)
        ram = ProtectedRam(64, 16, code=code)
        rng = random.Random(64)
        for _ in range(10_000):
            addr, data = rng.randrange(64), rng.randrange(1 << 16)
            assert ram._check(addr, data) == code.check_bits(addr_data_bits(addr, data, 6, 16))


def _fuzz_digest(depth: int, width: int, r: int, seed: int, cycles: int = 20_000) -> str:
    """sha256 of a seeded op stream's results and RAM state after every cycle.

    Every trojan is armed on every op, including ops its row does not name,
    idles come with and without an address, and reads and idles sometimes
    carry a data word.
    """
    rng = random.Random(seed)
    code = sample_parity_code(depth.bit_length() - 1 + width, r, seed)
    ram = ProtectedRam(depth, width, code=code)
    h = hashlib.sha256()
    for _ in range(cycles):
        op = rng.choice((READ, WRITE, IDLE))
        trojan = rng.choice(RAM_TROJANS) if rng.random() < 0.5 else None
        addr = rng.randrange(depth) if op != IDLE or rng.random() < 0.5 else None
        data_in = rng.randrange(1 << width) if op == WRITE or rng.random() < 0.5 else None
        res = ram.cycle(op, addr, data_in, trojan=trojan)
        cells = [(c.data, c.check) for c in ram.cells]
        h.update(repr((res.data_out, res.attack, res.symptoms, cells,
                       ram.ram_out.data, ram.ram_out.check, ram.data_out)).encode())
    return h.hexdigest()


# recorded with the per-op trojan branches the action table replaced
FUZZ_GOLDEN = {
    (2, 1, 2, 11): "b3f7cd6e4d01dd759b91268164df3d3551f91f3c46e066ff32877dd1e143f663",
    (64, 16, 6, 12): "ef55e7dc59c1b488ae33e3f09c7d5908b888f064362c3059286c68beb9588841",
}


@pytest.mark.parametrize("geometry", sorted(FUZZ_GOLDEN))
def test_fuzzed_cycles_match_golden(geometry):
    assert _fuzz_digest(*geometry) == FUZZ_GOLDEN[geometry]


class _OracleRam(ProtectedRam):
    """ProtectedRam with cycle as it was written before its checker dropped the symptom
    list: refusals, action and checker in one pass. The one RAM op path must agree."""

    def cycle(self, op, addr=None, data_in=None, trojan=None):
        if op not in (READ, WRITE, IDLE):
            raise ValueError(f"unknown op {op!r}")
        if trojan is not None and trojan not in RAM_TROJANS:
            raise ValueError(f"unknown trojan {trojan!r}")
        if addr is None:
            if op != IDLE:
                raise ValueError("address out of range")
        elif not 0 <= addr < self.depth:
            raise ValueError("address out of range")
        if op == WRITE and data_in is None:
            raise ValueError("write needs data_in")
        if data_in is not None and not 0 <= data_in < (1 << self.word_width):
            raise ValueError("data word out of range")

        prev_ram_out = self.ram_out
        prev_data_out = self.data_out

        act, where = op, 0 if addr is None else addr
        if trojan is not None and TROJAN_ACTIONS[trojan][0] == op:
            act = TROJAN_ACTIONS[trojan][1]
            if trojan.endswith("_wrong_address"):
                where ^= 1
        else:
            trojan = None
        if act == READ:
            word = self.cells[where]
            if trojan == "read_wrong_data":
                word = RamWord(word.data ^ 1, word.check)
            self.ram_out = word
            self.data_out = word.data
        elif act == WRITE:
            data = 0 if data_in is None else data_in
            word = RamWord(data, self._check(where, data))
            self.cells[where] = self.ram_out = word
            if trojan == "write_wrong_data":
                self.cells[where] = RamWord(data ^ 1, word.check)

        out = self.ram_out
        symptoms = []
        if op != IDLE:
            if op == WRITE and out.data != data_in:
                symptoms.append(IN_NEQ_OUT)
            if self._check(addr, out.data) != out.check:
                symptoms.append(CHECK_BITS_INCORRECT)
            if op == READ and out.data != self.data_out:
                symptoms.append(OUT_NEQ_DATAOUT)
        else:
            out_changed = out is not prev_ram_out and out != prev_ram_out
            latch_changed = self.data_out != prev_data_out
            if (out_changed or latch_changed) and out.data == self.data_out:
                symptoms.append(IDLE_READ_ACTIVITY)
            if out_changed and (data_in is not None and out.data == data_in):
                symptoms.append(IDLE_WRITE_ACTIVITY)
            elif out_changed and not symptoms:
                symptoms.append(IDLE_WRITE_ACTIVITY)

        return RamCycleResult(self.data_out, bool(symptoms), tuple(symptoms))


def _outcome(ram, op):
    """The result's fields, or the refusal's type and message."""
    try:
        res = ram.cycle(*op[:3], trojan=op[3])
    except Exception as e:  # its type and message are part of the outcome
        return type(e), str(e)
    return res.data_out, res.attack, res.symptoms


@st.composite
def _ram_ops(draw, depth, width):
    """(op, addr, data_in, trojan): any op, trojan row or None, with addresses and
    words in and out of range, and an unknown op or trojan now and then."""
    op = draw(st.sampled_from([READ, WRITE, IDLE, "erase"]))
    addr = draw(st.sampled_from([None, -1, depth, *range(depth)]))
    data = draw(st.sampled_from([None, -1, 1 << width, *range(1 << width)]))
    trojan = draw(st.sampled_from([None, "read_everything", *RAM_TROJANS]))
    return op, addr, data, trojan


class TestOneOpPath:
    @pytest.mark.parametrize("depth,width,r", [(2, 1, 2), (8, 3, 3)])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, depth, width, r, data):
        code = sample_parity_code(depth.bit_length() - 1 + width, r, depth + width)
        ram, oracle = ProtectedRam(depth, width, code=code), _OracleRam(depth, width, code=code)
        for op in data.draw(st.lists(_ram_ops(depth, width), min_size=10, max_size=60), label="ops"):
            assert _outcome(ram, op) == _outcome(oracle, op), op
            assert ram.cells == oracle.cells
            assert (ram.ram_out, ram.data_out) == (oracle.ram_out, oracle.data_out)
