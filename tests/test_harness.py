"""The trusted harness's generated kernels against their former loop bodies.

`StimulusEncoder.send`, `OutputReceiver.receive` and `ErrorMonitor.check`
run straight-line functions generated per code and per LFSR spec. The
reference classes below are the loop bodies they replaced, kept as oracles:
on the same inputs both must give the same verdicts, check bits and state,
bit for bit, on one lane and on lane ints up to 64 lanes wide.
"""

import pickle
import random
from dataclasses import fields, replace
from operator import itemgetter, xor
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpad import lfsr, parity
from tpad.chip import (
    OutputReceiver,
    StimulusEncoder,
    build_protected_chip,
    load_chip_bundle,
    save_chip_bundle,
)
from tpad.lfsr import ErrorMonitor, LfsrSpec, ZeroStateError, step_lfsr
from tpad.netlist import WidthError
from tpad.parity import ParityCheckMatrix, sample_parity_code

from conftest import lfsr16


class ReferenceEncoder:
    def __init__(self, chip):
        self.code = chip.h_in
        self.prev_check = chip.initial_prev_in_check

    def send(self, x):
        check = tuple(map(xor, self.code.check_bits(x), self.prev_check))
        self.prev_check = check
        return check


class ReferenceReceiver:
    def __init__(self, chip, subset_index=0):
        self.subset, self.code = chip.out_codes[subset_index]
        self.prev_check = chip.initial_prev_out_checks[subset_index]
        pick = itemgetter(*self.subset)
        self._word = pick if len(self.subset) > 1 else lambda outputs: (pick(outputs),)

    def receive(self, outputs, check):
        if len(check) != self.code.r:
            raise WidthError("receiver chain width mismatch")
        attack = 0
        actual = self.code.check_bits(self._word(outputs))
        for got, prev, bit in zip(check, self.prev_check, actual):
            attack |= got ^ prev ^ bit
        self.prev_check = tuple(check)
        return attack


class ReferenceMonitor:
    def __init__(self, spec, mask=1):
        self.spec = spec
        self.mask = mask
        self.state = spec.seed
        self.cycle = 0

    def check(self, received):
        spec, state, mask = self.spec, self.state, self.mask
        if len(received) != len(spec.taps):
            raise WidthError("error signal width mismatch")
        attack = 0
        for got, p in zip(received, spec.taps):
            attack |= got ^ (-(state >> p & 1) & mask)
        self.state = step_lfsr(state, spec)
        self.cycle += 1
        return attack


def channel(k, r, width, rng):
    """A fake chip: a k-bit code on a random subset of `width` outputs, and chain starts."""
    code = sample_parity_code(k, r, rng.getrandbits(32))
    subset = tuple(rng.sample(range(width), k))
    return SimpleNamespace(
        h_in=code, f=SimpleNamespace(outputs=range(width)), out_codes=[(subset, code)],
        initial_prev_in_check=tuple(rng.getrandbits(1) for _ in range(r)),
        initial_prev_out_checks=[tuple(rng.getrandbits(1) for _ in range(r))],
    )


def random_spec(degree, n_taps, rng):
    poly = 1 << degree | rng.getrandbits(degree) | 1
    return LfsrSpec(degree, poly, rng.randrange(1, 1 << degree),
                    tuple(rng.sample(range(degree), min(n_taps, degree))))


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 20), r=st.integers(1, 8), extra=st.integers(0, 6),
       lanes=st.integers(1, 64), seed=st.integers(0, 2**32))
def test_encoder_and_receiver_match_reference(k, r, extra, lanes, seed):
    """A chain of words, some with flipped outputs or check bits, read identically."""
    rng = random.Random(seed)
    chip = channel(k, r, k + extra, rng)
    enc, ref_enc = StimulusEncoder(chip), ReferenceEncoder(chip)
    rec, ref_rec = OutputReceiver(chip), ReferenceReceiver(chip)
    subset = chip.out_codes[0][0]
    for _ in range(12):
        x = tuple(rng.getrandbits(lanes) for _ in range(k))
        in_step = rec.prev_check == enc.prev_check
        check = enc.send(x)
        assert check == ref_enc.send(x) and enc.prev_check == ref_enc.prev_check
        outputs = [rng.getrandbits(lanes) for _ in range(k + extra)]
        for j, v in zip(subset, x):
            outputs[j] = v
        if rng.random() < 0.3:
            outputs[rng.randrange(k + extra)] ^= 1 << rng.randrange(lanes)
        flip = rng.getrandbits(lanes) if rng.random() < 0.3 else 0
        i = rng.randrange(r)
        check = check[:i] + (check[i] ^ flip,) + check[i + 1:]
        got = rec.receive(tuple(outputs), check)
        assert got == ref_rec.receive(tuple(outputs), check)
        assert rec.prev_check == ref_rec.prev_check
        if in_step and x == tuple(outputs[j] for j in subset):
            assert got == flip  # a flipped check bit is seen in exactly its lanes


@settings(max_examples=150, deadline=None)
@given(degree=st.integers(1, 20), n_taps=st.integers(0, 8), lanes=st.integers(1, 64),
       seed=st.integers(0, 2**32))
def test_monitor_matches_reference(degree, n_taps, lanes, seed):
    """Clean and corrupted error signals, then a zero state that both refuse."""
    rng = random.Random(seed)
    spec = random_spec(degree, n_taps, rng)
    mask = (1 << lanes) - 1
    mon, ref = ErrorMonitor(spec, mask), ReferenceMonitor(spec, mask)
    for _ in range(40):
        received = [-(mon.state >> p & 1) & mask for p in spec.taps]
        if received and rng.random() < 0.3:
            received[rng.randrange(len(received))] ^= rng.getrandbits(lanes + 1)
        assert mon.check(received) == ref.check(received)
        assert (mon.state, mon.cycle) == (ref.state, ref.cycle)
    mon.state = ref.state = 0
    for m in (mon, ref):
        with pytest.raises(ZeroStateError):
            m.check([0] * spec.r)
        assert (m.state, m.cycle) == (0, 40)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 12), r=st.integers(1, 6), extra=st.integers(0, 4),
       seed=st.integers(0, 2**32))
def test_width_errors_leave_the_chain(k, r, extra, seed):
    """A word, check or signal of the wrong width raises WidthError and changes no state."""
    rng = random.Random(seed)
    chip = channel(k, r, k + extra, rng)
    enc, rec = StimulusEncoder(chip), OutputReceiver(chip)
    spec = random_spec(8, r, rng)
    mon = ErrorMonitor(spec)
    width = k + extra
    for bad in (k - 1, k + 1):
        with pytest.raises(WidthError, match=f"^expected {k} info bits, got {bad}$"):
            enc.send((0,) * bad)
    assert enc.prev_check == chip.initial_prev_in_check
    for outputs, check in (((0,) * (width - 1), (0,) * r), ((0,) * (width + 1), (0,) * r),
                           ((0,) * width, (0,) * (r - 1)), ((0,) * width, (0,) * (r + 1))):
        with pytest.raises(WidthError):
            rec.receive(outputs, check)
    assert rec.prev_check == chip.initial_prev_out_checks[0]
    with pytest.raises(WidthError):
        mon.check((0,) * (spec.r + 1))
    assert (mon.state, mon.cycle) == (spec.seed, 0)


def kernel_lookups():
    """Calls so far, hits and misses, on the three kernel caches."""
    caches = (parity._compile_check_bits, parity._compile_break, lfsr._compile_monitor_check)
    return sum(c.cache_info().hits + c.cache_info().misses for c in caches)


def test_built_or_saved_chip_compiles_no_kernel(full_adder, tmp_path):
    before = kernel_lookups()
    chip = build_protected_chip(full_adder, r=1, t=2, lfsr_spec=lfsr16(1), rng_seed=42)
    save_chip_bundle(chip, tmp_path / "bundle")
    chip = load_chip_bundle(tmp_path / "bundle")
    enc, rec, mon = StimulusEncoder(chip), OutputReceiver(chip), ErrorMonitor(chip.lfsr_spec)
    assert kernel_lookups() == before
    enc.send((0,) * 3)
    assert kernel_lookups() == before + 1
    rec.receive((0,) * 2, (0,))
    mon.check((0,))
    assert kernel_lookups() == before + 3


def test_kernels_are_built_once_per_code_and_spec():
    rng = random.Random(3)
    before = kernel_lookups()
    chip = channel(6, 3, 8, rng)
    spec = random_spec(10, 3, rng)
    (subset, code), = chip.out_codes
    enc, rec, mon = StimulusEncoder(chip), OutputReceiver(chip), ErrorMonitor(spec, 3)
    assert enc._chain is rec._breaks is mon._check is None  # nothing is fetched before use
    assert kernel_lookups() == before  # nor compiled
    enc.send((0,) * 6)
    rec.receive((0,) * 8, (0,) * 3)
    mon.check((0,) * 3)
    assert kernel_lookups() == before + 3
    # one kernel per matrix rows (and subset and width) or spec, shared by equal copies
    assert enc._chain is chip.h_in.chain_fn() is ParityCheckMatrix(chip.h_in.rows).chain_fn()
    assert rec._breaks is code.break_fn(subset, 8) is ParityCheckMatrix(code.rows).break_fn(subset, 8)
    twin = ErrorMonitor(replace(spec), 3)  # an equal spec, not the same object
    twin.check((0,) * 3)
    assert mon._check is twin._check and twin.spec is not spec
    # no kernel is kept on the code or the spec, so a pickled copy holds the fields only
    assert vars(code).keys() == {"rows"} and vars(spec).keys() == {f.name for f in fields(spec)}
    assert pickle.loads(pickle.dumps(chip.h_in)) == chip.h_in
    again = pickle.loads(pickle.dumps(spec))
    assert again == spec and vars(again) == vars(spec)
    assert ErrorMonitor(again).check([-(spec.seed >> p & 1) & 1 for p in spec.taps]) == 0


def test_list_rows_and_taps_key_the_kernel_caches():
    """Rows and taps given as lists are kept as tuples, so they can key a kernel."""
    code = ParityCheckMatrix([[1, 0, 1], [0, 1, 1]])
    assert code == ParityCheckMatrix(((1, 0, 1), (0, 1, 1)))
    assert code.check_bits((1, 1, 0)) == (1, 1)
    assert code.chain_fn() is ParityCheckMatrix(((1, 0, 1), (0, 1, 1))).chain_fn()
    assert code.break_fn((0, 1, 2), 3)((1, 1, 0), (1, 1), (0, 0)) == 0
    spec = LfsrSpec(8, 0x11D, 0x5A, [0, 3, 6])
    assert spec.taps == (0, 3, 6) and spec == LfsrSpec(8, 0x11D, 0x5A, (0, 3, 6))
    assert ErrorMonitor(spec).check([-(spec.seed >> p & 1) & 1 for p in spec.taps]) == 0
