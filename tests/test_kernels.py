"""Generated kernels are named: tracebacks and profiles show their source."""

import cProfile
import gc
import hashlib
import linecache
import pstats
import random
import re
import traceback

import pytest

from tpad import netlist, switchbox
from tpad.chip import ChipOptions, OutputReceiver, build_protected_chip
from tpad.lfsr import ErrorMonitor
from tpad.netlist import WidthError, parse_netlist, random_netlist
from tpad.parity import ParityCheckMatrix

from conftest import FULL_ADDER, lfsr16


@pytest.fixture(scope="module")
def adder_chip():
    return build_protected_chip(parse_netlist(FULL_ADDER), r=1, t=2, lfsr_spec=lfsr16(1),
                                rng_seed=42)


@pytest.fixture(scope="module")
def ram_chip():
    f = random_netlist(8, 30, 6, rng_seed=3, name="core")
    return build_protected_chip(f, r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=5,
                                options=ChipOptions(pipeline_stages=1, ram_depth=64))


def generated_source(fn) -> str:
    """fn's generated source, read back through linecache."""
    return "".join(linecache.getlines(fn.__code__.co_filename))


def formatted(call, error=WidthError) -> str:
    with pytest.raises(error) as info:
        call()
    return "".join(traceback.format_exception(info.value))


class TestTracebacks:
    """An error raised inside a kernel shows the kernel's label and its line."""

    def test_check_bits(self):
        code = ParityCheckMatrix(((1, 1, 0), (0, 1, 1)))
        text = formatted(lambda: code.check_bits((1, 0)))
        assert re.search(r'File "<tpad check_bits 2x3 #\d+>", line 3, in kernel', text)
        assert "raise WidthError(f'expected 3 info bits, got {len(info)}')" in text

    def test_receive(self, adder_chip):
        rec = OutputReceiver(adder_chip)
        text = formatted(lambda: rec.receive((0,), (0,)))
        assert re.search(r'File "<tpad break 1x2 #\d+>", line 3, in kernel', text)
        assert "raise WidthError(f'expected 2 output values, got {len(outputs)}')" in text

    def test_monitor_check(self):
        mon = ErrorMonitor(lfsr16(3))
        text = formatted(lambda: mon.check((0, 0)))
        assert re.search(r'File "<tpad monitor L=16 #\d+>", line 3, in check', text)
        assert "raise WidthError('error signal width mismatch')" in text

    def test_compiled_step(self):
        step = parse_netlist(FULL_ADDER).step_fn()
        text = formatted(lambda: step((0, 1), ()), ValueError)
        assert re.search(r'File "<tpad step 5 gates #\d+>", line 2, in step', text)
        assert re.search(r"\n +v0, v1, v2, = inp\n", text)


def test_profile_names_the_clock(ram_chip):
    ram_chip.reset(1)
    rng = random.Random(2)
    m, r = len(ram_chip.f.inputs), ram_chip.r
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(1000):
        ram_chip.cycle(tuple(rng.getrandbits(1) for _ in range(m)), (0,) * r,
                       ram_op=("idle", None, None))
    profile.disable()
    rows = pstats.Stats(profile).stats
    # dataclasses generate ChipCycleResult's and RamWord's methods from "<string>" too
    assert {fn for file, _, fn in rows if file == "<string>"} <= {"__init__", "__eq__", "__hash__"}
    files = {file for file, _, fn in rows if fn in ("cycle", "check")}
    assert any(f.startswith("<tpad clock core #") for f in files)
    assert any(f.startswith("<tpad monitor L=16 #") for f in files)


def test_dropped_region_steps_leave_linecache():
    first = next(netlist._kernel_ids)
    switchbox.insert_switchboxes(random_netlist(12, 150, 6, rng_seed=0), 2, rng_seed=1)
    last = next(netlist._kernel_ids)
    gc.collect()
    assert last - first > 20  # every round compiled a region step
    left = [name for name in list(linecache.cache) if name.startswith("<tpad union step")
            and first < int(re.search(r"#(\d+)>$", name).group(1)) < last]
    assert left == []


# sha256 of the generated source: the union step's as recorded before the
# kernels were named, the adder clock's as recorded when attacked cycles
# started running armed-slot fault steps, the RAM clock's as recorded when the
# quiet function body kept only f's output cone and a one-lane RAM op without
# a trojan stopped passing one,
# the full adder's step as recorded before every step's statements came from
# inline_step, and its fault step as recorded when every step started
# unpacking its inputs and state whole
SOURCE_SHA256 = {
    "adder clock": "bee4e24dc3b6efb37577ba791a504f3e4002aa153beb22de992d2d008858bab7",
    "ram clock": "ff32b2123737a65cec0b989ef4b91c640536581af24196493952498fd3633944",
    "union step": "fbefa44fec6fb7e66f57b13688c5b2efe81b810d4c0ee46b183384d5da4b6d00",
    "step": "7a8f014ea789f985e507a3dff135e30886e500c5ba332d9259eca483ba4cbbb5",
    "fault step": "8f1180287887d5a0f20ede67c89e32d26463fe0019181dcca38b3c571e762135",
}


@pytest.mark.parametrize("name", sorted(SOURCE_SHA256))
def test_generated_source_unchanged(name, adder_chip, ram_chip):
    if name == "union step":
        obf = switchbox.insert_switchboxes(random_netlist(8, 40, 4, rng_seed=1), 2, rng_seed=2)
        fn = switchbox.union_step(obf.inputs, obf.outputs, obf.gates, obf.switchboxes)
    elif name == "step":
        fn = parse_netlist(FULL_ADDER).step_fn()
    elif name == "fault step":
        adder = parse_netlist(FULL_ADDER)
        fn = adder.fault_step_fn(adder.wires)[0]
    else:
        chip = adder_chip if name == "adder clock" else ram_chip
        chip.cycle((0,) * len(chip.f.inputs), chip.prev_in_check)  # compiles the clock
        fn = chip._cycle_fn
    gc.collect()  # the clock's source outlives the factory that made it
    assert hashlib.sha256(generated_source(fn).encode()).hexdigest() == SOURCE_SHA256[name]
