"""The lane engine against the scalar one.

A chip runs W lanes at once, bit j of every value belonging to lane j. These
tests run the same sessions one lane at a time and in lanes and require the
same bits, and keep run_campaign's former per-trial loop as the scalar
reference for batched campaigns.
"""

import hashlib
import random
from types import MethodType, SimpleNamespace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tpad.attacks
import tpad.netlist
from tpad.attacks import (
    CAMPAIGN_BATCH,
    AttackDescriptor,
    DetectionReport,
    TrialRecord,
    _stimulus,
    compile_attack,
    run_campaign,
    uniform_output_flip_attacks,
)
from tpad.chip import (
    ChipOptions,
    OutputReceiver,
    ProtectedChip,
    StimulusEncoder,
    build_protected_chip,
)
from tpad.lanes import pack_lanes
from tpad.netlist import Netlist, WidthError, parse_netlist, random_netlist
from tpad.parity import ParityCheckMatrix, sample_parity_code
from tpad.ram import EXPECTED_SYMPTOM, RAM_TROJANS, ProtectedRam
from tpad.rng import as_rng, random_bits

from conftest import FULL_ADDER, lfsr16
from test_ram import STAGES, WORKED_ROWS


def scalar_campaign(chip, attack_generator, trials, cycles_per_trial, rng_seed=None):
    """run_campaign as it ran before lanes: each trial armed, then its control."""
    rng = as_rng(rng_seed)
    false_positives = 0
    records: list[TrialRecord] = []
    m = len(chip.f.inputs)
    for trial in range(trials):
        atk = attack_generator(rng)
        stim_seed = rng.getrandbits(64)
        session_seed = rng.getrandbits(64)
        effect = compile_attack(chip, atk, rng, cycles_per_trial) if atk is not None else None

        hit = control_fired = False
        first_cycle: Optional[int] = None
        for armed in (True, False):
            chip.clear_attacks()
            chip.reset(session_seed)
            if armed and effect is not None:
                chip.install_attack(effect)
            enc = StimulusEncoder(chip)
            rec = OutputReceiver(chip)
            srng = random.Random(stim_seed)
            fired = False
            for cyc in range(cycles_per_trial):
                x = tuple(srng.getrandbits(1) for _ in range(m))
                res = chip.cycle(x, enc.send(x), ram_op=ram_traffic(chip, srng))
                bad = res.monitor_attack or res.decode_attack
                bad = rec.receive(res.outputs, res.out_check) or bad
                if bad:
                    fired = True
                    if armed and first_cycle is None:
                        first_cycle = cyc
            if armed:
                hit = fired
            else:
                control_fired = fired
        chip.clear_attacks()
        if effect is not None:
            records.append(TrialRecord(trial, effect.kind, hit, first_cycle))
        else:
            records.append(TrialRecord(trial, "none", False, None))
        false_positives += control_fired
    return DetectionReport(false_positives, records)


def ram_traffic(chip, rng):
    """One cycle's memory operation, as run_campaign draws it (None without a RAM)."""
    if chip.ram is None:
        return None
    roll = rng.random()
    if roll < 0.4:
        return ("write", rng.randrange(chip.ram.depth), rng.randrange(1 << chip.ram.word_width))
    if roll < 0.8:
        return ("read", rng.randrange(chip.ram.depth), None)
    return ("idle", None, None)


# -- chips ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def adder_r1():
    return build_protected_chip(parse_netlist(FULL_ADDER), r=1, t=2, lfsr_spec=lfsr16(1),
                                rng_seed=42)


@pytest.fixture(scope="module")
def wide_pipelined():
    f = random_netlist(10, 48, 16, rng_seed=21, name="wide")
    return build_protected_chip(f, r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=33,
                                options=ChipOptions(pipeline_stages=1))


@pytest.fixture(scope="module")
def two_subsets():
    f = random_netlist(8, 30, 6, rng_seed=3, name="core")
    return build_protected_chip(f, r=2, t=2, lfsr_spec=lfsr16(2), rng_seed=5,
                                options=ChipOptions(output_subsets=((0, 1, 2, 3), (2, 3, 4, 5))))


@pytest.fixture(scope="module")
def ram_pipelined():
    f = random_netlist(8, 30, 6, rng_seed=3, name="core")
    return build_protected_chip(f, r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=5,
                                options=ChipOptions(pipeline_stages=1, ram_depth=64))


CHIPS = ("adder_r1", "wide_pipelined", "two_subsets", "ram_pipelined")


def gate_names(net, count: int) -> list[str]:
    """Names of `count` gate outputs spread over the netlist."""
    outs = [g.out for g in net.gates]
    step = max(1, len(outs) // count)
    return [net.wire_name(w) for w in outs[::step][:count]]


def attack_pool(chip) -> list[AttackDescriptor]:
    """Every attack kind a chip campaign runs, with repeated gate targets."""
    fg = gate_names(chip.f, 2)
    dg = gate_names(chip.resolved, 2)
    k = len(chip.f.outputs)
    pool = [
        AttackDescriptor("logic", "fout:*", ("at_cycle", -1), "multi:2"),
        AttackDescriptor("pin", "input:*", ("at_cycle", -1), "pins:0"),
        AttackDescriptor("pin", "recv_check:0", ("at_cycle", -1)),
        AttackDescriptor("pin", f"output:{k - 1}", ("at_cycle", -1)),
        AttackDescriptor("reliability", "fout:0", ("at_cycle", -1), "stuck1"),
        AttackDescriptor("reliability", f"fgate:{fg[0]}", ("at_cycle", -1), "stuck0"),
        AttackDescriptor("electrical", f"fout:{k // 2}", ("random", 0.3), "flip"),
        AttackDescriptor("electrical", f"dgate:{dg[1]}", ("random", 0.5), "stuck1"),
        AttackDescriptor("decoupling_stored_state", "-", ("after_cycle", 2), "replay:2"),
        AttackDescriptor("decoupling_stored_state", "-", ("after_cycle", 1), "replay:1"),
        AttackDescriptor("decoupling_stored_state", "-", ("random", 0.4), "replay:3"),
        AttackDescriptor("decoupling_parity_null", "-", ("after_cycle", 1)),
    ]
    # the same wire under flip, stuck0 and stuck1, so lanes of one batch
    # override one wire in different modes
    for net_kind, name in (("fgate", fg[1]), ("dgate", dg[0])):
        for mode in ("flip", "stuck0", "stuck1"):
            pool.append(AttackDescriptor("logic", f"{net_kind}:{name}", ("at_cycle", -1), mode))
    if chip.ram is not None:  # every RAM trojan row, permanent, from a random cycle and flaky
        for i, row in enumerate(RAM_TROJANS):
            trigger = (("always",), ("at_cycle", -1), ("random", 0.4))[i % 3]
            pool.append(AttackDescriptor("logic", f"ram:{row}", trigger))
    return pool


# -- campaigns -------------------------------------------------------------------------


class TestCampaignDifferential:
    """run_campaign's batches give the scalar loop's records and CSV."""

    @pytest.mark.parametrize("chip_name", CHIPS)
    def test_mixed_attacks(self, request, chip_name):
        chip = request.getfixturevalue(chip_name)
        pool = attack_pool(chip)
        # two batches, the second partial; then one partial batch
        for seed, trials in ((1, CAMPAIGN_BATCH + 22), (2, 7)):
            args = (chip, lambda rng: rng.choice(pool), trials, 6)
            lanes = run_campaign(*args, rng_seed=seed)
            scalar = scalar_campaign(*args, rng_seed=seed)
            assert lanes.records == scalar.records
            assert lanes.to_csv() == scalar.to_csv()
            assert lanes.by_kind == scalar.by_kind

    @pytest.mark.parametrize("chip_name", CHIPS)
    @pytest.mark.parametrize("gen", [uniform_output_flip_attacks(2),
                                     lambda rng: AttackDescriptor("pin", "input:*", ("at_cycle", -1),
                                                                  "pins:0")],
                             ids=["fout-multibit", "input-pins"])
    def test_generators(self, request, chip_name, gen):
        chip = request.getfixturevalue(chip_name)
        lanes = run_campaign(chip, gen, 100, 4, rng_seed=3)
        assert lanes.to_csv() == scalar_campaign(chip, gen, 100, 4, rng_seed=3).to_csv()

    def test_attack_free_trials(self, wide_pipelined):
        def gen(rng):
            return None if rng.random() < 0.5 else AttackDescriptor(
                "logic", "fout:*", ("at_cycle", -1), "multi:1:1")

        lanes = run_campaign(wide_pipelined, gen, 80, 5, rng_seed=4)
        assert lanes.to_csv() == scalar_campaign(wide_pipelined, gen, 80, 5, rng_seed=4).to_csv()

    @pytest.mark.parametrize("chip_name", ["two_subsets", "ram_pipelined"])
    def test_batch_size_changes_nothing(self, request, monkeypatch, chip_name):
        chip = request.getfixturevalue(chip_name)
        pool = attack_pool(chip)
        csvs = set()
        for batch in (1, 5, 64, 256):
            monkeypatch.setattr(tpad.attacks, "CAMPAIGN_BATCH", batch)
            csvs.add(run_campaign(chip, lambda rng: rng.choice(pool), 70, 6, rng_seed=9).to_csv())
        assert len(csvs) == 1

    def test_fault_steps_compiled_per_batch_not_per_cycle(self, wide_pipelined, monkeypatch):
        compiled = []  # the slot count of every fault step compiled

        def spy(*args, faults=None, **kwargs):
            if faults is not None:
                compiled.append(len(faults))
            return compile_step(*args, faults=faults, **kwargs)

        compile_step = tpad.netlist._compile_step
        monkeypatch.setattr(tpad.netlist, "_compile_step", spy)
        Netlist.fault_step_fn.cache_clear()
        pool = attack_pool(wide_pipelined)
        trials, cycles = 1000, 8
        run_campaign(wide_pipelined, lambda rng: rng.choice(pool), trials, cycles, rng_seed=5)
        batches = -(-trials // CAMPAIGN_BATCH)
        # at most one armed step per netlist and batch, each slotted only on
        # the overridden wires (every output of f, two gates each side)
        assert 1 <= len(compiled) <= 2 * batches < batches * cycles
        assert max(compiled) <= len(wide_pipelined.f.outputs) + 2

    def test_ram_chip_runs_trials_in_lanes(self):
        f = random_netlist(6, 20, 4, rng_seed=51, name="ramhost")
        chip = build_protected_chip(f, r=2, t=2, lfsr_spec=lfsr16(2), rng_seed=52,
                                    options=ChipOptions(ram_depth=32))
        rows = ("read_wrong_data", "does_not_write", "write_instead_of_idle")
        pool = [AttackDescriptor("logic", f"ram:{row}", ("always",)) for row in rows]
        pool.append(AttackDescriptor("logic", "fout:*", ("at_cycle", -1), "multi:2"))
        args = (chip, lambda rng: rng.choice(pool), 30, 8)
        assert run_campaign(*args, rng_seed=6).to_csv() == scalar_campaign(*args, rng_seed=6).to_csv()
        # several lanes: a memory each, all at the initial cells, one op per lane
        chip.ram.cycle("write", 3, 0xBEEF)
        chip.reset([1, 2])
        assert chip.rams[0] is chip.ram and chip.rams[1] is not chip.ram
        fresh = ProtectedRam(chip.ram.depth, chip.ram.word_width, code=chip.h_mem)
        assert chip.rams[0].cells == chip.rams[1].cells == fresh.cells
        with pytest.raises(WidthError, match="RAM op"):
            chip.cycle((0,) * 6, (0, 0), ram_op=("read", 3, None))
        res = chip.cycle((0,) * 6, StimulusEncoder(chip).send((0,) * 6),
                         ram_op=[("write", 3, 7), ("read", 3, None)])
        assert [r.data_out for r in res.ram] == [0, 0]
        assert (chip.rams[0].cells[3].data, chip.rams[1].cells[3].data) == (7, 0)


# -- cycles ----------------------------------------------------------------------------


def run_scalar_lane(chip, seed, effects, stimulus, ram_ops=None):
    """One session at one lane; per cycle the values a lane is compared on.

    With memory operations, one per cycle, the RAM's result joins them.
    """
    chip.clear_attacks()
    chip.reset(seed)
    for eff in effects:
        chip.install_attack(eff)
    enc, rec = StimulusEncoder(chip), OutputReceiver(chip)
    out = []
    for c, x in enumerate(stimulus):
        res = chip.cycle(x, enc.send(x), ram_op=ram_ops[c] if ram_ops else None)
        row = (res.outputs, res.out_checks, res.error_signal, res.monitor_attack,
               res.decode_attack, rec.receive(res.outputs, res.out_check))
        out.append(row + (res.ram,) if ram_ops else row)
    chip.clear_attacks()
    return out


def lane_bits(value, j: int):
    """Lane j of a lane int or of a nested tuple of them."""
    if isinstance(value, int):
        return (value >> j) & 1
    return tuple(lane_bits(v, j) for v in value)


def sessions(chip, count: int, cycles: int = 12, seed: int = 0) -> list:
    """Seeded one-lane sessions: (session seed, up to three effects, stimulus)."""
    rng = random.Random(seed)
    pool = attack_pool(chip)
    # a later stored-state attack that engages before it can capture stops
    # an earlier one's replay until it does
    two_stored = [AttackDescriptor("decoupling_stored_state", "-", ("after_cycle", 1), "replay:1"),
                  AttackDescriptor("decoupling_stored_state", "-", ("after_cycle", 3), "replay:6")]
    m = len(chip.f.inputs)
    out = []
    for i in range(count):
        picks = two_stored if i == 0 else [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        effects = [compile_attack(chip, p, rng, cycles) for p in picks]
        stimulus = [tuple(rng.getrandbits(1) for _ in range(m)) for _ in range(cycles)]
        out.append((rng.getrandbits(32), effects, stimulus))
    return out


def digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(tuple(int(v) if isinstance(v, int) else v for v in row)).encode())
    return h.hexdigest()


# sha256 of the one-lane sessions' per-cycle values, recorded with the scalar
# chip model that came before lanes
GOLDEN = {
    "wide_pipelined": "8b8b3949161af9202fb7313b8eb714f118bbe57880229d8191bf73574105e6b5",
    "two_subsets": "48fa0df79d4f69cd410e57f07f032492b40999e14015e99bc6f9ef34666d7b3d",
}


def clean_ram_session_digest(cycles: int = 20_000) -> str:
    """sha256 of a clean session on the wide chip with a 64-word RAM.

    The traffic is 40% writes, 40% reads and 20% idles; per cycle the hash
    takes the pads, every subset's check bits, the error signal, the
    monitor, decoder and receiver masks, and the RAM's data_out and symptoms.
    """
    f = random_netlist(10, 48, 16, rng_seed=21, name="wide")
    chip = build_protected_chip(f, r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=33,
                                options=ChipOptions(pipeline_stages=1, ram_depth=64))
    chip.reset(1505)
    enc, rec = StimulusEncoder(chip), OutputReceiver(chip)
    rng = random.Random(1506)
    h = hashlib.sha256()
    for _ in range(cycles):
        x = tuple(rng.getrandbits(1) for _ in range(10))
        res = chip.cycle(x, enc.send(x), ram_op=ram_traffic(chip, rng))
        h.update(repr((res.outputs, res.out_checks, res.error_signal, res.monitor_attack,
                       res.decode_attack, rec.receive(res.outputs, res.out_check),
                       res.ram.data_out, res.ram.symptoms)).encode())
    return h.hexdigest()


# recorded with the hand-written cycle and per-call check bits
RAM_SESSION_GOLDEN = "fcd1244e7ea348f81f53e5585915de075c718c0eaba5faa33acd7a435f7d53c2"


def test_clean_ram_session_matches_golden():
    assert clean_ram_session_digest() == RAM_SESSION_GOLDEN


class TestCycleDifferential:
    """Every lane of a W-lane run equals that session run alone."""

    @pytest.mark.parametrize("chip_name", sorted(GOLDEN))
    def test_sessions_match_golden_and_lanes(self, request, chip_name):
        chip = request.getfixturevalue(chip_name)
        runs = sessions(chip, 24)
        scalar = [run_scalar_lane(chip, seed, effects, stim) for seed, effects, stim in runs]
        assert digest(row for rows in scalar for row in rows) == GOLDEN[chip_name]

        chip.reset([seed for seed, _, _ in runs])
        for k in range(3):
            for j, (_, effects, _) in enumerate(runs):
                if k < len(effects):
                    chip.install_attack(effects[k], 1 << j)
        enc, rec = StimulusEncoder(chip), OutputReceiver(chip)
        try:
            for c in range(12):
                x = pack_lanes([stim[c] for _, _, stim in runs])
                res = chip.cycle(x, enc.send(x))
                got = (res.outputs, res.out_checks, res.error_signal, res.monitor_attack,
                       res.decode_attack, rec.receive(res.outputs, res.out_check))
                assert [lane_bits(got, j) for j in range(len(runs))] == [s[c] for s in scalar]
        finally:
            chip.clear_attacks()

    @pytest.mark.parametrize("chip_name", CHIPS)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_lanes_equal_scalar_runs(self, request, chip_name, data):
        chip = request.getfixturevalue(chip_name)
        pool = attack_pool(chip)
        cycles = 10
        width = data.draw(st.integers(1, 6), label="lanes")
        seeds = data.draw(st.lists(st.integers(0, 3), min_size=width, max_size=width),
                          label="session seeds")  # repeats share draws at reset
        rng = random.Random(data.draw(st.integers(0, 2**32), label="rng"))
        # up to three attacks per lane; two in one lane may override one wire
        picks = [data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=3), label=f"lane {j}")
                 for j in range(width)]
        effects = [[compile_attack(chip, pool[p], rng, cycles) for p in lane] for lane in picks]
        m = len(chip.f.inputs)
        stimuli = [[tuple(rng.getrandbits(1) for _ in range(m)) for _ in range(cycles)]
                   for _ in range(width)]
        ops = None  # with a RAM, each lane's memory traffic
        if chip.ram is not None:
            ops = [[ram_traffic(chip, rng) for _ in range(cycles)] for _ in range(width)]

        expected = [run_scalar_lane(chip, seeds[j], effects[j], stimuli[j], ops and ops[j])
                    for j in range(width)]

        chip.clear_attacks()
        chip.reset(seeds)
        for k in range(3):  # lane j's attacks keep their order, as in its scalar run
            for j in range(width):
                if k < len(effects[j]):
                    chip.install_attack(effects[j][k], 1 << j)
        enc, rec = StimulusEncoder(chip), OutputReceiver(chip)
        try:
            for c in range(cycles):
                x = pack_lanes([stimuli[j][c] for j in range(width)])
                res = chip.cycle(x, enc.send(x), ram_op=ops and [lane[c] for lane in ops])
                got = (res.outputs, res.out_checks, res.error_signal, res.monitor_attack,
                       res.decode_attack, rec.receive(res.outputs, res.out_check))
                for j in range(width):
                    lane = lane_bits(got, j) + ((res.ram[j],) if ops else ())
                    assert lane == expected[j][c], (c, j)
        finally:
            chip.clear_attacks()

    @pytest.mark.parametrize("first_seed", [7, 20, 40])
    def test_one_attack_in_several_lanes(self, wide_pipelined, first_seed):
        """An effect armed in a lane mask acts in those lanes and no other.

        Its random trigger engages lanes 0 and 2 on cycles of their own, so
        each lane captures its own stored state.
        """
        chip = wide_pipelined
        eff = compile_attack(chip, AttackDescriptor("decoupling_stored_state", "-",
                                                    ("random", 0.3), "replay:2"),
                             random.Random(0), 12)
        rng = random.Random(first_seed)
        stimuli = [[tuple(rng.getrandbits(1) for _ in range(10)) for _ in range(12)]
                   for _ in range(3)]
        seeds = [first_seed + j for j in range(3)]
        expected = [run_scalar_lane(chip, seeds[j], [eff] if j != 1 else [], stimuli[j])
                    for j in range(3)]
        chip.reset(seeds)
        chip.install_attack(eff, 0b101)
        enc, rec = StimulusEncoder(chip), OutputReceiver(chip)
        try:
            for c in range(12):
                x = pack_lanes([s[c] for s in stimuli])
                res = chip.cycle(x, enc.send(x))
                got = (res.outputs, res.out_checks, res.error_signal, res.monitor_attack,
                       res.decode_attack, rec.receive(res.outputs, res.out_check))
                assert [lane_bits(got, j) for j in range(3)] == [e[c] for e in expected]
        finally:
            chip.clear_attacks()

    def test_lane_mask_must_fit(self, adder_r1):
        adder_r1.reset([1, 2])
        with pytest.raises(ValueError, match="lane mask"):
            adder_r1.install_attack(compile_attack(adder_r1, AttackDescriptor("pin", "input:0"),
                                                   random.Random(0), 8), 0b100)
        adder_r1.clear_attacks()


# -- bulk draws ------------------------------------------------------------------------


def scalar_stimulus(chip, seed, cycles):
    """A trial's stimulus drawn bit by bit, as scalar_campaign draws it."""
    srng = random.Random(seed)
    bits, ram_ops = [], []
    for _ in range(cycles):
        bits += [srng.getrandbits(1) for _ in chip.f.inputs]
        ram_ops.append(ram_traffic(chip, srng))
    return bits, ram_ops


def oracle_pack(rows):
    """Column i of the rows as a lane int, bit by bit."""
    return [sum(row[i] << j for j, row in enumerate(rows)) for i in range(len(rows[0]))]


def stand_in(m, ram_depth):
    """What _stimulus reads of a chip: its input count and its RAM's draw, at its geometry."""
    ram = None if ram_depth is None else SimpleNamespace(depth=ram_depth, word_width=16)
    if ram is not None:
        ram.random_op = MethodType(ProtectedRam.random_op, ram)
    return SimpleNamespace(f=SimpleNamespace(inputs=range(m)), ram=ram)


class TestBulkDraws:
    """One getrandbits call per draw gives the bits, and the generator state,
    of a getrandbits(1) call per bit (CPython's Mersenne Twister layout)."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 600))
    def test_random_bits_equal_single_draws(self, seed, count):
        bulk, single = random.Random(seed), random.Random(seed)
        bits = random_bits(bulk, count)
        assert list(bits) == [single.getrandbits(1) for _ in range(count)]
        assert bulk.getstate() == single.getstate()

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 40), cycles=st.integers(0, 12), seed=st.integers(0, 2**64 - 1),
           ram_depth=st.sampled_from([None, 16, 64]))
    def test_stimulus_equals_bit_loop(self, m, cycles, seed, ram_depth):
        chip = stand_in(m, ram_depth)
        bits, ram_ops = _stimulus(chip, seed, cycles)
        assert (list(bits), ram_ops) == scalar_stimulus(chip, seed, cycles)

    @pytest.mark.parametrize("chip_name", CHIPS)
    @settings(max_examples=20, deadline=None)
    @given(seeds=st.lists(st.integers(0, 5), min_size=1, max_size=9))
    def test_reset_chain_equals_bit_lists(self, request, chip_name, seeds):
        chip = request.getfixturevalue(chip_name)
        chip.reset(seeds)
        n_chain = chip.r * (1 + len(chip.out_codes))
        rows, trigger_seeds = [], []
        for seed in seeds:
            rng = random.Random(seed)
            rows.append([rng.getrandbits(1) for _ in range(n_chain)])
            trigger_seeds.append(rng.getrandbits(64))
        start = oracle_pack(rows)
        assert chip.prev_in_check == tuple(start[:chip.r])
        assert chip.prev_out_checks == tuple(tuple(start[i:i + chip.r])
                                             for i in range(chip.r, n_chain, chip.r))
        assert chip._trigger_seeds == trigger_seeds

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), lanes=st.integers(1, 300), width=st.integers(0, 40))
    def test_pack_lanes_equals_bitwise_transpose(self, data, lanes, width):
        words = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=lanes, max_size=lanes))
        rows = [[w >> i & 1 for i in range(width)] for w in words]
        assert pack_lanes(rows) == oracle_pack(rows)
        assert pack_lanes([bytes(row) for row in rows]) == oracle_pack(rows)


# -- per-lane memories -----------------------------------------------------------------


@pytest.fixture(scope="module")
def worked_ram_chip():
    """A chip whose 256-word RAM uses the worked memory code of tests/test_ram.py."""
    f = random_netlist(6, 20, 4, rng_seed=8, name="host")
    c = build_protected_chip(f, r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=9,
                             options=ChipOptions(pipeline_stages=1, ram_depth=256))
    return ProtectedChip(c.f, c.ocp, c.detection, c.h_logic, c.h_in, c.out_codes, c.lfsr_spec,
                         c.t, c.options, ParityCheckMatrix(WORKED_ROWS))


def staged_run(chip, seeds, rows, armed=None):
    """Lane j stages trojan row rows[j] (as in tests/test_ram.py), its last step
    on the last cycle, with the trojan armed unless j is left out of `armed`;
    per cycle the RAM results and the monitor's lane mask."""
    cycles = max(len(stage) for stage in STAGES.values())
    ops = [[None] * (cycles - len(STAGES[row])) + [step[:3] for step in STAGES[row]]
           for row in rows]
    chip.clear_attacks()
    chip.reset(seeds)
    for j, row in enumerate(rows):
        if armed is not None and j not in armed:
            continue
        armed_step = [step[3] for step in STAGES[row]].index(row)
        at = ("at_cycle", cycles - len(STAGES[row]) + armed_step)
        chip.install_attack(compile_attack(chip, AttackDescriptor("logic", f"ram:{row}", at),
                                           random.Random(0), cycles), 1 << j)
    enc = StimulusEncoder(chip)
    streams = [random.Random(seed) for seed in seeds]  # lane j's inputs come from its seed
    out = []
    try:
        for c in range(cycles):
            x = pack_lanes([[g.getrandbits(1) for _ in chip.f.inputs] for g in streams])
            if len(rows) > 1:
                res = chip.cycle(x, enc.send(x), ram_op=[lane[c] for lane in ops])
                out.append((res.ram, res.monitor_attack))
            else:
                res = chip.cycle(x, enc.send(x), ram_op=ops[0][c])
                out.append(([res.ram], res.monitor_attack))
    finally:
        chip.clear_attacks()
    return out


class TestRamLanes:
    def test_criterion_4_per_lane(self, worked_ram_chip):
        """Each trojan row armed in its own lane of one chip gives that lane the
        symptoms and data_out of the row run at one lane, and its exact symptom."""
        chip = worked_ram_chip
        lanes = staged_run(chip, list(range(len(RAM_TROJANS))), RAM_TROJANS)
        for j, row in enumerate(RAM_TROJANS):
            alone = staged_run(chip, [j], [row])
            got = [(rams[j], (monitor >> j) & 1) for rams, monitor in lanes]
            assert got == [(rams[0], monitor) for rams, monitor in alone], row
        last = lanes[-1][0]
        assert [res.symptoms for res in last] == [(EXPECTED_SYMPTOM[row],) for row in RAM_TROJANS]

    def test_monitor_flags_exactly_the_reporting_lanes(self, worked_ram_chip):
        armed = range(0, len(RAM_TROJANS), 2)
        run = staged_run(worked_ram_chip, list(range(len(RAM_TROJANS))), RAM_TROJANS, armed)
        for rams, monitor in run:
            reports = sum(1 << j for j, res in enumerate(rams) if res is not None and res.attack)
            assert monitor == reports
        assert run[-1][1] == sum(1 << j for j in armed)


# -- lane-safe helpers -----------------------------------------------------------------


class TestCheckBitsOnLanes:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 24), r=st.integers(1, 6), width=st.integers(1, 130),
           seed=st.integers(0, 2**32))
    def test_lane_ints_equal_per_lane_scalar(self, k, r, width, seed):
        h = sample_parity_code(k, r, seed)
        rng = random.Random(seed)
        words = [tuple(rng.getrandbits(1) for _ in range(k)) for _ in range(width)]
        lanes = h.check_bits(pack_lanes(words))
        for j, word in enumerate(words):
            assert lane_bits(lanes, j) == h.check_bits(word)

    def test_pack_lanes_transposes(self):
        assert pack_lanes([(1, 0, 1), (0, 0, 1), (1, 1, 1)]) == [0b101, 0b100, 0b111]
