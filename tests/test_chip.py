import hashlib
import json
import linecache
import random
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import tpad.attacks
from tpad import chip as chip_module
from tpad.attacks import AttackDescriptor, compile_attack, run_campaign
from tpad.chip import (
    AttackEffect,
    ChipCycleResult,
    ChipOptions,
    OutputReceiver,
    ProtectedChip,
    StimulusEncoder,
    build_protected_chip,
    closed_loop,
    load_chip_bundle,
    save_chip_bundle,
)
from tpad.cli import main
from tpad.lanes import select
from tpad.lfsr import ZeroStateError, step_lfsr
from tpad.netlist import (Gate, WidthError, eval_wires, output_cone, parse_netlist, parse_text,
                          random_netlist, serialize_netlist)
from tpad.parity import ParityCheckMatrix, format_matrix, sample_parity_code
from tpad.ram import RAM_TROJANS, ProtectedRam
from tpad.switchbox import UnsatisfiableError, serialize_obfuscated
from tpad.system import SystemTopology, run_system

from conftest import checker_output, combine_error_signals, lfsr16


def bits_msb(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def sender(h, prev):
    """A trusted sender encoding with h from chain start prev."""
    return StimulusEncoder(SimpleNamespace(h_in=h, initial_prev_in_check=prev))


def receiver(h, prev):
    """A trusted receiver decoding words of h's width from chain start prev."""
    return OutputReceiver(SimpleNamespace(f=SimpleNamespace(outputs=range(h.k)),
                                          out_codes=[(tuple(range(h.k)), h)],
                                          initial_prev_out_checks=[prev]))


class TestOutputEncoding:
    def test_worked_hex_example(self):
        """Raw check 110101, previous 010101, transmitted 100000."""
        h = ParityCheckMatrix(tuple(bits_msb(1 << (5 - i), 6) for i in range(6)))
        enc = sender(h, bits_msb(0b010101, 6))
        check = enc.send(bits_msb(0b110101, 6))
        assert check == bits_msb(0b100000, 6)
        assert enc.prev_check == check

    def test_zero_chain(self):
        h = sample_parity_code(4, 2, 0)
        check = sender(h, (0, 0)).send((0, 0, 0, 0))
        assert check == (0, 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_chain_identity(self, seed):
        """check(t) xor check(t-1) equals the raw parity of outputs(t)."""
        rng = random.Random(seed)
        h = sample_parity_code(6, 3, seed)
        enc = sender(h, tuple(rng.getrandbits(1) for _ in range(3)))
        prev = enc.prev_check
        for _ in range(16):
            word = tuple(rng.getrandbits(1) for _ in range(6))
            check = enc.send(word)
            raw = h.check_bits(word)
            assert tuple(a ^ b for a, b in zip(check, prev)) == raw
            prev = check


class TestInputDecoding:
    def test_worked_hex_example(self):
        """Inputs FA, received check 1, previous B: expected A matches actual A."""
        rows = (
            tuple(1 if j in {0, 1, 3} else 0 for j in range(8)),
            tuple(1 if j in {2, 4, 5} else 0 for j in range(8)),
            tuple(1 if j in {6} else 0 for j in range(8)),
            tuple(1 if j in {5, 7} else 0 for j in range(8)),
        )
        h = ParityCheckMatrix(rows)
        inputs = bits_msb(0xFA, 8)
        assert h.check_bits(inputs) == bits_msb(0xA, 4)
        rec = receiver(h, bits_msb(0xB, 4))
        attack = rec.receive(inputs, bits_msb(0x1, 4))
        assert not attack
        assert rec.prev_checks == (bits_msb(0x1, 4),)

    def test_flipped_input_bit_detected(self):
        h = sample_parity_code(8, 4, 3)
        rng = random.Random(1)
        prev = tuple(rng.getrandbits(1) for _ in range(4))
        enc, rec = sender(h, prev), receiver(h, prev)
        x = tuple(rng.getrandbits(1) for _ in range(8))
        check = enc.send(x)
        tampered = (x[0] ^ 1,) + x[1:]
        attack = rec.receive(tampered, check)
        assert attack

    def test_lockstep_clean_channel(self):
        h = sample_parity_code(8, 3, 9)
        rng = random.Random(2)
        start = tuple(rng.getrandbits(1) for _ in range(3))
        enc, rec = sender(h, start), receiver(h, start)
        for _ in range(10_000):
            x = tuple(rng.getrandbits(1) for _ in range(8))
            check = enc.send(x)
            attack = rec.receive(x, check)
            assert not attack

    def test_stale_pair_replay_detected(self):
        """Individually valid but out-of-chain (outputs, check) pairs fail."""
        h = sample_parity_code(8, 3, 4)
        rng = random.Random(3)
        start = tuple(rng.getrandbits(1) for _ in range(3))
        enc, rec = sender(h, start), receiver(h, start)
        seen = []
        for _ in range(6):
            x = tuple(rng.getrandbits(1) for _ in range(8))
            check = enc.send(x)
            attack = rec.receive(x, check)
            assert not attack
            seen.append((x, check))
        stale_x, stale_check = seen[1]
        attack = rec.receive(stale_x, stale_check)
        assert attack  # chain context moved on; replay without it fails


@pytest.fixture(scope="module")
def adder_chip():
    from conftest import FULL_ADDER

    f = parse_netlist(FULL_ADDER)
    return build_protected_chip(f, r=1, t=2, lfsr_spec=lfsr16(1), rng_seed=42)


@pytest.fixture(scope="module")
def pipelined_ram_chip():
    f = random_netlist(8, 30, 6, rng_seed=3, name="core")
    return build_protected_chip(
        f, r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=5,
        options=ChipOptions(pipeline_stages=1, ram_depth=64),
    )


def clean_run(chip, cycles, seed, with_ram=False):
    chip.clear_attacks()
    chip.reset(seed)
    enc = StimulusEncoder(chip)
    rec = OutputReceiver(chip)
    rng = random.Random(seed + 1)
    m = len(chip.f.inputs)
    fires = 0
    for _ in range(cycles):
        x = tuple(rng.getrandbits(1) for _ in range(m))
        ram_op = None
        if with_ram and chip.ram is not None:
            kind = rng.choice(("read", "write", "idle"))
            if kind == "write":
                ram_op = ("write", rng.randrange(chip.ram.depth), rng.randrange(1 << 16))
            elif kind == "read":
                ram_op = ("read", rng.randrange(chip.ram.depth), None)
            else:
                ram_op = ("idle", None, None)
        res = chip.cycle(x, enc.send(x), ram_op=ram_op)
        fires += res.monitor_attack
        fires += res.decode_attack
        fires += rec.receive(res.outputs, *res.out_checks)
        if res.ram is not None:
            fires += res.ram.attack
    return fires


class TestRamReset:
    def test_reset_computes_no_check_bits(self, pipelined_ram_chip, monkeypatch):
        """The cells' initial check bits are computed once per chip, not per reset."""
        calls = []
        check_bits = ParityCheckMatrix.check_bits
        monkeypatch.setattr(ParityCheckMatrix, "check_bits",
                            lambda h, info: calls.append(h) or check_bits(h, info))
        pipelined_ram_chip.reset(1)
        pipelined_ram_chip.reset(2)
        assert calls == []

    def test_reset_restores_cells(self, pipelined_ram_chip):
        assert clean_run(pipelined_ram_chip, 200, seed=3, with_ram=True) == 0
        pipelined_ram_chip.reset(4)
        ram = pipelined_ram_chip.ram
        fresh = ProtectedRam(ram.depth, ram.word_width, code=ram.code)
        assert ram.cells == fresh.cells
        assert (ram.ram_out, ram.data_out) == (fresh.ram_out, fresh.data_out)

    def test_ram_campaign_csv_unchanged(self, pipelined_ram_chip):
        # sha256 recorded when every reset still built a new ProtectedRam
        pool = [AttackDescriptor("logic", f"ram:{row}", ("always",)) for row in RAM_TROJANS]
        pool.append(AttackDescriptor("logic", "fout:*", ("at_cycle", -1), "multi:2"))
        report = run_campaign(pipelined_ram_chip, lambda rng: rng.choice(pool), 60, 8, rng_seed=12)
        assert hashlib.sha256(report.to_csv().encode()).hexdigest() == RAM_CAMPAIGN_SHA256


RAM_CAMPAIGN_SHA256 = "cbb99899ee7d976f3b3ed4a9dffb55fb24ddfa73957e0028c78d544e0af851cf"


class TestChipBuild:
    def test_adder_chip_untampered_run(self, adder_chip):
        assert clean_run(adder_chip, 10_000, seed=7) == 0

    def test_pipelined_chip_untampered_run(self, pipelined_ram_chip):
        assert clean_run(pipelined_ram_chip, 10_000, seed=8, with_ram=True) == 0

    def test_error_signal_equals_taps_when_clean(self, adder_chip):
        from tpad.lfsr import lfsr_taps

        chip = adder_chip
        chip.clear_attacks()
        chip.reset(1)
        enc = StimulusEncoder(chip)
        rng = random.Random(5)
        for _ in range(64):
            taps = lfsr_taps(chip.lfsr_state, chip.lfsr_spec)
            x = tuple(rng.getrandbits(1) for _ in range(3))
            res = chip.cycle(x, enc.send(x))
            assert res.error_signal == taps

    def test_unsatisfiable_insertion_surfaces(self, full_adder, monkeypatch):
        monkeypatch.setattr(chip_module, "INSERTION_MAX_ITERATIONS", 30)
        with pytest.raises(UnsatisfiableError):
            build_protected_chip(full_adder, r=1, t=50, lfsr_spec=lfsr16(1), rng_seed=1)

    def test_sequential_function_rejected(self):
        seq = parse_netlist(".inputs d\n.outputs q\nq = DFF(d)\n")
        with pytest.raises(ValueError):
            build_protected_chip(seq, r=1, t=1, lfsr_spec=lfsr16(1))

    def test_chip_refuses_a_sequential_function(self, adder_chip):
        c = adder_chip
        seq = parse_netlist(".inputs a b cin\n.outputs s cout\ns = DFF(a)\ncout = XOR(b, cin)\n")
        with pytest.raises(ValueError, match="combinational"):
            ProtectedChip(seq, c.ocp, c.detection, c.h_logic, c.h_in, c.out_codes,
                          c.lfsr_spec, c.t, c.options)

    def test_zero_lfsr_state_refused_before_any_register_changes(self, adder_chip):
        chip = adder_chip
        chip.clear_attacks()
        chip.reset(3)
        chip.lfsr_state = 0
        before = (chip.prev_in_check, chip.prev_out_checks, chip.d_state, chip.cycle_count)
        with pytest.raises(ZeroStateError):
            chip.cycle((1, 0, 1), (0,))
        assert (chip.prev_in_check, chip.prev_out_checks, chip.d_state,
                chip.cycle_count) == before
        chip.reset(3)

    def test_tap_width_must_match_r(self, full_adder):
        with pytest.raises(ValueError):
            build_protected_chip(full_adder, r=2, t=1, lfsr_spec=lfsr16(1))


@pytest.fixture(scope="module", params=["adder_chip", "pipelined_ram_chip"])
def fixture_chip(request):
    return request.getfixturevalue(request.param)


def xor_bits(a, b):
    return tuple(p ^ q for p, q in zip(a, b))


class TestErrorCombiner:
    @given(seed=st.integers(0, 2**32 - 1), tamper=st.tuples(st.booleans(), st.booleans(),
                                                            st.booleans()))
    @settings(max_examples=60, deadline=None)
    def test_detection_error_word_matches_oracles(self, fixture_chip, seed, tamper):
        """The detection netlist's error word is combine_error_signals of the
        logic, input (and RAM) checkers' checker_output signals.

        Each cycle draws random taps and inputs; tamper[c] makes checker c's
        actual bits differ from its prediction at random. A pipelined chip's
        logic checker compares the previous cycle's words.
        """
        chip, rng = fixture_chip, random.Random(seed)
        det, r = chip.resolved, chip.r
        pipelined = chip.options.pipeline_stages
        held = ((0,) * r, (0,) * r)  # the pipeline registers' reset value
        state = (0,) * det.state_width

        def draw(n, flip=True):
            return tuple(rng.getrandbits(1) & flip for _ in range(n))

        for _ in range(3):
            x = draw(len(chip.f.inputs))
            fo = xor_bits(eval_wires(chip.f, x)[0], draw(len(chip.f.outputs), tamper[0]))
            pin, taps = draw(r), draw(r)
            rc = xor_bits(xor_bits(chip.h_in.check_bits(x), pin), draw(r, tamper[1]))
            now = (eval_wires(chip.ocp, x)[0], chip.h_logic.check_bits(fo))
            (pred, actual), held = (held if pipelined else now), now
            signals = [checker_output(taps, pred, actual),
                       checker_output(taps, xor_bits(rc, pin), chip.h_in.check_bits(x))]
            ram = ()
            if chip.ram is not None:
                ram_pred = draw(r)
                signals.append(checker_output(taps, ram_pred, xor_bits(ram_pred, draw(r, tamper[2]))))
                ram = signals[-1].bits
            values = dict(zip(
                [f"x{i}" for i in range(len(x))] + [f"rc{i}" for i in range(r)]
                + [f"pin{i}" for i in range(r)] + [f"fo{i}" for i in range(len(fo))]
                + [f"tap{i}" for i in range(r)] + [f"ram{i}" for i in range(len(ram))],
                x + rc + pin + fo + taps + ram))
            inputs = [values.get(det.wire_name(w), 0) for w in det.inputs]  # pout*: any value
            out, state = eval_wires(det, inputs, state)
            assert out[:r] == combine_error_signals(taps, signals).bits


class TestChainIdentity:
    def test_transmitted_checks_chain_over_function_outputs(self, adder_chip):
        """out_check(t) xor out_check(t-1) recovers the raw output parity."""
        chip = adder_chip
        chip.clear_attacks()
        chip.reset(31)
        enc = StimulusEncoder(chip)
        rng = random.Random(32)
        h = chip.out_codes[0][1]
        prev = chip.initial_prev_out_checks[0]
        for _ in range(200):
            x = tuple(rng.getrandbits(1) for _ in range(3))
            res = chip.cycle(x, enc.send(x))
            raw = h.check_bits(res.outputs)
            assert tuple(a ^ b for a, b in zip(res.out_check, prev)) == raw
            prev = res.out_check


@pytest.fixture(scope="module")
def miswired_chip():
    """The wide chip `tpad build-chip --r 3 --t 2 --seed 9` makes in
    tests/test_cli.py::test_run_receives_every_word, with its first switchbox
    set against its intended setting: the monitor fires on some cycles while
    the outputs and their check bits stay clean."""
    f = random_netlist(10, 48, 16, rng_seed=21, name="wide")
    chip = build_protected_chip(f, r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=9)
    det = chip.detection
    sb = det.switchboxes[0].id
    flipped = {**det.intended, sb: "crossed" if det.intended[sb] == "parallel" else "parallel"}
    return ProtectedChip(chip.f, chip.ocp, replace(det, intended=flipped), chip.h_logic,
                         chip.h_in, chip.out_codes, chip.lfsr_spec, chip.t, chip.options)


class TestClosedLoop:
    def test_receiver_stays_in_step_when_the_monitor_fires(self, miswired_chip, monkeypatch):
        """The receiver reads every word, so its chain start before each word is
        the check bits of the one before, and it finds no clean word off its
        chain: a cycle reports exactly when the monitor or the decoder fires,
        also right after cycles on which they did."""
        chip = miswired_chip
        chip.reset(1)
        rng = random.Random(2)
        stimulus = [(tuple(rng.getrandbits(1) for _ in range(10)), None) for _ in range(200)]
        chains = []  # each receive call's chain start
        receive = OutputReceiver.receive
        monkeypatch.setattr(OutputReceiver, "receive",
                            lambda rec, out, *checks: chains.append(rec.prev_checks)
                            or receive(rec, out, *checks))
        results = list(closed_loop(chip, stimulus))
        monkeypatch.undo()
        fired = [res.monitor_attack | res.decode_attack for res, _ in results]
        assert [bad for _, bad in results] == fired
        assert any(fired[c] and not fired[c + 1] for c in range(199))
        assert not all(fired)
        assert [tuple(map(tuple, c)) for c in chains] == [
            tuple(map(tuple, chip.initial_prev_out_checks))] + [
            tuple(map(tuple, res.out_checks)) for res, _ in results[:-1]]

    def test_run_and_campaigns_drive_through_it(self, adder_chip, tmp_path, monkeypatch, capsys):
        """`tpad run` and run_campaign clock every cycle through closed_loop."""
        loops = []  # cycles driven by each closed_loop call

        def spy(chip, stimulus):
            loops.append(0)
            for item in closed_loop(chip, stimulus):
                loops[-1] += 1
                yield item

        # tpad.attacks binds the name at import; `tpad run` imports it when it runs
        for module in (chip_module, tpad.attacks):
            monkeypatch.setattr(module, "closed_loop", spy)
        save_chip_bundle(adder_chip, tmp_path / "chip")
        assert main(["run", "--chip", str(tmp_path / "chip"), "--cycles", "20"]) == 0
        atk = AttackDescriptor("logic", "fout:*", ("at_cycle", -1), "flip")
        report = run_campaign(adder_chip, lambda rng: atk, trials=300, cycles_per_trial=4,
                              rng_seed=3)
        assert loops == [20, 4, 4]  # one run, then two campaign batches (256 + 44 trials)
        assert report.trials == 300


class TestEveryOutputSubset:
    """The trusted receiver decodes every output subset's chain, not the first only."""

    @pytest.fixture(scope="class")
    def split_chip(self):
        return build_protected_chip(random_netlist(8, 30, 6, rng_seed=5), r=3, t=2,
                                    lfsr_spec=lfsr16(3), rng_seed=7,
                                    options=ChipOptions(output_subsets=((0, 1, 2), (3, 4, 5))))

    @pytest.mark.parametrize("pad", [1, 4])  # a pad of the first subset, and one of the second
    def test_flipped_pad_is_reported(self, split_chip, pad):
        atk = AttackDescriptor("pin", f"output:{pad}", ("at_cycle", 3))
        report = run_campaign(split_chip, lambda rng: atk, trials=200, cycles_per_trial=8,
                              rng_seed=1)
        assert report.detected == 200 and report.false_positives == 0
        assert {rec.first_detect_cycle for rec in report.records} == {3}

    def test_clean_runs_report_nothing(self, split_chip):
        split_chip.reset(3)
        rng = random.Random(4)
        stimulus = [(tuple(rng.getrandbits(1) for _ in range(8)), None) for _ in range(200)]
        assert not any(bad for _, bad in closed_loop(split_chip, stimulus))
        report = run_system(SystemTopology([split_chip], []), [], 200, rng_seed=5)
        assert report.terminal_decode_fires == [] and report.first_detection is None


class TestChipAttacks:
    def test_single_output_flip_detected_with_pipeline_lag(self, pipelined_ram_chip):
        chip = pipelined_ram_chip
        chip.clear_attacks()
        chip.reset(11)
        enc = StimulusEncoder(chip)
        rng = random.Random(6)
        wire = chip.f.outputs[1]
        chip.install_attack(AttackEffect(kind="logic", trigger=("at_cycle", 5),
                                         f_overrides={wire: "flip"}))
        fired_at = None
        for c in range(12):
            x = tuple(rng.getrandbits(1) for _ in range(8))
            res = chip.cycle(x, enc.send(x))
            if res.monitor_attack and fired_at is None:
                fired_at = c
        chip.clear_attacks()
        assert fired_at == 6  # one pipeline stage delays the comparison

    def test_pin_attack_on_check_wire(self, adder_chip):
        chip = adder_chip
        chip.clear_attacks()
        chip.reset(12)
        enc = StimulusEncoder(chip)
        rng = random.Random(7)
        chip.install_attack(AttackEffect(kind="pin", trigger=("at_cycle", 3), recv_flips=(0,)))
        hits = []
        for c in range(8):
            x = tuple(rng.getrandbits(1) for _ in range(3))
            res = chip.cycle(x, enc.send(x))
            if res.monitor_attack:
                hits.append(c)
        chip.clear_attacks()
        # the tampered word also enters the chain register, so a one-cycle
        # glitch disturbs the comparison at the glitch cycle and the next one
        assert hits == [3, 4]

    def test_reliability_stuck_engages_permanently(self, pipelined_ram_chip):
        chip = pipelined_ram_chip
        chip.clear_attacks()
        chip.reset(13)
        enc = StimulusEncoder(chip)
        rng = random.Random(8)
        wire = chip.f.outputs[0]
        chip.install_attack(AttackEffect(kind="reliability", trigger=("after_cycle", 50),
                                         f_overrides={wire: "stuck1"}))
        first = None
        fires = 0
        for c in range(120):
            x = tuple(rng.getrandbits(1) for _ in range(8))
            res = chip.cycle(x, enc.send(x))
            if res.monitor_attack:
                fires += 1
                if first is None:
                    first = c
        chip.clear_attacks()
        assert first is not None and first >= 50
        assert fires > 10  # stuck line keeps disagreeing on many cycles


    @pytest.mark.parametrize("side, wire, mode, match", [
        ("f", 10_000, "flip", "override on wire 10000, which adder does not have"),
        ("d", 10_000, "stuck1", r"override on wire 10000, which adder\.det\.obf does not have"),
        ("f", None, "stuk0", "unknown override 'stuk0' on wire s$"),
        ("d", None, "stuck2", "unknown override 'stuck2' on wire "),
    ])
    def test_bad_override_refused_at_install(self, adder_chip, side, wire, mode, match):
        chip = adder_chip
        chip.clear_attacks()
        chip.reset(14)
        net = chip.f if side == "f" else chip.resolved
        bad = AttackEffect("logic", **{f"{side}_overrides": {wire or net.outputs[0]: mode}})
        with pytest.raises(ValueError, match=match):
            chip.install_attack(bad)
        assert chip.attacks == [] and chip.cycle_count == 0

    @pytest.mark.parametrize("trigger", [
        ("sometimes",), ("at_cycle",), ("always", 3), ("after_cycle", 2, 5), ("at_cycle", "2"),
        ("random",), ("random", 1.5), ("random", -0.1), ("random", float("nan")), (),
    ])
    def test_bad_trigger_refused_at_install(self, adder_chip, trigger):
        chip = adder_chip
        chip.clear_attacks()
        chip.reset(14)
        bad = AttackEffect("pin", trigger=trigger, input_flips=(0,))
        with pytest.raises(ValueError, match=re.escape(f"unknown trigger {trigger!r}")):
            chip.install_attack(bad)
        assert chip.attacks == [] and chip.cycle_count == 0

    def test_negative_at_cycle_refused_at_install(self, adder_chip):
        """It would never fire (after_cycle:-3 fires from the first cycle and installs)."""
        chip = adder_chip
        chip.clear_attacks()
        chip.reset(14)
        bad = AttackEffect("pin", trigger=("at_cycle", -3), input_flips=(0,))
        with pytest.raises(ValueError, match=re.escape("trigger ('at_cycle', -3) fires on no cycle")):
            chip.install_attack(bad)
        assert chip.attacks == [] and chip.cycle_count == 0

    @pytest.mark.parametrize("trigger", [("always",), ("at_cycle", 0), ("after_cycle", 3),
                                         ("after_cycle", -3), ("random", 0), ("random", 1),
                                         ("random", 0.5)])
    def test_good_trigger_installs(self, adder_chip, trigger):
        chip = adder_chip
        chip.clear_attacks()
        chip.reset(14)
        chip.install_attack(AttackEffect("pin", trigger=trigger, input_flips=(0,)))
        chip.cycle((0, 0, 0), chip.prev_in_check)
        chip.clear_attacks()

    def test_reset_ends_the_attack_set(self, adder_chip):
        """An attack lives for one run: after reset it is gone, also from a lane the
        new run lacks, and the next cycle is a never-attacked twin's."""
        chip, twin = twin_chips(adder_chip)
        chip.reset([1, 2, 3])
        chip.install_attack(AttackEffect("logic", f_overrides={chip.f.outputs[0]: "flip"}), 0b100)
        chip.reset([1, 2])
        twin.reset([1, 2])
        assert chip.attacks == []
        x, rc = (1, 2, 3), chip.prev_in_check
        assert chip.cycle(x, rc) == twin.cycle(x, rc)
        assert registers(chip) == registers(twin)

    def test_attack_installed_before_reset_never_fires(self, adder_chip):
        """A pin flip installed before reset(seed) is not armed in the run reset starts,
        though in the run it was installed in it reports on every cycle."""
        chip = twin_chips(adder_chip)[0]
        rng = random.Random(9)
        stimulus = [(tuple(rng.getrandbits(1) for _ in chip.f.inputs), None) for _ in range(20)]
        chip.reset(9)
        chip.install_attack(AttackEffect("pin", trigger=("always",), input_flips=(0,)))
        assert [bad for _, bad in closed_loop(chip, stimulus)] == [1] * 20
        chip.reset(9)
        assert [bad for _, bad in closed_loop(chip, stimulus)] == [0] * 20


class TestBundle:
    def test_detection_names_resolve(self, fixture_chip):
        """Every name detection.net writes resolves through chip.resolved.wire to
        the wire it names: read back that way, the text is the chip's netlist."""
        det = fixture_chip.detection
        _, inputs, outputs, gates, sbs, names = parse_text(serialize_obfuscated(det),
                                                           switchboxes=True)
        wire = {w: fixture_chip.resolved.wire(n) for w, n in names.items()}
        assert len(set(wire.values())) == len(wire)
        assert [wire[w] for w in inputs] == list(det.inputs)
        assert [wire[w] for w in outputs] == list(det.outputs)
        assert [Gate(wire[g.out], g.kind, tuple(map(wire.get, g.ins))) for g in gates] \
            == list(det.gates)
        assert [(i, tuple(map(wire.get, x)), tuple(map(wire.get, z))) for i, x, z in sbs] \
            == [(sb.id, sb.ins, sb.outs) for sb in det.switchboxes]

    def test_round_trip_lockstep(self, pipelined_ram_chip, tmp_path):
        chip = pipelined_ram_chip
        chip.clear_attacks()
        save_chip_bundle(chip, tmp_path / "bundle")
        twin = load_chip_bundle(tmp_path / "bundle")
        chip.reset(21)
        twin.reset(21)
        enc_a, enc_b = StimulusEncoder(chip), StimulusEncoder(twin)
        rng = random.Random(9)
        for _ in range(200):
            x = tuple(rng.getrandbits(1) for _ in range(8))
            ra = chip.cycle(x, enc_a.send(x))
            rb = twin.cycle(x, enc_b.send(x))
            assert ra.outputs == rb.outputs
            assert ra.out_check == rb.out_check
            assert ra.error_signal == rb.error_signal

    def test_tampered_bundle_rejected(self, adder_chip, tmp_path):
        save_chip_bundle(adder_chip, tmp_path / "b2")
        target = tmp_path / "b2" / "logic.code"
        text = target.read_text()
        flipped = text[:-2] + ("0\n" if text[-2] == "1" else "1\n")
        target.write_text(flipped)
        with pytest.raises(ValueError):
            load_chip_bundle(tmp_path / "b2")


    @staticmethod
    def bundle_without(chip, root, key=None, file=None):
        """Save a bundle, then drop a manifest key or one of its listed files."""
        save_chip_bundle(chip, root)
        manifest = json.loads((root / "manifest.json").read_text())
        if file is None:
            del manifest[key]
        else:
            del manifest["files"][file]
        (root / "manifest.json").write_text(json.dumps(manifest))
        return root

    @pytest.mark.parametrize("entry", [
        "function.net", "ocp.net", "detection.net", "detection.cfg",
        "logic.code", "input.code", "output0.code", "lfsr.spec",
    ])
    def test_manifest_missing_file_named(self, adder_chip, tmp_path, entry):
        root = self.bundle_without(adder_chip, tmp_path / "b", file=entry)
        with pytest.raises(ValueError, match=re.escape(entry)):
            load_chip_bundle(root)

    def test_manifest_missing_ram_code_named(self, pipelined_ram_chip, tmp_path):
        root = self.bundle_without(pipelined_ram_chip, tmp_path / "b", file="ram.code")
        with pytest.raises(ValueError, match=re.escape("ram.code")):
            load_chip_bundle(root)

    @pytest.mark.parametrize("entry", ["../x", "notes.txt", "output1.code", "manifest.json"])
    def test_manifest_unexpected_file_named(self, adder_chip, tmp_path, entry):
        root = tmp_path / "b"
        save_chip_bundle(adder_chip, root)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["files"][entry] = "0" * 64  # never read: the entry is refused first
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"unexpected file.*{re.escape(entry)}"):
            load_chip_bundle(root)

    def test_stray_ram_code_refused(self, tmp_path):
        """A hashed ram.code on a chip without a RAM is refused, not misread."""
        f = random_netlist(6, 20, 4, rng_seed=51, name="plain")
        chip = build_protected_chip(f, r=2, t=2, lfsr_spec=lfsr16(2), rng_seed=52)
        root = tmp_path / "b"
        save_chip_bundle(chip, root)
        text = format_matrix(sample_parity_code(5 + 16, 2, 1))
        (root / "ram.code").write_text(text)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["files"]["ram.code"] = hashlib.sha256(text.encode()).hexdigest()
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape("ram.code")):
            load_chip_bundle(root)

    @pytest.mark.parametrize("name", ["notes.txt", "output1.code", "ram.code"])
    def test_unlisted_file_on_disk_named(self, adder_chip, tmp_path, name):
        """A file the manifest leaves out is refused, not silently ignored."""
        root = tmp_path / "b"
        save_chip_bundle(adder_chip, root)
        (root / name).write_text("stray\n")
        with pytest.raises(ValueError, match=f"does not list: {re.escape(name)}$"):
            load_chip_bundle(root)

    @pytest.mark.parametrize("name,edit,error", [
        ("logic.code", lambda t: t.replace(t.splitlines()[1], "2111", 1),
         "line 2: bad matrix row '2111'"),
        ("detection.cfg", lambda t: "sb0 = sideways\n" + t,
         "line 1, column 1: expected 'sbN = parallel|crossed'"),
        ("function.net", lambda t: t + "z = MAJ(a, b)\n", "line 9, column 5: unknown gate kind 'MAJ'"),
        ("lfsr.spec", lambda t: t + "taps\n", "line 5: bad spec line 'taps'"),
    ])
    def test_file_parse_error_named(self, adder_chip, tmp_path, name, edit, error):
        """A file that fails to parse is named, even with its manifest hash rewritten."""
        root = tmp_path / "b"
        save_chip_bundle(adder_chip, root)
        text = edit((root / name).read_text())
        (root / name).write_text(text)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["files"][name] = hashlib.sha256(text.encode()).hexdigest()
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"^bundle file {re.escape(name)}: {re.escape(error)}$"):
            load_chip_bundle(root)

    def test_manifest_json_error_named(self, adder_chip, tmp_path):
        save_chip_bundle(adder_chip, tmp_path)
        (tmp_path / "manifest.json").write_text('{"format": ')
        with pytest.raises(ValueError, match="^bundle file manifest.json: Expecting value"):
            load_chip_bundle(tmp_path)

    def test_resave_over_a_larger_bundle(self, pipelined_ram_chip, adder_chip, tmp_path):
        """Saving over a bundle drops the output and RAM codes the new chip lacks."""
        from conftest import FULL_ADDER

        two = build_protected_chip(parse_netlist(FULL_ADDER), r=1, t=2, lfsr_spec=lfsr16(1),
                                   rng_seed=42, options=ChipOptions(output_subsets=((0,), (1,))))
        root = tmp_path / "b"
        save_chip_bundle(two, root)
        save_chip_bundle(pipelined_ram_chip, root)
        assert (root / "ram.code").is_file() and not (root / "output1.code").exists()
        save_chip_bundle(adder_chip, root)
        assert not (root / "ram.code").exists()
        assert serialize_netlist(load_chip_bundle(root).f) == serialize_netlist(adder_chip.f)

    @pytest.mark.parametrize("subset", [[0, 5], [1, 1], [], [0], [0, "1"]])
    def test_bad_output_subset_named(self, adder_chip, tmp_path, subset):
        """A subset the two-output adder's one 2-bit code cannot check is refused at load."""
        root = tmp_path / "b"
        save_chip_bundle(adder_chip, root)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["output_subsets"] = [subset]
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(f"output subset {subset} ")):
            load_chip_bundle(root)

    @pytest.mark.parametrize("chip_name, key, value", [
        ("adder_chip", "t", "x"),
        ("adder_chip", "t", 0),
        ("adder_chip", "t", True),
        ("adder_chip", "pipeline_stages", -1),
        ("adder_chip", "pipeline_stages", 3),
        ("adder_chip", "pipeline_stages", 1),  # its detection netlist has no DFFs
        ("pipelined_ram_chip", "pipeline_stages", 0),  # its detection netlist has DFFs
        ("pipelined_ram_chip", "ram_depth", "64"),
        ("pipelined_ram_chip", "ram_depth", 0),  # 0 is not "no RAM"
        ("adder_chip", "ram_depth", 0),
        ("pipelined_ram_chip", "ram_word_width", 16.0),
        ("adder_chip", "output_subsets", [5]),
        ("adder_chip", "output_subsets", None),
        ("adder_chip", "output_subsets", [[0, 1.0]]),
    ])
    def test_bad_manifest_value_named(self, request, monkeypatch, tmp_path, chip_name, key, value):
        """Each bad value is refused with its key's name before a chip is built."""
        root = tmp_path / "b"
        save_chip_bundle(request.getfixturevalue(chip_name), root)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest[key] = value
        (root / "manifest.json").write_text(json.dumps(manifest))
        monkeypatch.setattr(chip_module, "ProtectedChip", None)  # building one would fail
        with pytest.raises(ValueError, match=f"^bundle manifest key '{key}'"):
            load_chip_bundle(root)

    @pytest.mark.parametrize("key", [
        "files", "t", "pipeline_stages", "ram_depth", "ram_word_width", "output_subsets",
    ])
    def test_manifest_missing_key_named(self, adder_chip, tmp_path, key):
        root = self.bundle_without(adder_chip, tmp_path / "b", key=key)
        with pytest.raises(ValueError, match=key):
            load_chip_bundle(root)


class TestWidthChecks:
    def test_memory_code_exactly_with_a_ram(self, adder_chip, pipelined_ram_chip):
        for c, options, h_mem in (
            (adder_chip, ChipOptions(ram_depth=16), None),
            (pipelined_ram_chip, ChipOptions(pipeline_stages=1), pipelined_ram_chip.h_mem),
        ):
            with pytest.raises(ValueError, match="memory code"):
                ProtectedChip(c.f, c.ocp, c.detection, c.h_logic, c.h_in, c.out_codes,
                              c.lfsr_spec, c.t, options, h_mem)

    @pytest.mark.parametrize("subsets", [((0, 5),), ((1, 1),), ((),), ((0, 1), (-1,))])
    def test_bad_output_subset_refused_before_build(self, monkeypatch, subsets):
        from conftest import FULL_ADDER

        def refuse(*args, **kwargs):
            raise AssertionError("a netlist was built")

        monkeypatch.setattr("tpad.chip.build_ocp", refuse)
        bad = list(subsets[-1])
        with pytest.raises(ValueError, match=re.escape(f"output subset {bad} ")):
            build_protected_chip(parse_netlist(FULL_ADDER), r=1, t=2, lfsr_spec=lfsr16(1),
                                 rng_seed=42, options=ChipOptions(output_subsets=subsets))

    @pytest.mark.parametrize("depth", [12, 0, 1, -4, True])
    def test_bad_ram_depth_refused_before_any_draw(self, monkeypatch, depth):
        from conftest import FULL_ADDER

        codes = []
        monkeypatch.setattr("tpad.chip.sample_parity_code", lambda *args: codes.append(args))
        with pytest.raises(ValueError, match="^depth must be a power of two >= 2$"):
            build_protected_chip(parse_netlist(FULL_ADDER), r=1, t=2, lfsr_spec=lfsr16(1),
                                 rng_seed=42, options=ChipOptions(ram_depth=depth))
        assert codes == []

    @pytest.mark.parametrize("stages", [2, -1, True])
    def test_bad_pipeline_stages_refused_before_any_draw(self, monkeypatch, stages):
        """The rule load_chip_bundle holds a manifest to, so no build saves a bundle
        it refuses; -1 used to build a pipelined chip."""
        from conftest import FULL_ADDER

        codes = []
        monkeypatch.setattr("tpad.chip.sample_parity_code", lambda *args: codes.append(args))
        with pytest.raises(ValueError, match=f"^pipeline_stages: expected 0 or 1, got {stages!r}$"):
            build_protected_chip(parse_netlist(FULL_ADDER), r=1, t=2, lfsr_spec=lfsr16(1),
                                 rng_seed=42, options=ChipOptions(pipeline_stages=stages))
        assert codes == []

    def test_ram_op_needs_a_ram(self, adder_chip):
        adder_chip.reset(0)
        with pytest.raises(WidthError, match="RAM op"):
            adder_chip.cycle((1, 0, 1), (0,), ram_op=("read", 0, None))

    def test_cycle_width_validation(self, adder_chip):
        adder_chip.reset(0)
        with pytest.raises(WidthError):
            adder_chip.cycle((1, 0), (0,))
        with pytest.raises(WidthError):
            adder_chip.cycle((1, 0, 1), (0, 0))

    def test_receiver_width_validation(self, adder_chip):
        rec = OutputReceiver(adder_chip)
        start = rec.prev_checks
        with pytest.raises(WidthError):
            rec.receive((1, 0), (0, 0))
        for word in ((1,), (1, 0, 1)):
            with pytest.raises(WidthError, match=rf"^expected 2 output values, got {len(word)}$"):
                rec.receive(word, (0,))
        for checks in ((), ((0,), (0,))):  # one check per output subset
            with pytest.raises(WidthError, match="^receiver chain width mismatch$"):
                rec.receive((1, 0), *checks)
        assert rec.prev_checks == start


# -- the generated clock against a reference -----------------------------------------


def merge_override(over, overrides, lanes):
    """Set each wire's fault mode in `lanes` of over, a {wire: {mode: lanes}}
    map, replacing the modes set there before (the last active mode wins)."""
    for w, mode in overrides.items():
        modes = over.get(w)
        if modes is None:
            over[w] = {mode: lanes}
            continue
        for m in modes:
            modes[m] &= ~lanes
        modes[mode] = modes.get(mode, 0) | lanes


# fault mode -> the (a, b) bits of the lanes it holds
FAULT_PAIRS = {"flip": (-1, -1), "stuck0": (0, 0), "stuck1": (0, -1)}


def faulted(net, inputs, state, over, mask):
    """net's all-wire fault step, each wire's modes of over (a {wire: {mode:
    lanes}} map, lanes disjoint per wire) filled into a and b in their lanes."""
    step, slots = net.fault_step_fn(net.wires)
    a, b = [-1] * len(slots), [0] * len(slots)
    for w, modes in over.items():
        for mode, lanes in modes.items():
            a[slots[w]] &= FAULT_PAIRS[mode][0] | ~lanes
            b[slots[w]] |= FAULT_PAIRS[mode][1] & lanes
    return step(tuple(inputs), tuple(state), a, b, mask)


def attack_walk(chip, walk, inputs, recv_check):
    """One clock's attack data, walked attack by attack in install order, as the chip
    did before it merged attacks into trigger groups: the pins and check bits with
    their flips, F's and D's {wire: {mode: lanes}} overrides, each lane's RAM trojan,
    the replaying lanes with the (lanes, snapshot) they replay, the null lanes and
    the pad flips. walk holds each stored-state attack's [captured lanes, snapshot]
    by install index and each lane's trigger generator, which a random trigger draws
    from once per lane it is installed in."""
    captures, lane_rngs = walk
    mask, cycle = chip.mask, chip.cycle_count
    x, rc = list(inputs), list(recv_check)
    f_over, d_over, trojans, stored = {}, {}, {}, []
    replay = null = 0
    pads = None
    for n, (eff, lanes) in enumerate(chip.attacks):
        lanes = mask if lanes is None else lanes
        mode, *arg = eff.trigger
        on = 0
        for j in range(lanes.bit_length()):
            if lanes >> j & 1 and (
                    mode == "always" or mode == "at_cycle" and cycle == arg[0]
                    or mode == "after_cycle" and cycle >= arg[0]
                    or mode == "random" and lane_rngs.setdefault(
                        j, random.Random(chip._trigger_seeds[j])).random() < arg[0]):
                on |= 1 << j
        if not on:
            continue
        for i in eff.input_flips:
            x[i] ^= on
        for i in eff.recv_flips:
            rc[i] ^= on
        if eff.output_flips:
            pads = pads or [0] * len(chip.f.outputs)
            for i in eff.output_flips:
                pads[i] ^= on
        merge_override(f_over, eff.f_overrides, on)
        merge_override(d_over, eff.d_overrides, on)
        if eff.ram_trojan:
            trojans.update((j, eff.ram_trojan) for j in range(on.bit_length()) if on >> j & 1)
        if eff.kind == "decoupling_stored_state":
            cap = captures.setdefault(n, [0, ()])
            fresh = on & ~cap[0]
            if fresh and len(chip._history) >= eff.replay_depth:
                past = chip._history[-eff.replay_depth]
                cap[1] = select(fresh, past, cap[1]) if cap[1] else past
                cap[0] |= fresh
            taken = on & cap[0]
            replay = replay & ~on | taken
            if taken:
                stored.append((taken, cap[1]))
        if eff.kind == "decoupling_parity_null":
            null |= on
    return x, rc, f_over, d_over, trojans, replay, null, stored, pads


def reference_cycle(chip, walk, inputs, recv_check, ram_op=None):
    """One clock of chip with both netlists on their all-wire fault steps every cycle.

    It spells out what the generated clock (`chip._compile_cycle`) computes,
    with no inlined netlist, no quiet-cycle body, no shared values, no armed
    steps and no attack groups: `attack_walk` (with its state `walk`) gives the
    attacks' data, a stored state replays in the lanes of the last stored-state
    attack that took it, and both netlists run their all-wire fault steps. The
    RAM lanes and pad helpers are the chip's own.
    """
    mask, r = chip.mask, chip.r
    taps = [-(chip.lfsr_state >> p & 1) & mask for p in chip.lfsr_spec.taps]
    x, rc, f_over, d_over, trojans, replay, null, stored, pads = attack_walk(
        chip, walk, inputs, recv_check)
    fo, _ = faulted(chip.f, x, (), f_over, mask)
    live = (*x, *rc, *chip.prev_in_check, *fo, *(b for c in chip.prev_out_checks for b in c))
    ram_res, ram_sig = None, []
    if chip.ram is not None:
        reports = 0
        if isinstance(ram_op, list):
            ram_res, reports = chip._ram_lanes(ram_op, trojans)
        elif ram_op is not None:
            ram_res = chip.ram.cycle(*ram_op, trojan=trojans.get(0))
            reports = ram_res.attack
        ram_sig = [taps[0] ^ reports, *taps[1:]]
    det_in = live
    for taken, snapshot in stored:
        det_in = select(taken & replay, snapshot, det_in)
    do, d_next = faulted(chip.resolved, (*det_in, *taps, *ram_sig), chip.d_state, d_over, mask)
    error, in_sig = do[:r], do[r:2 * r]
    checks = tuple(do[i:i + r] for i in range(2 * r, len(do), r))
    decode = 0
    for s, t in zip(in_sig, taps):
        decode |= s ^ t
    outputs, tx = chip._transmit(fo, checks, replay, null, pads)
    chip.prev_in_check = select(replay, chip.prev_in_check, rc)
    chip.prev_out_checks = tuple(select(replay, old, new)
                                 for old, new in zip(chip.prev_out_checks, checks))
    chip._last_tx_checks = tx
    chip.d_state = d_next
    chip._history.append(live)
    chip.lfsr_state = step_lfsr(chip.lfsr_state, chip.lfsr_spec)
    chip.cycle_count += 1
    return ChipCycleResult(outputs, tx[0], tx, error, chip.monitor.check(error), decode, ram_res)


def registers(chip):
    """Everything a clock writes on the chip, its RAM lanes and its monitor."""
    return (chip.prev_in_check, chip.prev_out_checks, chip._last_tx_checks, chip.d_state,
            chip.lfsr_state, chip.cycle_count, list(chip._history), chip.monitor.state,
            [(ram.cells, ram.ram_out, ram.data_out) for ram in chip.rams])


# what one cycle of a drawn session arms: nothing, or one kind of attack; same_wire is
# two modes on one wire in shared lanes, f_replay an F override and a replay,
# two_replays two replay depths and two_trojans two RAM trojans, each in shared lanes
CYCLE_KINDS = ("quiet", "f_over", "d_over", "same_wire", "f_replay", "replay", "two_replays",
               "pads", "pins", "null", "ram", "two_trojans")
MODES = ("flip", "stuck0", "stuck1")


def twin_chips(built):
    """Two fresh chips with built's netlists, codes and options."""
    return [ProtectedChip(built.f, built.ocp, built.detection, built.h_logic, built.h_in,
                          built.out_codes, built.lfsr_spec, built.t, built.options, built.h_mem)
            for _ in range(2)]


@pytest.fixture(scope="module")
def wide_ram_chip():
    """The benchmark's wide chip: 10 inputs, 48 gates, 16 outputs, a 64-word RAM."""
    f = random_netlist(10, 48, 16, rng_seed=21, name="wide")
    return build_protected_chip(f, 3, 2, lfsr16(3), rng_seed=33,
                                options=ChipOptions(pipeline_stages=1, ram_depth=64))


class TestClockCone:
    """A quiet cycle computes only f's output cone; an attacked one runs the armed
    all-gate step, so an override on a gate outside the cone still installs and runs."""

    @staticmethod
    def dead_wires(chip):
        cone = {g.out for g in output_cone(chip.f._topo, chip.f.outputs)}
        return [g.out for g in chip.f.gates if g.out not in cone]

    def test_quiet_body_skips_gates_outside_the_cone(self, wide_ram_chip):
        chip = twin_chips(wide_ram_chip)[0]
        dead = self.dead_wires(chip)
        assert len(dead) == 16
        chip.reset(1)
        chip.cycle((0,) * len(chip.f.inputs), chip.prev_in_check)  # compiles the clock
        source = "".join(linecache.getlines(chip._cycle_fn.__code__.co_filename))
        # a gate's variable is f<wire>, or fo<j> for the gate that drives output j
        assigned = set(re.findall(r"^ +f(\d+) = ", source, re.M))
        inner = {g.out for g in chip.f.gates} - set(dead) - set(chip.f.outputs)
        assert {int(w) for w in assigned} == inner
        assert not any(re.search(rf"\bf{w}\b", source) for w in dead)

    def test_dead_gate_flip_runs_through_the_armed_step(self, wide_ram_chip):
        chip, twin = twin_chips(wide_ram_chip)
        rng = random.Random(4)
        stimulus = [(tuple(rng.getrandbits(1) for _ in range(10)), chip.ram.random_op(rng))
                    for _ in range(40)]
        for seed, w in enumerate(self.dead_wires(chip)):
            atk = AttackDescriptor("logic", f"fgate:{chip.f.wire_name(w)}", ("always",), "flip")
            for c in (chip, twin):
                c.reset(seed)
            chip.install_attack(compile_attack(chip, atk, random.Random(0), 40))
            runs = []

            def arm(chip=chip):  # the armed F step, counting its runs
                step, *rest = ProtectedChip._arm(chip)
                chip._armed = (lambda *args: runs.append(1) or step(*args), *rest)
                return chip._armed
            chip._arm = arm
            got = list(closed_loop(chip, stimulus))
            assert w in chip._armed[1] and len(runs) == len(stimulus)
            assert got == list(closed_loop(twin, stimulus))
            assert not any(report for _, report in got)
            assert registers(chip) == registers(twin)


class TestClockReference:
    """The generated clock equals reference_cycle on every field and register,
    over sessions that mix quiet cycles with each kind of attacked cycle."""

    @staticmethod
    def effects(kind, cycle, chip, rng, all_lanes):
        """The (effect, lane mask) pairs one cycle of `kind` installs, all with one
        trigger that fires at `cycle` (always, at or after it) or at random."""
        trigger = rng.choice([("at_cycle", cycle), ("after_cycle", cycle), ("always",),
                              ("random", rng.choice([0, 0.5, 1]))])
        lanes = rng.randint(1, all_lanes)
        shared = rng.randint(1, all_lanes) | lanes & -lanes  # shares lanes' lowest lane
        if kind in ("replay", "two_replays"):
            depths = rng.sample(range(1, 4), 2)
            return [(AttackEffect("decoupling_stored_state", trigger, replay_depth=depth), mask)
                    for depth, mask in zip(depths, [lanes, shared][:1 + (kind == "two_replays")])]
        if kind == "pads":
            return [(AttackEffect("pin", trigger,
                                  output_flips=(rng.randrange(len(chip.f.outputs)),)), lanes)]
        if kind == "pins":
            return [(AttackEffect("pin", trigger, input_flips=(rng.randrange(len(chip.f.inputs)),),
                                  recv_flips=(rng.randrange(chip.r),)), lanes)]
        if kind == "null":
            return [(AttackEffect("decoupling_parity_null", trigger), lanes)]
        if kind in ("ram", "two_trojans"):
            rows = rng.sample(RAM_TROJANS, 2)
            return [(AttackEffect("logic", trigger, ram_trojan=row), mask)
                    for row, mask in zip(rows, [lanes, shared][:1 + (kind == "two_trojans")])]
        side = rng.choice("fd") if kind == "same_wire" else kind[0]
        net = chip.f if side == "f" else chip.resolved
        wire = rng.choice([*net.inputs, *(g.out for g in net.gates)])
        first, second = rng.sample(MODES, 2)
        pairs = [(AttackEffect("logic", trigger, **{f"{side}_overrides": {wire: first}}), lanes)]
        if kind == "same_wire":  # the later mode wins in the lanes the two share
            pairs.append((AttackEffect("logic", trigger, **{f"{side}_overrides": {wire: second}}),
                          shared))
        if kind == "f_replay":
            pairs.append((AttackEffect("decoupling_stored_state", trigger,
                                       replay_depth=rng.randint(1, 3)), rng.randint(1, all_lanes)))
        return pairs

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), r=st.integers(1, 3), ram=st.booleans(),
           stages=st.integers(0, 1), lanes=st.integers(1, 3),
           kinds=st.lists(st.sampled_from(CYCLE_KINDS), min_size=4, max_size=24),
           midrun=st.booleans())
    def test_matches_reference(self, seed, r, ram, stages, lanes, kinds, midrun):
        rng = random.Random(seed)
        f = random_netlist(5, 16, 4, rng_seed=seed % 1000)
        options = ChipOptions(pipeline_stages=stages, ram_depth=8 if ram else None, ram_word_width=8)
        try:
            built = build_protected_chip(f, r, 1, lfsr16(r), rng_seed=seed % 1000, options=options)
        except UnsatisfiableError:
            reject()  # no insertion met t on this draw, so there is no chip
        chip, ref = twin_chips(built)
        seeds = [rng.getrandbits(32) for _ in range(lanes)]
        all_lanes = (1 << lanes) - 1
        for c in (chip, ref):
            c.reset(seeds if lanes > 1 else seeds[0])
        # each cycle's attacks, installed all before the first cycle or each just before its own
        arming = [[] if kind == "quiet" or (kind in ("ram", "two_trojans") and not ram)
                  else self.effects(kind, cycle, chip, rng, all_lanes)
                  for cycle, kind in enumerate(kinds)]
        if not midrun:
            arming = [[pair for pairs in arming for pair in pairs]] + [[]] * (len(kinds) - 1)
        walk = ({}, {})
        for cycle in range(len(kinds)):
            for effect, lane_mask in arming[cycle]:
                for c in (chip, ref):
                    c.install_attack(effect, lane_mask)
            x = tuple(rng.getrandbits(lanes) for _ in f.inputs)
            rc = tuple(rng.getrandbits(lanes) for _ in range(r))
            ops = None
            if ram:
                ops = [rng.choice([("read", rng.randrange(8), None), ("idle", None, None),
                                   ("write", rng.randrange(8), rng.randrange(256))])
                       for _ in range(lanes)]
                ops = ops if lanes > 1 else ops[0]
            assert chip.cycle(x, rc, ops) == reference_cycle(ref, walk, x, rc, ops), \
                (cycle, kinds[cycle])
            assert registers(chip) == registers(ref), (cycle, kinds[cycle])

    def test_later_install_keeps_engaged_captures(self, pipelined_ram_chip):
        """A stored-state attack that has engaged replays the state it captured then,
        also after more attacks are installed later in the run, one of them joining
        its group."""
        chip, ref = twin_chips(pipelined_ram_chip)
        rng = random.Random(7)
        replay = AttackEffect("decoupling_stored_state", ("after_cycle", 2), replay_depth=2)
        for c in (chip, ref):
            c.reset([11, 12, 13])
            c.install_attack(replay, 0b001)
        first = chip._groups[0]
        walk = ({}, {})
        for cycle in range(10):
            if cycle == 5:  # three cycles after the replay engaged in lane 0
                for c in (chip, ref):
                    c.install_attack(replay, 0b010)
                    c.install_attack(AttackEffect("pin", input_flips=(0,)), 0b100)
            x = tuple(rng.getrandbits(3) for _ in chip.f.inputs)
            rc = tuple(rng.getrandbits(3) for _ in range(chip.r))
            assert chip.cycle(x, rc) == reference_cycle(ref, walk, x, rc), cycle
            assert registers(chip) == registers(ref), cycle
        # the second replay joined the first's group, which no install rebuilt
        assert len(chip._groups) == 2 and chip._groups[0] is first
