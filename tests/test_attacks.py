import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpad.attacks import (
    ATTACK_KINDS,
    AttackDescriptor,
    DetectionReport,
    TrialRecord,
    compile_attack,
    cp_attack_probability,
    decoupling_cost,
    destructive_detection_probability,
    parse_attack_file,
    parse_attack_line,
    per_sb_attack_probability,
    run_campaign,
    simulate_destructive_sampling,
    subcircuit_match_attack,
    uniform_output_flip_attacks,
)
from tpad.chip import (
    ChipOptions,
    OutputReceiver,
    StimulusEncoder,
    build_protected_chip,
    load_chip_bundle,
    save_chip_bundle,
)
from tpad.netlist import random_netlist
from tpad.ram import RAM_TROJANS
from tpad.parity import ParityCheckMatrix, build_ocp, sample_parity_code
from tpad.switchbox import apply_config, insert_switchboxes

from conftest import lfsr16


def pin_flips(rng):
    """Flips on a random set of input pins at a random cycle."""
    return AttackDescriptor("pin", "input:*", ("at_cycle", -1), "pins:0")


def single_output_flips(rng):
    """One flipped function output at a random cycle."""
    return AttackDescriptor("logic", "fout:*", ("at_cycle", -1), "multi:1:1")


_WIRE_NAME = st.text("abcdefghijklmnopqrstuvwxyz0123456789_.", min_size=1, max_size=8)
DESCRIPTORS = st.builds(
    AttackDescriptor,
    st.sampled_from(ATTACK_KINDS),
    st.one_of(
        st.just("-"),
        st.builds("{}:{}".format, st.sampled_from(["input", "recv_check", "output", "fout"]),
                  st.one_of(st.just("*"), st.integers(0, 999))),
        st.builds("{}:{}".format, st.sampled_from(["fgate", "dgate"]), _WIRE_NAME),
        st.builds("ram:{}".format, st.sampled_from(RAM_TROJANS)),
    ),
    st.one_of(
        st.just(("always",)),
        st.tuples(st.sampled_from(["at_cycle", "after_cycle"]), st.integers(0, 10**9)),
        st.tuples(st.just("random"), st.floats(0.0, 1.0)),
    ),
    st.one_of(
        st.sampled_from(["flip", "stuck0", "stuck1", "pins:0", "multi:1:1"]),
        st.builds("replay:{}".format, st.integers(1, 4096)),
    ),
)


class TestDescriptors:
    def test_parse_line(self):
        atk = parse_attack_line("logic flip target=fout:3 trigger=at_cycle:120")
        assert atk.kind == "logic" and atk.trigger == ("at_cycle", 120)

    @given(DESCRIPTORS)
    @example(AttackDescriptor("logic", "fout:3", ("at_cycle", 120), "flip"))
    @example(AttackDescriptor("electrical", "-", ("random", 5e-324), "flip"))
    @settings(max_examples=200, deadline=None)
    def test_parse_format_round_trip(self, atk):
        assert parse_attack_line(str(atk)) == atk

    def test_parse_file_skips_comments(self):
        text = "# header\npin flip target=input:0\n\nreliability stuck0 target=fout:1 trigger=after_cycle:10\n"
        atks = parse_attack_file(text)
        assert len(atks) == 2
        assert atks[1].trigger == ("after_cycle", 10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AttackDescriptor("quantum", "x")

    def test_bad_trigger_rejected(self):
        with pytest.raises(ValueError):
            parse_attack_line("pin flip target=input:0 trigger=sometimes")

    @pytest.mark.parametrize("token", ["random:7", "random:-.5", "random:1e"])
    def test_bad_probability_names_line_and_token(self, token):
        text = f"pin flip target=input:0\npin flip target=input:1 trigger={token}\n"
        with pytest.raises(ValueError, match=rf"^line 2: bad trigger '{token}'"):
            parse_attack_file(text)

    def test_probability_bounds_accepted(self):
        for p, value in (("0", 0.0), ("1", 1.0), ("1.0", 1.0), (".25", 0.25), ("2.5e-1", 0.25)):
            assert parse_attack_line(f"electrical flip trigger=random:{p}").trigger == ("random", value)

    def test_unknown_kind_names_line(self):
        with pytest.raises(ValueError, match=r"^line 2: unknown attack kind 'quantum'"):
            parse_attack_file("# header\nquantum flip target=input:0\n")

    @pytest.mark.parametrize("tokens", ["target=input:0 target=input:1", "gate=g1 wire=g2",
                                        "trigger=always trigger=at_cycle:3"])
    def test_repeated_key_rejected(self, tokens):
        with pytest.raises(ValueError, match=r"^line 1: repeated attack key"):
            parse_attack_file(f"logic flip {tokens}\n")


@pytest.fixture(scope="module")
def wide_chip():
    f = random_netlist(10, 48, 16, rng_seed=21, name="wide")
    return build_protected_chip(f, r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=33)


@pytest.fixture(scope="module")
def wide_chip_r8():
    f = random_netlist(24, 60, 16, rng_seed=22, name="wide8")
    return build_protected_chip(f, r=8, t=2, lfsr_spec=lfsr16(8), rng_seed=44)


class TestInjection:
    def test_single_bit_logic_flip_always_detected(self, wide_chip):
        chip = wide_chip
        rng = random.Random(0)
        for trial in range(24):
            chip.clear_attacks()
            chip.reset(trial)
            atk = AttackDescriptor("logic", f"fout:{trial % 16}", ("at_cycle", 2), "flip")
            chip.install_attack(compile_attack(chip, atk))
            enc = StimulusEncoder(chip)
            detected = False
            for _ in range(4):
                x = tuple(rng.getrandbits(1) for _ in range(10))
                res = chip.cycle(x, enc.send(x))
                detected = detected or res.monitor_attack
            assert detected
        chip.clear_attacks()

    def test_parity_null_not_detected_by_decode(self, wide_chip):
        chip = wide_chip
        chip.clear_attacks()
        chip.reset(99)
        atk = AttackDescriptor("decoupling_parity_null", "-", ("after_cycle", 3))
        chip.install_attack(compile_attack(chip, atk))
        enc = StimulusEncoder(chip)
        rec = OutputReceiver(chip)
        rng = random.Random(1)
        receiver_fires = 0
        zeroed = True
        for c in range(300):
            x = tuple(rng.getrandbits(1) for _ in range(10))
            res = chip.cycle(x, enc.send(x))
            receiver_fires += rec.receive(res.outputs, res.out_check)
            if c > 3:
                zeroed &= not any(res.outputs)
        chip.clear_attacks()
        assert receiver_fires == 0  # the all-zero word is always a codeword
        assert zeroed

    def test_electrical_attack_random_capture_flips(self, wide_chip):
        """Per-cycle probabilistic flips on an output wire get caught quickly."""
        chip = wide_chip
        chip.clear_attacks()
        chip.reset(64)
        atk = AttackDescriptor("electrical", "fout:3", ("random", 0.5), "flip")
        chip.install_attack(compile_attack(chip, atk))
        enc = StimulusEncoder(chip)
        rng = random.Random(65)
        detections = 0
        for _ in range(64):
            x = tuple(rng.getrandbits(1) for _ in range(10))
            detections += chip.cycle(x, enc.send(x)).monitor_attack
        chip.clear_attacks()
        # roughly half the cycles flip; single-bit flips are always detected
        assert 16 <= detections <= 48

    def test_ram_trojan_through_campaign(self):
        """A memory trojan rides the error path out to the monitor."""
        f = random_netlist(6, 20, 4, rng_seed=51, name="ramhost")
        chip = build_protected_chip(
            f, r=2, t=2, lfsr_spec=lfsr16(2), rng_seed=52,
            options=ChipOptions(ram_depth=32),
        )
        atk = AttackDescriptor("logic", "ram:read_wrong_data", ("always",), "flip")
        rep = run_campaign(chip, lambda rng: atk, trials=40, cycles_per_trial=12, rng_seed=53)
        assert rep.false_positives == 0
        assert rep.detection_rate > 0.9  # every trial with at least one read fires

    def test_reliability_never_fires_before_activation(self, wide_chip):
        chip = wide_chip
        chip.clear_attacks()
        chip.reset(7)
        atk = AttackDescriptor("reliability", "fout:0", ("after_cycle", 500), "stuck0")
        chip.install_attack(compile_attack(chip, atk))
        enc = StimulusEncoder(chip)
        rng = random.Random(2)
        for c in range(500):
            x = tuple(rng.getrandbits(1) for _ in range(10))
            res = chip.cycle(x, enc.send(x))
            assert not res.monitor_attack, c
        chip.clear_attacks()


class TestCompileValidation:
    """Bad targets fail in compile_attack with a ValueError naming them."""

    @pytest.mark.parametrize("kind,target", [
        ("pin", "input:-1"),       # used to flip the last pin silently
        ("pin", "input:10"),
        ("pin", "input:99"),       # used to raise IndexError mid-run
        ("pin", "input:x"),
        ("pin", "recv_check:3"),
        ("pin", "output:16"),
        ("logic", "fout:99"),      # used to raise a bare IndexError
        ("logic", "fout:-1"),
        ("logic", "fgate:ghost"),  # unknown gate names used to raise a bare KeyError
        ("logic", "dgate:ghost"),
    ])
    def test_out_of_range_target_rejected(self, wide_chip, kind, target):
        with pytest.raises(ValueError, match=re.escape(repr(target))):
            compile_attack(wide_chip, AttackDescriptor(kind, target))

    @pytest.mark.parametrize("kind,target", [
        ("pin", "input:0"), ("pin", "input:9"), ("pin", "recv_check:2"),
        ("pin", "output:15"), ("logic", "fout:15"),
    ])
    def test_boundary_targets_accepted(self, wide_chip, kind, target):
        compile_attack(wide_chip, AttackDescriptor(kind, target))

    @pytest.mark.parametrize("kind,target,payload,takes", [
        ("logic", "dgate:", "stuck2", "dgate targets take flip|stuck0|stuck1"),
        ("logic", "fout:0", "replay:1", "fout targets take flip|stuck0|stuck1"),
        ("pin", "input:0", "stuck0", "input targets take flip"),
    ])
    def test_payload_outside_target_modes_rejected(self, wide_chip, kind, target, payload, takes):
        if target == "dgate:":
            target += wide_chip.resolved.wire_name(wide_chip.resolved.gates[0].out)
        with pytest.raises(ValueError, match=re.escape(f"payload {payload!r}: {takes}") + "$"):
            compile_attack(wide_chip, AttackDescriptor(kind, target, ("always",), payload))

    @pytest.mark.parametrize("payload", ["replay:0", "replay:-2", "replay:4097", "replay:deep"])
    def test_replay_depth_beyond_history_rejected(self, wide_chip, payload):
        # such an attack never engages, and would be scored as undetected
        with pytest.raises(ValueError, match=re.escape(repr(payload))):
            compile_attack(wide_chip, AttackDescriptor("decoupling_stored_state", "-",
                                                       ("always",), payload))

    @pytest.mark.parametrize("prefix", ["fgate", "dgate"])
    def test_unnamed_wire_names_resolve(self, wide_chip, tmp_path, prefix):
        """fgate:/dgate: take the w<id> name a bundle writes for an unnamed wire."""
        def net_of(chip):
            return chip.f if prefix == "fgate" else chip.resolved

        net = net_of(wide_chip)
        w = next(g.out for g in net.gates if g.out not in net.wire_names)
        name = net.wire_name(w)
        save_chip_bundle(wide_chip, tmp_path)
        twin = load_chip_bundle(tmp_path)
        for chip in (wide_chip, twin):
            eff = compile_attack(chip, AttackDescriptor("logic", f"{prefix}:{name}"))
            (wire, mode), = (eff.f_overrides or eff.d_overrides).items()
            assert net_of(chip).wire_name(wire) == name and mode == "flip"
        assert net.wire(name) == w

    @pytest.mark.parametrize("kind,target,trigger,payload,field", [
        ("logic", "fout:0", ("always",), "stuk0", "payload 'stuk0'"),  # used to run as a flip
        ("logic", "fout:0", ("always",), "multi:2", "payload 'multi:2'"),
        ("electrical", "dgate:w0", ("always",), "replay:2", "payload 'replay:2'"),
        ("logic", "input:0", ("always",), "stuck1", "payload 'stuck1'"),  # pads take only flip
        ("electrical", "recv_check:0", ("always",), "bogus", "payload 'bogus'"),
        ("pin", "output:0", ("always",), "stuck0", "payload 'stuck0'"),
        ("logic", "ram:read_wrong_data", ("always",), "stuck0", "payload 'stuck0'"),
        # used to drop its target and payload
        ("decoupling_parity_null", "fout:0", ("always",), "stuck1", "target 'fout:0'"),
        ("decoupling_parity_null", "-", ("always",), "stuck1", "payload 'stuck1'"),
        ("decoupling_stored_state", "input:0", ("always",), "replay:2", "target 'input:0'"),
        ("decoupling_stored_state", "-", ("always",), "stuck0", "payload 'stuck0'"),
        # used to become ("after_cycle", 0.5), a float cycle
        ("reliability", "fout:0", ("random", 0.5), "stuck0", "trigger 'random:0.5'"),
        ("logic", "-", ("always",), "flip", "unknown target '-'"),
        ("logic", "ram:read_wrong_data", ("always",), "flip",
         "target 'ram:read_wrong_data': the chip has no RAM"),
    ])
    def test_misread_descriptor_refused(self, wide_chip, kind, target, trigger, payload, field):
        atk = AttackDescriptor(kind, target, trigger, payload)
        with pytest.raises(ValueError, match=f"^attack {re.escape(repr(str(atk)))}: "
                                             f"{re.escape(field)}"):
            compile_attack(wide_chip, atk)

    def test_unknown_ram_trojan_refused(self):
        f = random_netlist(6, 20, 4, rng_seed=51, name="ramhost")
        chip = build_protected_chip(f, r=2, t=2, lfsr_spec=lfsr16(2), rng_seed=52,
                                    options=ChipOptions(ram_depth=16))
        with pytest.raises(ValueError, match="target 'ram:read_everything': expected one of"):
            compile_attack(chip, AttackDescriptor("logic", "ram:read_everything"))
        compile_attack(chip, AttackDescriptor("logic", f"ram:{RAM_TROJANS[0]}"))

    @pytest.mark.parametrize("target,payload", [("fout:*", "stuck0"), ("fout:*", "multi:0"),
                                                ("fout:*", "multi:x"), ("input:*", "stuck1"),
                                                ("input:*", "pins:-1")])
    def test_misread_wildcard_refused(self, wide_chip, target, payload):
        kind = "logic" if target == "fout:*" else "pin"
        atk = AttackDescriptor(kind, target, ("at_cycle", -1), payload)
        with pytest.raises(ValueError, match=f"^attack .*: payload {re.escape(repr(payload))}"):
            run_campaign(wide_chip, lambda rng: atk, trials=1, cycles_per_trial=4, rng_seed=1)

    @pytest.mark.parametrize("kind,target,payload", [
        ("reliability", "fout:*", "flip"), ("electrical", "fout:*", "multi:2"),
        ("pin", "fout:*", "flip"), ("logic", "input:*", "flip"),
        ("reliability", "input:*", "pins:0")])
    def test_wildcard_of_another_kind_refused(self, wide_chip, kind, target, payload):
        """A wildcard builds one kind of effect, so any other kind would be misread."""
        atk = AttackDescriptor(kind, target, ("after_cycle", 3), payload)
        expected = "logic" if target == "fout:*" else "pin"
        with pytest.raises(ValueError, match=f"^attack '{re.escape(str(atk))}': kind '{kind}': "
                                             f"target {re.escape(target)} takes only {expected} "):
            run_campaign(wide_chip, lambda rng: atk, trials=1, cycles_per_trial=4, rng_seed=1)

    @pytest.mark.parametrize("line", ["reliability stuck1 target=fout:0 trigger=at_cycle:2",
                                      "reliability stuck0 target=fout:1 trigger=always"])
    def test_reliability_engages_after_its_cycle(self, wide_chip, line):
        eff = compile_attack(wide_chip, parse_attack_line(line))
        assert eff.trigger == ("after_cycle", 2 if "at_cycle" in line else 0)

    def test_deepest_replay_accepted(self, wide_chip):
        eff = compile_attack(wide_chip, AttackDescriptor("decoupling_stored_state", "-",
                                                         ("always",), "replay:4096"))
        assert eff.replay_depth == 4096


class TestCampaigns:
    def test_reliability_stays_permanent(self, wide_chip, monkeypatch):
        """A campaign trial matches a one-lane run with the attack installed,
        cycle for cycle, past activation.

        Campaigns run a trial armed in lane 0 and as its control in lane 1 of
        one chip, so the armed run is bit 0 of every value the spy sees.
        """
        chip = wide_chip
        chip.clear_attacks()
        atk = parse_attack_line("reliability stuck1 target=fout:0 trigger=at_cycle:2")
        sessions, cycles = [], []
        reset, cycle = chip.reset, chip.cycle

        def spy_cycle(*args, **kwargs):
            res = cycle(*args, **kwargs)
            cycles.append((args, res))
            return res

        monkeypatch.setattr(chip, "reset", lambda seeds: (sessions.append(seeds), reset(seeds)))
        monkeypatch.setattr(chip, "cycle", spy_cycle)
        run_campaign(chip, lambda rng: atk, trials=1, cycles_per_trial=12, rng_seed=5)
        monkeypatch.undo()

        def lane0(values):
            return tuple(v & 1 for v in values)

        assert len(cycles) == 12 and len(sessions) == 1
        chip.reset(sessions[0][0])
        chip.install_attack(compile_attack(chip, atk))
        try:
            for (x, rc), res in cycles:
                again = chip.cycle(lane0(x), lane0(rc))
                assert (again.outputs, again.error_signal) == (lane0(res.outputs),
                                                               lane0(res.error_signal))
        finally:
            chip.clear_attacks()

    @pytest.mark.parametrize("trials,cycles,name", [(0, 4, "trials"), (-3, 4, "trials"),
                                                    (5, 0, "cycles_per_trial"),
                                                    (5, -3, "cycles_per_trial")])
    def test_counts_below_one_refused(self, wide_chip, trials, cycles, name):
        """Refused before any trial runs, not mid-campaign."""
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            run_campaign(wide_chip, uniform_output_flip_attacks(2), trials, cycles, rng_seed=1)

    def test_multibit_r3_rate(self, wide_chip):
        rep = run_campaign(wide_chip, uniform_output_flip_attacks(2), 4000, 4, rng_seed=7)
        assert rep.false_positives == 0
        assert abs(rep.detection_rate - 0.875) <= 0.01

    def test_pin_r8_rate(self, wide_chip_r8):
        rep = run_campaign(wide_chip_r8, pin_flips, 4000, 4, rng_seed=8)
        assert rep.false_positives == 0
        assert abs(rep.detection_rate - 0.996) <= 0.003

    def test_single_bit_rate_is_one(self, wide_chip):
        rep = run_campaign(wide_chip, single_output_flips, 1200, 4, rng_seed=9)
        assert rep.detection_rate == 1.0 and rep.false_positives == 0

    def test_attack_free_is_silent(self, wide_chip):
        rep = run_campaign(wide_chip, lambda rng: None, 300, 6, rng_seed=10)
        assert rep.detected == 0 and rep.false_positives == 0

    def test_report_counts_come_from_its_records(self):
        records = [TrialRecord(0, "logic", True, 2), TrialRecord(1, "none", False, None),
                   TrialRecord(2, "pin", False, None), TrialRecord(3, "logic", False, None)]
        rep = DetectionReport(1, records)
        assert (rep.trials, rep.detected) == (4, 1)
        assert rep.by_kind == {"logic": (2, 1), "pin": (1, 0)}
        assert rep.to_csv().endswith("summary,all,1/4,rate=0.250000;false_positives=1\n")

    def test_confidence_interval_brackets_rate(self, wide_chip):
        rep = run_campaign(wide_chip, uniform_output_flip_attacks(2), 500, 4, rng_seed=11)
        lo, hi = rep.confidence_interval()
        assert lo <= rep.detection_rate <= hi


class TestAnalytics:
    TABLE = [
        (per_sb_attack_probability, (0.5, 64), "5.4e-20"),
        (per_sb_attack_probability, (0.5, 72), "2.1e-22"),
        (per_sb_attack_probability, (0.5, 80), "8.3e-25"),
        (per_sb_attack_probability, (0.5001, 64), "5.5e-20"),
        (per_sb_attack_probability, (0.5001, 72), "2.1e-22"),
        (per_sb_attack_probability, (0.5001, 80), "8.4e-25"),
        (per_sb_attack_probability, (0.0, 64), "0.0"),
        (per_sb_attack_probability, (0.0, 72), "0.0"),
        (per_sb_attack_probability, (0.0, 80), "0.0"),
        (cp_attack_probability, (0.1, 64), "1.18e-3"),
        (cp_attack_probability, (0.1, 72), "5.08e-4"),
        (cp_attack_probability, (0.1, 80), "2.18e-4"),
        (cp_attack_probability, (0.05, 64), "0.0375"),
        (cp_attack_probability, (0.05, 72), "0.0249"),
        (cp_attack_probability, (0.05, 80), "0.0165"),
    ]

    @pytest.mark.parametrize("fn,args,display", TABLE)
    def test_table_cells_at_displayed_precision(self, fn, args, display):
        shown = float(display)
        got = fn(*args)
        if shown == 0.0:
            assert got == 0.0
        else:
            digits = len(display.split("e")[0].replace("0.", "").replace(".", "").lstrip("0"))
            rounded = float(f"%.{digits - 1}e" % got)
            assert rounded == pytest.approx(shown, rel=1e-9)

    def test_edge_cases(self):
        assert cp_attack_probability(0, 100) == 1.0
        assert per_sb_attack_probability(1, 100) == 1.0
        with pytest.raises(ValueError):
            cp_attack_probability(1.5, 2)
        with pytest.raises(ValueError):
            per_sb_attack_probability(0.5, -1)


class TestSubcircuitMatching:
    def test_unobfuscated_predictor_is_vulnerable(self):
        """Aligned copies inside a bare predictor let double flips cancel."""
        f = random_netlist(8, 40, 8, rng_seed=13, name="victim")
        h = sample_parity_code(8, 4, 2)
        ocp = build_ocp(f, h)
        rate = subcircuit_match_attack(f, ocp, h, trials=400, rng_seed=3,
                                       max_size=6, min_size=3)
        assert rate > 0.3

    def test_identity_code_aligned_copy_cancels(self, alu2):
        h = ParityCheckMatrix(((1, 0), (0, 1)))
        ocp = build_ocp(alu2, h)
        rate = subcircuit_match_attack(alu2, ocp, h, trials=300, rng_seed=1,
                                       max_size=4, min_size=2)
        assert rate > 0.5

    def test_obfuscated_parity_predictor_resists(self):
        """Dense switchbox insertion drives matched-flip success to zero."""
        f = random_netlist(8, 40, 8, rng_seed=13, name="victim")
        h = sample_parity_code(8, 4, 2)
        ocp = build_ocp(f, h)
        obf = insert_switchboxes(ocp, t=3, rng_seed=5, min_switchboxes=48)
        hardened = apply_config(obf, obf.intended)
        rate = subcircuit_match_attack(f, hardened, h, trials=1000, rng_seed=3,
                                       max_size=6, min_size=3)
        assert rate == 0.0

    def test_sampled_probes_draw_as_single_bits(self):
        # more than 12 inputs: 64 random probes per trial; the rate and the
        # generator's end state as recorded with one getrandbits(1) per bit
        f = random_netlist(14, 60, 6, rng_seed=13, name="wide")
        h = sample_parity_code(6, 2, 2)
        rng = random.Random(3)
        rate = subcircuit_match_attack(f, build_ocp(f, h), h, trials=200, rng_seed=rng,
                                       max_size=4, min_size=2)
        assert (rate, rng.getrandbits(64)) == (0.21, 9125985337596136000)

    def test_no_isomorphic_subcircuits_means_zero(self):
        # a predictor made of gates absent from f cannot host a match
        from tpad.netlist import parse_netlist

        f = parse_netlist(
            ".inputs a b c d\n.outputs p q\np = XOR(a, b)\nq = XOR(c, d)\n"
        )
        alien = parse_netlist(
            ".inputs a b c d\n.outputs p q\np = NOR(a, b)\nq = NOR(c, d)\n"
        )
        h = ParityCheckMatrix(((1, 0), (0, 1)))
        rate = subcircuit_match_attack(f, alien, h, trials=50, rng_seed=3, min_size=1)
        assert rate == 0.0


class TestDecouplingCost:
    def test_fft_zero_128_points(self):
        assert decoupling_cost("fft_zero", fft_points=128) == {
            "transistors": 15360,
            "flip_flops": 0,
        }

    def test_parity_null_degenerate(self):
        assert decoupling_cost("parity_null", outputs=0, check_bits=3) == {
            "transistors": 0,
            "flip_flops": 3,
        }

    def test_parity_null_general(self):
        assert decoupling_cost("parity_null", outputs=16, check_bits=8) == {
            "transistors": 32,
            "flip_flops": 8,
        }

    def test_stored_state(self):
        assert decoupling_cost("stored_state", flip_flops=96)["flip_flops"] == 96

    def test_missing_field(self):
        with pytest.raises(ValueError):
            decoupling_cost("fft_zero")


class TestDestructiveSampling:
    def test_exact_anchor_a1(self):
        assert destructive_detection_probability(100_000, 1, 99_000) == pytest.approx(0.99)

    def test_zero_samples(self):
        assert destructive_detection_probability(1000, 10, 0) == 0.0

    def test_exhausted_good_chips(self):
        assert destructive_detection_probability(100, 5, 96) == 1.0

    @given(st.integers(2, 400), st.integers(0, 12), st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_t_and_a(self, n, a, t):
        a = min(a, n)
        t = min(t, n - 1)
        p = destructive_detection_probability(n, a, t)
        assert destructive_detection_probability(n, a, t + 1) >= p - 1e-12
        if a < n:
            assert destructive_detection_probability(n, a + 1, t) >= p - 1e-12

    def test_matches_monte_carlo_grid(self):
        rng_seed = 0
        trials = 8000
        for n, a, t in [(200, 1, 40), (200, 5, 40), (1000, 20, 100), (1000, 5, 300)]:
            exact = destructive_detection_probability(n, a, t)
            est = simulate_destructive_sampling(n, a, t, trials, rng_seed=rng_seed)
            sigma = math.sqrt(max(exact * (1 - exact), 1e-9) / trials)
            assert abs(est - exact) <= 3 * sigma + 1e-9

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            destructive_detection_probability(10, 11, 0)
        with pytest.raises(ValueError):
            destructive_detection_probability(10, 1, 11)
