import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tpad.attacks
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
    plan_attack,
    run_campaign,
    simulate_destructive_sampling,
    subcircuit_match_attack,
    uniform_output_flip_attacks,
)
from tpad.chip import (
    HISTORY_DEPTH,
    AttackEffect,
    ChipOptions,
    OutputReceiver,
    StimulusEncoder,
    _Group,
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
        st.just(("at_cycle", -1)),
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

    def test_drawn_cycle_round_trips_and_no_other_negative_cycle(self):
        atk = uniform_output_flip_attacks()(None)
        assert parse_attack_line(str(atk)) == atk and atk.trigger == ("at_cycle", -1)
        for token in ("at_cycle:-2", "at_cycle:-0", "after_cycle:-1"):
            with pytest.raises(ValueError, match=f"^bad trigger '{token}'"):
                parse_attack_line(f"logic flip target=fout:0 trigger={token}")

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
            chip.install_attack(compile_attack(chip, atk, random.Random(0), 4))
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
        chip.install_attack(compile_attack(chip, atk, random.Random(0), 300))
        enc = StimulusEncoder(chip)
        rec = OutputReceiver(chip)
        rng = random.Random(1)
        receiver_fires = 0
        zeroed = True
        for c in range(300):
            x = tuple(rng.getrandbits(1) for _ in range(10))
            res = chip.cycle(x, enc.send(x))
            receiver_fires += rec.receive(res.outputs, *res.out_checks)
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
        chip.install_attack(compile_attack(chip, atk, random.Random(0), 64))
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
        chip.install_attack(compile_attack(chip, atk, random.Random(0), 600))
        enc = StimulusEncoder(chip)
        rng = random.Random(2)
        fired = []
        for c in range(600):
            x = tuple(rng.getrandbits(1) for _ in range(10))
            res = chip.cycle(x, enc.send(x))
            if res.monitor_attack:
                fired.append(c)
        chip.clear_attacks()
        assert fired and fired[0] >= 500, fired[:1]


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
            compile_attack(wide_chip, AttackDescriptor(kind, target), random.Random(0), 8)

    @pytest.mark.parametrize("kind,target", [
        ("pin", "input:0"), ("pin", "input:9"), ("pin", "recv_check:2"),
        ("pin", "output:15"), ("logic", "fout:15"),
    ])
    def test_boundary_targets_accepted(self, wide_chip, kind, target):
        compile_attack(wide_chip, AttackDescriptor(kind, target), random.Random(0), 8)

    @pytest.mark.parametrize("kind,target,payload,takes", [
        ("logic", "dgate:", "stuck2", "dgate targets take flip|stuck0|stuck1"),
        ("logic", "fout:0", "replay:1", "fout targets take flip|stuck0|stuck1"),
        ("pin", "input:0", "stuck0", "input targets take flip"),
    ])
    def test_payload_outside_target_modes_rejected(self, wide_chip, kind, target, payload, takes):
        if target == "dgate:":
            target += wide_chip.resolved.wire_name(wide_chip.resolved.gates[0].out)
        with pytest.raises(ValueError, match=re.escape(f"payload {payload!r}: {takes}") + "$"):
            compile_attack(wide_chip, AttackDescriptor(kind, target, ("always",), payload),
                           random.Random(0), 8)

    @pytest.mark.parametrize("payload", ["replay:0", "replay:-2", "replay:4097", "replay:deep"])
    def test_replay_depth_beyond_history_rejected(self, wide_chip, payload):
        # such an attack never engages, and would be scored as undetected
        with pytest.raises(ValueError, match=re.escape(repr(payload))):
            compile_attack(wide_chip, AttackDescriptor("decoupling_stored_state", "-",
                                                       ("always",), payload), random.Random(0), 8)

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
            eff = compile_attack(chip, AttackDescriptor("logic", f"{prefix}:{name}"),
                                 random.Random(0), 8)
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
            compile_attack(wide_chip, atk, random.Random(0), 8)

    def test_unknown_ram_trojan_refused(self):
        f = random_netlist(6, 20, 4, rng_seed=51, name="ramhost")
        chip = build_protected_chip(f, r=2, t=2, lfsr_spec=lfsr16(2), rng_seed=52,
                                    options=ChipOptions(ram_depth=16))
        with pytest.raises(ValueError, match="target 'ram:read_everything': expected one of"):
            compile_attack(chip, AttackDescriptor("logic", "ram:read_everything"),
                           random.Random(0), 8)
        compile_attack(chip, AttackDescriptor("logic", f"ram:{RAM_TROJANS[0]}"),
                       random.Random(0), 8)

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
        eff = compile_attack(wide_chip, parse_attack_line(line), random.Random(0), 8)
        assert eff.trigger == ("after_cycle", 2 if "at_cycle" in line else 0)

    def test_deepest_replay_accepted(self, wide_chip):
        eff = compile_attack(wide_chip, AttackDescriptor("decoupling_stored_state", "-",
                                                         ("always",), "replay:4096"),
                             random.Random(0), 8)
        assert eff.replay_depth == 4096


@pytest.fixture(scope="module")
def ram_chip():
    f = random_netlist(6, 20, 4, rng_seed=51, name="ramhost")
    return build_protected_chip(f, r=2, t=2, lfsr_spec=lfsr16(2), rng_seed=52,
                                options=ChipOptions(ram_depth=16))


# campaign wildcard target -> (the one kind it takes, the payloads it takes, and how to write them)
ORACLE_WILDCARDS = {
    "fout:*": ("logic", re.compile(r"flip|multi:[1-9]\d*(:\d+)?"), "flip|multi:<lo>[:<hi>]"),
    "input:*": ("pin", re.compile(r"flip|pins:\d+"), "flip|pins:<cap>"),
}


def materialize(chip, atk, rng, cycles):
    """run_campaign's former expansion of campaign wildcards (random position, weight and
    cycle), the oracle of compile_attack's draws. Any other target goes to compile_attack
    with the drawn cycle, so it draws nothing there."""
    if atk.target in ORACLE_WILDCARDS:
        kind, form, expected = ORACLE_WILDCARDS[atk.target]
        if not form.fullmatch(atk.payload):
            raise ValueError(f"attack '{atk}': payload {atk.payload!r}: "
                             f"target {atk.target} takes {expected}")
        if atk.kind != kind:
            raise ValueError(f"attack '{atk}': kind {atk.kind!r}: "
                             f"target {atk.target} takes only {kind} attacks")
    trigger = atk.trigger
    if trigger == ("at_cycle", -1):
        trigger = ("at_cycle", rng.randrange(cycles))
    if atk.target == "fout:*":
        k = len(chip.f.outputs)
        if atk.payload.startswith("multi:"):
            parts = atk.payload.split(":")
            lo = min(int(parts[1]), k)
            hi = int(parts[2]) if len(parts) > 2 else k
            w = rng.randint(lo, max(lo, min(hi, k)))
        else:
            w = 1
        wires = rng.sample(list(chip.f.outputs), min(w, k))
        return AttackEffect(kind="logic", trigger=trigger,
                            f_overrides={wv: "flip" for wv in wires})
    if atk.target == "input:*":
        m = len(chip.f.inputs)
        cap = int(atk.payload[5:]) if atk.payload.startswith("pins:") else 0
        w = rng.randint(1, max(1, min(cap or m, m)))
        pins = tuple(rng.sample(range(m), w))
        return AttackEffect(kind="pin", trigger=trigger, input_flips=pins)
    # compile with the drawn cycle, so a reliability attack stays permanent
    return compile_attack(chip, AttackDescriptor(atk.kind, atk.target, trigger, atk.payload),
                          rng, cycles)


@st.composite
def chip_descriptors(draw, chip, cycles):
    """Descriptors of every target kind a campaign runs on `chip`, all valid for `cycles`."""
    k, m = len(chip.f.outputs), len(chip.f.inputs)
    names = {net: [net.wire_name(g.out) for g in net.gates[:6]] for net in (chip.f, chip.resolved)}
    fixed = st.one_of(st.integers(0, cycles - 1).map(lambda c: ("at_cycle", c)),
                      st.integers(0, cycles - 1).map(lambda c: ("after_cycle", c)),
                      st.just(("always",)))
    trigger = draw(st.one_of(st.just(("at_cycle", -1)), fixed,
                             st.sampled_from([("random", 0.0), ("random", 0.3), ("random", 1.0)])))
    wire_target = st.one_of(st.integers(0, k - 1).map(lambda i: f"fout:{i}"),
                            st.sampled_from(names[chip.f]).map(lambda n: f"fgate:{n}"),
                            st.sampled_from(names[chip.resolved]).map(lambda n: f"dgate:{n}"))
    mode = st.sampled_from(["flip", "stuck0", "stuck1"])
    shapes = [
        st.tuples(st.just("logic"), st.just("fout:*"), st.one_of(
            st.just("flip"), st.integers(1, k + 3).map(lambda lo: f"multi:{lo}"),
            st.tuples(st.integers(1, k + 3), st.integers(0, k + 3)).map(
                lambda lh: f"multi:{lh[0]}:{lh[1]}"))),
        st.tuples(st.just("pin"), st.just("input:*"), st.one_of(
            st.just("flip"), st.integers(0, m + 3).map(lambda cap: f"pins:{cap}"))),
        st.tuples(st.sampled_from(["logic", "electrical"]), wire_target, mode),
        st.tuples(st.just("pin"), st.one_of(
            st.integers(0, m - 1).map(lambda i: f"input:{i}"),
            st.integers(0, chip.r - 1).map(lambda i: f"recv_check:{i}"),
            st.integers(0, k - 1).map(lambda i: f"output:{i}")), st.just("flip")),
        st.tuples(st.just("decoupling_stored_state"), st.just("-"), st.one_of(
            st.just("flip"), st.integers(1, 8).map(lambda j: f"replay:{j}"))),
        st.tuples(st.just("decoupling_parity_null"), st.just("-"), st.just("flip")),
    ]
    if chip.ram is not None:
        shapes.append(st.tuples(st.just("logic"), st.sampled_from(RAM_TROJANS).map(
            lambda row: f"ram:{row}"), st.just("flip")))
    kind, target, payload = draw(st.one_of(shapes))
    if kind in ("logic", "electrical") and target != "fout:*" and draw(st.booleans()):
        kind = "reliability"  # permanent from a cycle: no random trigger
        if trigger[0] == "random":
            trigger = draw(fixed)
    return AttackDescriptor(kind, target, trigger, payload)


class TestCompileDraws:
    """compile_attack makes a campaign trial's draws as the former expansion did, and
    refuses a trigger that fires on no cycle of the run."""

    @pytest.mark.parametrize("chip_name", ["wide_chip", "ram_chip"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_effects_and_draws_as_the_former_expansion(self, request, chip_name, data):
        chip = request.getfixturevalue(chip_name)
        cycles = data.draw(st.integers(1, 40), label="cycles")
        atk = data.draw(chip_descriptors(chip, cycles), label="descriptor")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = materialize(chip, atk, want_rng, cycles)
        got = compile_attack(chip, atk, got_rng, cycles)
        assert got == want
        assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("kind,trigger,payload", [
        ("logic", ("at_cycle", 8), "flip"), ("logic", ("at_cycle", 120), "flip"),
        ("logic", ("after_cycle", 8), "flip"),
        ("reliability", ("at_cycle", 8), "stuck0"), ("reliability", ("after_cycle", 9), "stuck1"),
    ])
    def test_trigger_that_cannot_fire_refused(self, wide_chip, kind, trigger, payload):
        """Such an attack installs and never fires, so its trials would read as missed."""
        atk = AttackDescriptor(kind, "fout:0", trigger, payload)
        shown = ":".join(map(str, trigger))
        with pytest.raises(ValueError, match=f"^attack {re.escape(repr(str(atk)))}: trigger "
                                             f"'{shown}': fires on no cycle of a run of 8 cycles$"):
            compile_attack(wide_chip, atk, random.Random(0), 8)

    @pytest.mark.parametrize("kind", ["logic", "reliability"])
    def test_negative_cycle_refused_by_check_trigger(self, wide_chip, kind):
        """Only at_cycle:-1 is drawn; the plan checks the trigger after that stands in."""
        atk = AttackDescriptor(kind, "fout:0", ("at_cycle", -2), "stuck0")
        with pytest.raises(ValueError, match=re.escape(
                f"attack '{atk}': trigger ('at_cycle', -2) fires on no cycle")):
            compile_attack(wide_chip, atk, random.Random(0), 8)

    def test_decoupling_trigger_that_cannot_fire_refused(self, wide_chip):
        atk = AttackDescriptor("decoupling_parity_null", "-", ("after_cycle", 8))
        with pytest.raises(ValueError, match="trigger 'after_cycle:8': fires on no cycle"):
            compile_attack(wide_chip, atk, random.Random(0), 8)

    @pytest.mark.parametrize("kind,trigger,compiled", [
        ("logic", ("at_cycle", 0), ("at_cycle", 0)), ("logic", ("at_cycle", 7), ("at_cycle", 7)),
        ("logic", ("after_cycle", 7), ("after_cycle", 7)),
        ("logic", ("after_cycle", -3), ("after_cycle", -3)),  # fires from the first cycle
        ("reliability", ("at_cycle", 7), ("after_cycle", 7)),
    ])
    def test_trigger_on_a_cycle_of_the_run_accepted(self, wide_chip, kind, trigger, compiled):
        atk = AttackDescriptor(kind, "fout:0", trigger, "stuck1")
        assert compile_attack(wide_chip, atk, random.Random(0), 8).trigger == compiled

    @pytest.mark.parametrize("trigger", [("sometimes",), ("bogus", 3), ("at_cycle", 1.5)])
    def test_malformed_reliability_trigger_refused(self, wide_chip, trigger):
        """A reliability attack becomes after_cycle, so a bad trigger would be misread."""
        atk = AttackDescriptor("reliability", "fout:0", trigger, "stuck0")
        with pytest.raises(ValueError,
                           match=f"^attack .*: unknown trigger {re.escape(repr(trigger))}$"):
            compile_attack(wide_chip, atk, random.Random(0), 8)

    @settings(max_examples=50, deadline=None)
    @given(cycles=st.integers(1, 300), seed=st.integers(0, 2**32))
    def test_random_cycle_falls_in_the_run(self, wide_chip, cycles, seed):
        atk = AttackDescriptor("reliability", "fout:0", ("at_cycle", -1), "stuck0")
        mode, cycle = compile_attack(wide_chip, atk, random.Random(seed), cycles).trigger
        assert mode == "after_cycle" and 0 <= cycle < cycles

    def test_campaign_refuses_before_any_trial(self, wide_chip, monkeypatch):
        monkeypatch.setattr(tpad.attacks, "_run_lanes", None)  # running a trial would fail
        atk = parse_attack_line("logic flip target=fout:0 trigger=at_cycle:9")
        with pytest.raises(ValueError, match="^attack 'logic flip target=fout:0 trigger="
                                             "at_cycle:9': trigger 'at_cycle:9': fires on no "
                                             "cycle of a run of 8 cycles$"):
            run_campaign(wide_chip, lambda rng: atk, trials=20, cycles_per_trial=8, rng_seed=1)


# descriptors chip_descriptors never makes, many of them refused
ANY_DESCRIPTORS = st.builds(
    AttackDescriptor,
    st.sampled_from(ATTACK_KINDS),
    st.sampled_from(["-", "fout:0", "fout:99", "fout:*", "input:*", "input:-1", "recv_check:7",
                     "output:2", "fgate:nosuch", "ram:nosuch", "ram:does_not_read", "bogus:1"]),
    st.sampled_from([("at_cycle", -1), ("at_cycle", 3), ("at_cycle", 99), ("after_cycle", 50),
                     ("always",), ("random", 0.5), ("bogus",)]),
    st.sampled_from(["flip", "stuck0", "replay:0", "replay:3", "multi:2", "pins:3", "bogus"]))


class TestPlanReuse:
    """One plan_attack plan drawn k times makes what k compile_attack calls make."""

    @pytest.mark.parametrize("chip_name", ["wide_chip", "ram_chip"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_plan_draws_as_fresh_compiles(self, request, chip_name, data):
        chip = request.getfixturevalue(chip_name)
        cycles = data.draw(st.integers(1, 40), label="cycles")
        atk = data.draw(st.one_of(chip_descriptors(chip, cycles), ANY_DESCRIPTORS),
                        label="descriptor")
        k = data.draw(st.integers(1, 5), label="k")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        plan_rng, fresh_rng = random.Random(seed), random.Random(seed)
        try:
            draw = plan_attack(chip, atk, cycles)
        except ValueError as e:
            with pytest.raises(ValueError) as fresh:
                compile_attack(chip, atk, fresh_rng, cycles)
            assert str(fresh.value) == str(e)
            assert fresh_rng.getstate() == plan_rng.getstate()  # refused before any draw
            return
        planned = [draw(plan_rng) for _ in range(k)]
        assert planned == [compile_attack(chip, atk, fresh_rng, cycles) for _ in range(k)]
        assert plan_rng.getstate() == fresh_rng.getstate()

    def test_campaign_plans_each_descriptor_once(self, wide_chip, monkeypatch):
        planned = []
        plan = tpad.attacks.plan_attack
        monkeypatch.setattr(tpad.attacks, "plan_attack",
                            lambda chip, atk, cycles: planned.append(atk) or plan(chip, atk, cycles))
        mix = [AttackDescriptor("logic", "fout:*", ("at_cycle", -1)),
               AttackDescriptor("pin", "input:*", ("at_cycle", -1))]
        report = run_campaign(wide_chip, lambda rng: rng.choice(mix), 300, 8, rng_seed=4)
        assert report.trials == 300 and sorted(map(str, planned)) == sorted(map(str, mix))


class TestInstallRefusals:
    """install_attack refuses an effect it cannot run, naming the field, before any cycle."""

    @pytest.mark.parametrize("fields, match", [
        ({"input_flips": (12,)}, r"^input_flips: index 12 is outside range\(10\)$"),
        ({"input_flips": (-1,)}, r"^input_flips: index -1 is outside range\(10\)$"),
        ({"input_flips": (0, 10)}, r"^input_flips: index 10 is outside range\(10\)$"),
        ({"recv_flips": (3,)}, r"^recv_flips: index 3 is outside range\(3\)$"),
        ({"recv_flips": (-4,)}, r"^recv_flips: index -4 is outside range\(3\)$"),
        ({"output_flips": (40,)}, r"^output_flips: index 40 is outside range\(16\)$"),
        ({"output_flips": (-1,)}, r"^output_flips: index -1 is outside range\(16\)$"),
        ({"kind": "decoupling_stored_state", "replay_depth": 0},
         rf"^replay_depth: 0 is outside \[1, {HISTORY_DEPTH}\]$"),
        ({"kind": "decoupling_stored_state", "replay_depth": 5000},
         rf"^replay_depth: 5000 is outside \[1, {HISTORY_DEPTH}\]$"),
        ({"ram_trojan": "nosuch"}, r"^ram_trojan 'nosuch': the chip has no RAM$"),
        ({"ram_trojan": "does_not_read"}, r"^ram_trojan 'does_not_read': the chip has no RAM$"),
    ])
    def test_bad_effect_refused(self, wide_chip, fields, match):
        chip = wide_chip
        chip.clear_attacks()
        chip.reset(3)
        with pytest.raises(ValueError, match=match):
            chip.install_attack(AttackEffect(**{"kind": "pin", **fields}))
        assert chip.attacks == [] and chip.cycle_count == 0

    def test_unknown_ram_trojan_refused_on_a_ram_chip(self, ram_chip):
        ram_chip.clear_attacks()
        with pytest.raises(ValueError, match="^ram_trojan 'nosuch': expected one of read_wrong_"):
            ram_chip.install_attack(AttackEffect("logic", ram_trojan="nosuch"))
        assert ram_chip.attacks == []

    @pytest.mark.parametrize("fields", [
        {"input_flips": (0, 9)}, {"recv_flips": (2,)}, {"output_flips": (0, 15)},
        {"kind": "decoupling_stored_state", "replay_depth": 1},
        {"kind": "decoupling_stored_state", "replay_depth": HISTORY_DEPTH},
    ])
    def test_edge_of_range_installs(self, wide_chip, fields):
        chip = wide_chip
        chip.clear_attacks()
        chip.reset(3)
        chip.install_attack(AttackEffect(**{"kind": "pin", **fields}))
        chip.cycle((0,) * 10, chip.prev_in_check)
        chip.clear_attacks()


class TestTriggerGroups:
    def test_triggered_asked_only_for_random_groups(self, wide_chip, monkeypatch):
        """A batch merges its attacks by trigger; only random triggers draw per lane."""
        asked = []
        triggered = _Group.triggered
        monkeypatch.setattr(_Group, "triggered",
                            lambda self, *args: asked.append(self.p) or triggered(self, *args))
        dgate = wide_chip.resolved.wire_name(wide_chip.resolved.gates[0].out)
        mix = [AttackDescriptor("logic", "fout:*", ("at_cycle", -1), "multi:2"),
               AttackDescriptor("pin", "input:*", ("at_cycle", -1), "pins:0"),
               AttackDescriptor("logic", f"dgate:{dgate}", ("at_cycle", -1)),
               AttackDescriptor("decoupling_stored_state", "-", ("after_cycle", 2), "replay:2"),
               AttackDescriptor("decoupling_parity_null", "-", ("after_cycle", 1)),
               AttackDescriptor("logic", "fout:3", ("always",))]
        run_campaign(wide_chip, lambda rng: rng.choice(mix), 100, 8, rng_seed=6)
        assert asked == []
        coin = parse_attack_line("pin flip target=input:0 trigger=random:0.5")
        run_campaign(wide_chip, lambda rng: coin, 3, 8, rng_seed=6)
        assert asked == [0.5] * 3 * 8  # one group per trial, asked each cycle


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
        chip.install_attack(compile_attack(chip, atk, random.Random(0), 12))
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

    def test_sampled_probes_draw_as_lane_ints(self):
        # more than 12 inputs: 64 random probes per trial, one getrandbits(64)
        # lane int per input; the rate and the generator's end state as recorded
        f = random_netlist(14, 60, 6, rng_seed=13, name="wide")
        h = sample_parity_code(6, 2, 2)
        rng = random.Random(3)
        rate = subcircuit_match_attack(f, build_ocp(f, h), h, trials=200, rng_seed=rng,
                                       max_size=4, min_size=2)
        assert (rate, rng.getrandbits(64)) == (0.265, 12401331733024011112)

    def test_packed_probes_detect_as_any_single_probe(self, monkeypatch):
        """A trial's 64 packed probes detect exactly when one of them, run alone
        through one-lane eval_wires, does; the rate counts the trials none did."""
        import tpad.netlist

        f = random_netlist(16, 50, 4, rng_seed=3, name="wide")
        h = sample_parity_code(4, 2, 2)
        ocp = build_ocp(f, h)
        eval_wires = tpad.netlist.eval_wires
        calls = []

        def spy(net, inputs, state=(), overrides=None, mask=1):
            calls.append((net, inputs, overrides, mask))
            return eval_wires(net, inputs, state, overrides, mask)

        monkeypatch.setattr(tpad.netlist, "eval_wires", spy)
        rate = subcircuit_match_attack(f, ocp, h, trials=80, rng_seed=0, max_size=4, min_size=2)
        monkeypatch.undo()

        def detects(x, f_over, ocp_over):
            return eval_wires(ocp, x, (), ocp_over)[0] != h.check_bits(eval_wires(f, x, (), f_over)[0])

        verdicts = []  # per trial, which of its probes detect alone
        for (net_f, pats, f_over, mask), (net_ocp, same, ocp_over, _) in zip(calls[::2], calls[1::2]):
            assert (net_f, net_ocp, same, mask) == (f, ocp, pats, (1 << 64) - 1)
            probes = [tuple(p >> j & 1 for p in pats) for j in range(64)]
            verdicts.append([detects(x, f_over, ocp_over) for x in probes])
        assert len(calls) == 2 * len(verdicts)
        assert rate == sum(not any(v) for v in verdicts) / 80
        # misses, and trials that only some probes after the first or before the last expose
        assert any(not any(v) for v in verdicts)
        assert any(not v[0] and any(v) for v in verdicts) and any(not v[-1] and any(v) for v in verdicts)

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

    @pytest.mark.parametrize("trials", [0, -4])
    def test_simulation_refuses_trials_below_one(self, trials):
        with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
            simulate_destructive_sampling(10, 1, 2, trials)

    @pytest.mark.parametrize("n, a, t", [(-1, 0, 0), (10, 11, 0), (10, -1, 0), (10, 1, 11),
                                         (10, 1, -1)])
    def test_simulation_refuses_what_the_formula_refuses(self, n, a, t):
        """Refused with the formula's message before any draw."""
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(ValueError, match=re.escape("need 0 <= a <= n and 0 <= t <= n")):
            simulate_destructive_sampling(n, a, t, 100, rng_seed=rng)
        assert rng.getstate() == state
