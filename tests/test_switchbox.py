import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tpad import switchbox
from tpad.chip import ChipOptions, build_protected_chip
from tpad.netlist import (
    Gate,
    MultipleDriverError,
    NetlistSyntaxError,
    UndrivenWireError,
    check_equivalence,
    random_netlist,
)
from tpad.switchbox import (
    CROSSED,
    PARALLEL,
    ConfigCoverageError,
    NoIncorrectConfigsError,
    ObfuscatedNetlist,
    Switchbox,
    SwitchboxError,
    UnsatisfiableError,
    apply_config,
    degeneracy_scan,
    format_config,
    insert_switchboxes,
    parse_config,
    parse_obfuscated,
    serialize_obfuscated,
    union_step,
)

from conftest import lfsr16


def adder_with_manual_sb(full_adder):
    """The adder with one switchbox across the (x1->s, cin->g2) wires.

    Parallel keeps the original function; crossed swaps which value feeds
    the sum XOR and the carry AND, computing a different function.
    """
    sb = Switchbox(0, (3, 2), (8, 9))
    gates = (
        Gate(3, "XOR", (0, 1)),
        Gate(4, "XOR", (8, 2)),
        Gate(5, "AND", (0, 1)),
        Gate(6, "AND", (3, 9)),
        Gate(7, "OR", (5, 6)),
    )
    names = {0: "a", 1: "b", 2: "cin", 3: "x1", 4: "s", 5: "g1", 6: "g2", 7: "cout"}
    return ObfuscatedNetlist(
        "adder.sb", (0, 1, 2), (4, 7), gates, (sb,), {0: PARALLEL}, names
    )


def degenerate_sb_adder(full_adder):
    """A switchbox across the two inputs of the commutative first XOR/AND pair.

    Swapping (a, b) into XOR(a, b) and AND(a, b) changes nothing: both
    configurations realize the adder, the textbook degenerate insertion.
    """
    sb = Switchbox(0, (0, 1), (8, 9))
    gates = (
        Gate(3, "XOR", (8, 9)),
        Gate(4, "XOR", (3, 2)),
        Gate(5, "AND", (8, 9)),
        Gate(6, "AND", (3, 2)),
        Gate(7, "OR", (5, 6)),
    )
    names = {0: "a", 1: "b", 2: "cin", 4: "s", 7: "cout"}
    return ObfuscatedNetlist(
        "adder.degen", (0, 1, 2), (4, 7), gates, (sb,), {0: PARALLEL}, names
    )


class TestSwitchboxType:
    def test_wires_must_be_distinct(self):
        with pytest.raises(SwitchboxError):
            Switchbox(0, (1, 1), (2, 3))


class TestApplyConfig:
    def test_parallel_is_original(self, full_adder):
        obf = adder_with_manual_sb(full_adder)
        assert check_equivalence(apply_config(obf, {0: PARALLEL}), full_adder).equivalent

    def test_crossed_differs(self, full_adder):
        obf = adder_with_manual_sb(full_adder)
        v = check_equivalence(apply_config(obf, {0: CROSSED}), full_adder)
        assert not v.equivalent and v.counterexample is not None

    def test_zero_sbs_identity(self, full_adder):
        obf = ObfuscatedNetlist(
            "plain", full_adder.inputs, full_adder.outputs, full_adder.gates,
            (), {}, full_adder.wire_names,
        )
        assert check_equivalence(apply_config(obf, {}), full_adder).equivalent

    def test_config_coverage_enforced(self, full_adder):
        obf = adder_with_manual_sb(full_adder)
        with pytest.raises(ConfigCoverageError):
            apply_config(obf, {})
        with pytest.raises(ConfigCoverageError):
            apply_config(obf, {0: PARALLEL, 1: CROSSED})


class TestInsertion:
    def test_alu2_reaches_two_per_cone(self, alu2):
        obf = insert_switchboxes(alu2, t=2, rng_seed=5)
        assert all(c >= 2 for c in obf.per_output_sb_count)
        assert check_equivalence(apply_config(obf, obf.intended), alu2).equivalent

    def test_every_retained_sb_non_degenerate(self, alu2):
        obf = insert_switchboxes(alu2, t=2, rng_seed=5)
        baseline = apply_config(obf, obf.intended)
        for sb in obf.switchboxes:
            flipped = dict(obf.intended)
            flipped[sb.id] = CROSSED if flipped[sb.id] == PARALLEL else PARALLEL
            assert not check_equivalence(apply_config(obf, flipped), baseline).equivalent

    @settings(max_examples=20, deadline=None)
    @given(net_seed=st.integers(0, 10_000), sb_seed=st.integers(0, 10_000),
           t=st.integers(1, 2))
    def test_random_insertion_keeps_function_and_every_box(self, net_seed, sb_seed, t):
        """The intended config realizes the original; crossing any one box does not."""
        net = random_netlist(6, 20, 3, rng_seed=net_seed)
        try:
            # a small cap: an unsatisfiable draw runs every round before it fails
            obf = insert_switchboxes(net, t, rng_seed=sb_seed, max_iterations=40)
        except UnsatisfiableError:
            assume(False)
        baseline = apply_config(obf, obf.intended)
        assert check_equivalence(baseline, net).equivalent
        assert obf.switchboxes
        for sb in obf.switchboxes:
            flipped = dict(obf.intended)
            flipped[sb.id] = CROSSED if flipped[sb.id] == PARALLEL else PARALLEL
            assert not check_equivalence(apply_config(obf, flipped), baseline).equivalent

    def test_deterministic_under_seed(self, alu2):
        a = insert_switchboxes(alu2, t=2, rng_seed=9)
        b = insert_switchboxes(alu2, t=2, rng_seed=9)
        assert serialize_obfuscated(a) == serialize_obfuscated(b)
        assert a.intended == b.intended

    def test_unsatisfiable_reports_best_counts(self, full_adder):
        # the 5-gate adder has no disjoint matching neighborhoods at all
        with pytest.raises(UnsatisfiableError) as e:
            insert_switchboxes(full_adder, t=2, rng_seed=1, max_iterations=40)
        assert len(e.value.per_output_counts) == 2

    def test_config_space_is_all_sbs(self, alu2):
        obf = insert_switchboxes(alu2, t=2, rng_seed=5)
        assert set(obf.intended) == {sb.id for sb in obf.switchboxes}


class TestConeCounts:
    def test_single_sb_feeding_both_outputs(self, full_adder):
        obf = adder_with_manual_sb(full_adder)
        # sb output 8 feeds the sum xor; output 9 feeds the carry and
        assert obf.per_output_sb_count[0] == 1
        assert obf.per_output_sb_count[1] == 1

    def test_zero_sb_netlist(self, full_adder):
        obf = ObfuscatedNetlist(
            "plain", full_adder.inputs, full_adder.outputs, full_adder.gates,
            (), {}, full_adder.wire_names,
        )
        assert obf.per_output_sb_count[0] == 0

    def test_index_range(self, full_adder):
        obf = adder_with_manual_sb(full_adder)
        with pytest.raises(IndexError):
            obf.per_output_sb_count[2]


class TestDegeneracyScan:
    def test_injected_degenerate_sb_found(self, full_adder):
        obf = degenerate_sb_adder(full_adder)
        report = degeneracy_scan(obf, 50, rng_seed=3)
        assert report.fraction_equivalent == 1.0
        assert report.hits  # offending configs are reported

    def test_clean_instance_scans_zero(self):
        net = random_netlist(10, 30, 3, rng_seed=9)
        obf = insert_switchboxes(net, t=2, rng_seed=2, min_switchboxes=16)
        assert obf.n_switchboxes >= 16
        report = degeneracy_scan(obf, 2000, rng_seed=5)
        assert report.fraction_equivalent == 0.0

    def test_no_incorrect_configs_error(self, full_adder):
        obf = ObfuscatedNetlist(
            "plain", full_adder.inputs, full_adder.outputs, full_adder.gates,
            (), {}, full_adder.wire_names,
        )
        with pytest.raises(NoIncorrectConfigsError):
            degeneracy_scan(obf, 10, rng_seed=0)


class TestFiles:
    def test_obfuscated_round_trip(self, alu2):
        obf = insert_switchboxes(alu2, t=2, rng_seed=7)
        text = serialize_obfuscated(obf)
        cfg = parse_config(format_config(obf.intended))
        again = parse_obfuscated(text, cfg)
        assert check_equivalence(
            apply_config(again, again.intended), apply_config(obf, obf.intended)
        ).equivalent
        assert serialize_obfuscated(again) == text

    def test_config_file_round_trip(self):
        cfg = {0: PARALLEL, 3: CROSSED, 7: PARALLEL}
        assert parse_config(format_config(cfg)) == cfg

    @settings(max_examples=15, deadline=None)
    @given(net_seed=st.integers(0, 10_000), sb_seed=st.integers(0, 10_000))
    def test_parse_serialize_fixed_point(self, net_seed, sb_seed):
        try:
            obf = insert_switchboxes(random_netlist(10, 40, 3, rng_seed=net_seed), 1,
                                     rng_seed=sb_seed, max_iterations=200)
        except UnsatisfiableError:
            assume(False)  # about 2% of draws
        text = serialize_obfuscated(obf)
        assert serialize_obfuscated(parse_obfuscated(text, obf.intended)) == text


class TestMalformedDetectionNet:
    """Each error in a chip's detection.net names the offending line."""

    @pytest.fixture(scope="class")
    def detection(self):
        obf = pipelined_chip().detection
        return serialize_obfuscated(obf).splitlines(), obf.intended

    def parse(self, lines, intended):
        return parse_obfuscated("\n".join(lines) + "\n", intended)

    def test_model_with_two_names(self, detection):
        lines, intended = detection
        with pytest.raises(NetlistSyntaxError, match="expects one name") as e:
            self.parse([".model a b", *lines[1:]], intended)
        assert e.value.line == 1

    def test_unknown_gate_kind(self, detection):
        lines, intended = detection
        i = next(i for i, l in enumerate(lines) if " = XOR(" in l)
        lines = list(lines)
        lines[i] = lines[i].replace(" = XOR(", " = XNOR(")
        with pytest.raises(NetlistSyntaxError, match="unknown gate kind 'XNOR'") as e:
            self.parse(lines, intended)
        assert e.value.line == i + 1

    def test_undriven_wire(self, detection):
        lines, intended = detection
        i = next(i for i, l in enumerate(lines) if " = AND(" in l)
        lines = list(lines)
        lines[i] = lines[i].replace("AND(", "AND(ghost, ")
        with pytest.raises(UndrivenWireError, match=f"^line {i + 1}: wire 'ghost'"):
            self.parse(lines, intended)

    def test_switchbox_output_with_gate_driver(self, detection):
        lines, intended = detection
        i = next(i for i, l in enumerate(lines) if " = SB2(" in l)
        z = lines[i].split("-> ")[1].split(",")[0]
        lines = [*lines, f"{z} = CONST0()"]
        with pytest.raises(MultipleDriverError,
                           match=f"^line {len(lines)}: wire '{z}' has multiple drivers "
                                 f"\\(also line {i + 1}\\)"):
            self.parse(lines, intended)


# -- the compiled union evaluator ----------------------------------------------


def pipelined_chip(seed: int = 3):
    """A small chip whose detection netlist has pipeline DFFs (sequential)."""
    f = random_netlist(6, 20, 4, rng_seed=5)
    return build_protected_chip(f, 2, 2, lfsr16(2), rng_seed=seed,
                                options=ChipOptions(pipeline_stages=1))


@pytest.fixture(scope="module")
def obfuscated_corpus():
    """Random-netlist insertions (exhaustive and sampled) plus one with DFFs."""
    corpus = [
        insert_switchboxes(random_netlist(8, 40, 4, rng_seed=1), 2, rng_seed=2),
        insert_switchboxes(random_netlist(12, 60, 5, rng_seed=3), 2, rng_seed=4),
        insert_switchboxes(random_netlist(20, 50, 4, rng_seed=5), 2, rng_seed=6),
        pipelined_chip().detection,
    ]
    assert any(apply_config(obf, obf.intended).has_state for obf in corpus)
    return corpus


def selects(bits: int, n: int) -> list[int]:
    return [-((bits >> i) & 1) for i in range(n)]


class TestUnionStep:
    @settings(max_examples=40, deadline=None)
    @given(which=st.integers(0, 3), cfg_bits=st.integers(min_value=0),
           lanes=st.integers(1, 64), vector_seed=st.integers(0, 2**32))
    def test_matches_applied_config(self, obfuscated_corpus, which, cfg_bits, lanes, vector_seed):
        obf = obfuscated_corpus[which]
        n = obf.n_switchboxes
        cfg = {sb.id: CROSSED if (cfg_bits >> i) & 1 else PARALLEL
               for i, sb in enumerate(obf.switchboxes)}
        reference = apply_config(obf, cfg)
        rng = random.Random(vector_seed)
        mask = (1 << lanes) - 1
        state = tuple(rng.getrandbits(lanes) for _ in range(reference.state_width))
        step = union_step(obf.inputs, obf.outputs, obf.gates, obf.switchboxes)
        expect = reference.step_fn()
        for _ in range(3):  # a few cycles, so DFF state feeds back
            x = tuple(rng.getrandbits(lanes) for _ in obf.inputs)
            got, got_state = step(x, state, selects(cfg_bits, n), mask)
            want, state = expect(x, state, mask)
            assert (got, got_state) == (want, state)

    def test_union_cycle_raises(self):
        # crossed routes the input into the NOT; parallel would feed the NOT
        # its own output, so the union graph has a cycle
        sb = Switchbox(0, (0, 1), (2, 3))
        obf = ObfuscatedNetlist("loop", (0,), (2,), (Gate(1, "NOT", (3,)),), (sb,),
                                {0: CROSSED})
        with pytest.raises(SwitchboxError, match="union graph cycle"):
            union_step(obf.inputs, obf.outputs, obf.gates, obf.switchboxes)


class TestCandidateVerdicts:
    """Every candidate test equals check_equivalence on two applied configs."""

    def spy(self, monkeypatch):
        seen = []
        init, verdict = switchbox._ToggleCheck.__init__, switchbox._ToggleCheck.verdict

        def spy_init(self, work, intended, sample_count):
            init(self, work, intended, sample_count)
            self.spied = (work, intended, sample_count)

        def spy_verdict(self, sid, rng_seed):
            got = verdict(self, sid, rng_seed)
            work, intended, sample_count = self.spied
            base = {i: intended.get(i, PARALLEL) for i in work.sb_ins}
            snap = work.snapshot({**base, sid: PARALLEL}, "spy")
            want = check_equivalence(
                apply_config(snap, {**base, sid: PARALLEL}),
                apply_config(snap, {**base, sid: CROSSED}),
                sample_count=sample_count,
                rng_seed=rng_seed,
            )
            seen.append((got, want))
            return got

        monkeypatch.setattr(switchbox._ToggleCheck, "__init__", spy_init)
        monkeypatch.setattr(switchbox._ToggleCheck, "verdict", spy_verdict)
        return seen

    @pytest.mark.parametrize("build", [
        lambda: insert_switchboxes(random_netlist(10, 50, 4, rng_seed=7), 2, rng_seed=8),
        lambda: insert_switchboxes(random_netlist(18, 50, 4, rng_seed=9), 2, rng_seed=1,
                                   sample_count=600),
        lambda: pipelined_chip(seed=11),
    ], ids=["exhaustive", "sampled", "sequential"])
    def test_verdicts_match_check_equivalence(self, monkeypatch, build):
        seen = self.spy(monkeypatch)
        build()
        assert seen
        for got, want in seen:
            assert got == want
        assert {got.equivalent for got, _ in seen} == {True, False}


# sha256 of serialize_obfuscated + format_config, recorded before insertion
# moved onto the compiled union step; the same seeds must keep giving them
GOLDEN = {
    "rand12x150x6": "e071ac73a8f9733bc7f96d679b154778a231a9eeb070bbc2622195ea0f37ec84",
    "rand20x80x6": "a8c0208f67c40fbd1504572728f071c1c52064b31bdeded881200dfd5667ed95",
    "pipelined": "43913a3a04fed1525e658c081cdb69619d99d90a3884cddaedb127839b8801f1",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_insertions(name):
    if name == "rand12x150x6":
        obf = insert_switchboxes(random_netlist(12, 150, 6, rng_seed=0), 2, rng_seed=1)
    elif name == "rand20x80x6":
        obf = insert_switchboxes(random_netlist(20, 80, 6, rng_seed=4), 2, rng_seed=2)
    else:
        obf = pipelined_chip().detection
    text = serialize_obfuscated(obf) + format_config(obf.intended)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


# sequential, three inputs: exhaustive over the unrolled horizon; sb0 and sb2
# each feed one commutative gate, so they are degenerate
SEQ_SB = """\
.model seqsb
.inputs a b c
.outputs y z
sb0 = SB2(a, b -> p, q)
x1 = XOR(p, q)
d1 = DFF(x1)
sb1 = SB2(d1, c -> r, s)
y = AND(r, b)
d2 = DFF(s)
sb2 = SB2(d2, a -> t, u)
z = OR(t, u)
"""
# the same with five inputs, so its compares are sampled
SEQ5_SB = SEQ_SB.replace(".model seqsb", ".model seqsb5").replace("a b c\n", "a b c d e\n") \
    .replace("AND(r, b)", "AND(r, b, d)").replace("OR(t, u)", "OR(t, u, e)")
# combinational, twenty inputs (sampled); sb0 and sb2 are degenerate
COMB20_SB = (".model comb20\n.inputs " + " ".join(f"i{k}" for k in range(20)) + """
.outputs y z
sb0 = SB2(i0, i1 -> p, q)
x1 = AND(p, q, i2, i3, i4, i5, i6, i7, i8, i9)
sb1 = SB2(x1, i10 -> r, s)
y = OR(r, i11, i12, i13, i14)
x2 = NOR(s, i15, i16, i17, i18)
sb2 = SB2(x2, i19 -> t, u)
z = XOR(t, u)
""")


def scan_case(name):
    """(obfuscated netlist, scan seed) of one golden degeneracy scan."""
    if name == "wide_chip":
        f = random_netlist(10, 48, 16, rng_seed=21, name="wide")
        chip = build_protected_chip(f, 3, 2, lfsr16(3), rng_seed=33,
                                    options=ChipOptions(pipeline_stages=1))
        return chip.detection, 1
    if name == "pipelined":
        return pipelined_chip().detection, 4
    text, cfg, seed = {
        "seq3": (SEQ_SB, (PARALLEL, PARALLEL, PARALLEL), 2),
        "seq5": (SEQ5_SB, (PARALLEL, CROSSED, PARALLEL), 5),
        "comb20": (COMB20_SB, (CROSSED, PARALLEL, PARALLEL), 6),
    }[name]
    return parse_obfuscated(text, dict(enumerate(cfg))), seed


# (equivalent, sha256 of (samples, equivalent, sorted hits)) of 200-sample
# scans, recorded when each sample of a sequential or wide netlist built its
# configuration as a netlist and ran check_equivalence on it
SCAN_GOLDEN = {
    "wide_chip": (0, "07c64a3cea78fb119f2c19b110602bee134e6930faf0e53b68abb11128a75953"),
    "pipelined": (0, "07c64a3cea78fb119f2c19b110602bee134e6930faf0e53b68abb11128a75953"),
    "seq3": (86, "2714306cdbaf92b4743803fd820adc71e0819f47d12a537c82ae1a8406c711bd"),
    "seq5": (87, "d2754214e0e02d662a1493f48c86eea6083eca5acc2d89a37279982f39ecb18d"),
    "comb20": (82, "6b785b450b7ec062f7f0188a4e9658d1343eae857438c114bf0ff7e9c085ac2f"),
}


class TestScanGolden:
    @pytest.mark.parametrize("name", sorted(SCAN_GOLDEN))
    def test_reports_match_golden(self, name, monkeypatch):
        obf, seed = scan_case(name)

        def refuse(*args, **kwargs):
            raise AssertionError("the scan builds no netlist per sample")

        monkeypatch.setattr(switchbox, "apply_config", refuse)
        monkeypatch.setattr(switchbox, "check_equivalence", refuse)
        report = degeneracy_scan(obf, 200, rng_seed=seed)
        key = (report.samples, report.equivalent, [sorted(h.items()) for h in report.hits])
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        assert (report.equivalent, digest) == SCAN_GOLDEN[name]


class TestWorkIndexes:
    """The fanout and driver indexes stay equal to a rescan after any edit."""

    @staticmethod
    def rescan(work):
        fanout = {}
        for o, pins in work.ins.items():
            for p, w in enumerate(pins):
                fanout.setdefault(w, set()).add(("gate", o, p))
        for sid, pins in work.sb_ins.items():
            for p, w in enumerate(pins):
                fanout.setdefault(w, set()).add(("sb", sid, p))
        for i, w in enumerate(work.outputs):
            fanout.setdefault(w, set()).add(("po", i, 0))
        driver = {w: sid for sid, outs in work.sb_outs.items() for w in outs}
        return fanout, driver

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_indexes_track_edits(self, seed):
        rng = random.Random(seed)
        work = switchbox._Work(random_netlist(5, 25, 3, rng_seed=seed))
        for _ in range(40):
            roll = rng.random()
            if roll < 0.6 or not work.sb_ins:
                wires = sorted({*work.inputs, *work.kind, *work.sb_driver})
                x, y = rng.sample(wires, 2)
                sites = sorted(work.fanout[x]) + sorted(work.fanout[y])
                picked = rng.sample(sites, rng.randint(0, len(sites)))
                work.add_switchbox(x, y, [s for s in picked if work.site_wire(s) == x],
                                   [s for s in picked if work.site_wire(s) == y])
            elif roll < 0.8:
                work.remove_switchbox(rng.choice(sorted(work.sb_ins)))
            else:
                work.reverse_switchbox(rng.choice(sorted(work.sb_ins)))
            fanout, driver = self.rescan(work)
            assert {w: sites for w, sites in work.fanout.items() if sites} == fanout
            assert work.sb_driver == driver
