import copy
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from functools import reduce
from heapq import heappop, heappush
from operator import and_, or_, xor

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tpad import netlist, switchbox
from tpad.chip import ChipOptions, build_protected_chip
from tpad.netlist import (
    EXHAUSTIVE_INPUTS,
    HORIZON,
    EquivalenceVerdict,
    Gate,
    MultipleDriverError,
    Netlist,
    NetlistSyntaxError,
    UndrivenWireError,
    check_equivalence,
    compare_steps,
    input_patterns,
    random_netlist,
)
from tpad.switchbox import (
    CROSSED,
    PARALLEL,
    ConfigCoverageError,
    NoIncorrectConfigsError,
    ObfuscatedNetlist,
    ScanReport,
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

from conftest import lfsr16, with_dffs


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

    @pytest.mark.parametrize("rounds, counts", [(300, (0, 33, 33)), (1000, (0, 114, 114))])
    def test_unsatisfiable_draw_keeps_its_counts(self, rounds, counts):
        # a cone that never gains a box; counts recorded while every round
        # still compiled the whole union netlist, so the same rounds run
        with pytest.raises(UnsatisfiableError) as e:
            insert_switchboxes(random_netlist(6, 20, 3, rng_seed=8376), 1, rng_seed=7961,
                               max_iterations=rounds)
        assert e.value.per_output_counts == counts

    @pytest.mark.parametrize("n_inputs", [10, 20])  # truth-table compares, then sampled ones
    @pytest.mark.parametrize("sample_count", [0, -5])
    def test_empty_sample_count_refused(self, n_inputs, sample_count):
        # refused before any round runs, so nothing is drawn from the generator
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="sample_count must be >= 1"):
            insert_switchboxes(random_netlist(n_inputs, 40, 3, rng_seed=1), 2, rng_seed=rng,
                               sample_count=sample_count)
        assert rng.getstate() == state

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

    def test_repeated_switchbox_rejected(self):
        with pytest.raises(NetlistSyntaxError, match=r"^line 3, column 1: repeated switchbox sb0"):
            parse_config("sb0 = parallel\nsb1 = crossed\nsb0 = crossed\n")

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

    def test_wrong_widths_refused(self, full_adder):
        obf = adder_with_manual_sb(full_adder)
        step = union_step(obf.inputs, obf.outputs, obf.gates, obf.switchboxes)
        assert step((1, 1, 0), (), [0]) == ((0, 1), ())
        for inp, state in [((1, 1, 0, 1), ()), ((1, 1), ()), ((1, 1, 0), (0,))]:
            with pytest.raises(ValueError):
                step(inp, state, [0])

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
        seen, chained = [], []
        verdicts = switchbox._ToggleCheck.verdicts

        def spy_verdicts(self, sids, seeds, sample_count=None):
            got = verdicts(self, sids, seeds, sample_count)
            assert len(got) == len(sids) == len(seeds)
            work, intended = self.work, self.intended
            undecided = set(work.sb_ins) - set(intended)
            assert set(sids) <= undecided
            outs = {w for i in undecided for w in work.sb_outs[i]}
            chained.append(any(w in outs for i in undecided for w in work.sb_ins[i]))
            base = {i: intended.get(i, PARALLEL) for i in work.sb_ins}
            for sid, rng_seed, verdict in zip(sids, seeds, got):
                snap = work.snapshot({**base, sid: PARALLEL}, "spy")
                want = check_equivalence(
                    apply_config(snap, {**base, sid: PARALLEL}),
                    apply_config(snap, {**base, sid: CROSSED}),
                    sample_count=sample_count or self.sample_count,
                    rng_seed=rng_seed,
                )
                seen.append((verdict, want))
            return got

        monkeypatch.setattr(switchbox._ToggleCheck, "verdicts", spy_verdicts)
        return seen, chained

    BUILDS = {
        "exhaustive": lambda: insert_switchboxes(random_netlist(10, 50, 4, rng_seed=7), 2,
                                                 rng_seed=8),
        "sampled": lambda: insert_switchboxes(random_netlist(18, 50, 4, rng_seed=9), 2,
                                              rng_seed=1, sample_count=600),
        "sequential": lambda: pipelined_chip(seed=11),
        # first round: sb2 and sb3 read sb4's outputs, so the walk from a
        # toggled box passes another undecided box, routed parallel
        "chained": lambda: insert_switchboxes(random_netlist(6, 20, 3, rng_seed=238), 1,
                                              rng_seed=1, max_iterations=40),
    }

    @pytest.mark.parametrize("case", list(BUILDS))
    def test_verdicts_match_check_equivalence(self, monkeypatch, case):
        seen, chained = self.spy(monkeypatch)
        self.BUILDS[case]()
        assert seen
        for got, want in seen:
            assert got == want
        assert {got.equivalent for got, _ in seen} == {True, False}
        if case == "chained":
            assert chained[0]  # an undecided box of the first round reads another's output

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), n_dffs=st.integers(1, 3))
    def test_sequential_verdicts_match_check_equivalence(self, seed, n_dffs):
        # four inputs over the 4-cycle horizon: exhaustive, so a box whose
        # effect shows only through a DFF's next state is refuted
        net = with_dffs(random_netlist(4, 20, 3, rng_seed=seed), random.Random(seed), n_dffs)
        with pytest.MonkeyPatch.context() as mp:
            seen, _ = self.spy(mp)
            try:
                insert_switchboxes(net, 1, rng_seed=seed, max_iterations=10)
            except UnsatisfiableError:
                pass
        for got, want in seen:
            assert got == want

    @pytest.mark.parametrize("case", ["exhaustive", "sequential"])
    def test_original_runs_once_per_cycle(self, monkeypatch, case):
        # the (inputs, state, mask) of every call of either side's step, in
        # order, each run of the original netlist's step with the number of
        # calls made when it ran, the number made when each round's compare
        # began, and the number made when each counterexample's replay began
        calls, runs, verdicts, replays, rounds = [], [], [], [], []
        wire_step, toggled = switchbox._wire_step, switchbox._ToggleCheck.toggled
        assert_replays = netlist._assert_replays

        def spy_wire_step(net):
            step, index = wire_step(net)

            def counted(x, s, mask):
                runs.append((len(calls), (x, s, mask)))
                return step(x, s, mask)
            return counted, index

        def spy_toggled(self, sids):
            verdicts.append(len(calls))
            rounds.append(len(sids))
            side = toggled(self, sids)

            def step(x, s, mask, *blocks):
                calls.append((x, s, mask))
                return side(x, s, mask, *blocks)
            return step

        def spy_replays(*args):
            replays.append(len(calls))
            return assert_replays(*args)

        monkeypatch.setattr(switchbox, "_wire_step", spy_wire_step)
        monkeypatch.setattr(switchbox._ToggleCheck, "toggled", spy_toggled)
        monkeypatch.setattr(netlist, "_assert_replays", spy_replays)
        self.BUILDS[case]()
        assert calls and len(verdicts) > 1 and replays
        # the original step runs exactly when a call's (inputs, state, mask)
        # differ from the call before it, which may end the compare or replay before
        assert runs == [(i + 1, c) for i, c in enumerate(calls) if i == 0 or c != calls[i - 1]]
        bounds = sorted({*verdicts, *replays, len(calls)})
        per_window = {a: sum(a < i <= b for i, _ in runs) for a, b in zip(bounds, bounds[1:])}
        for (a, b) in zip(bounds, bounds[1:]):
            assert per_window[a] <= len(set(calls[a:b]))  # once per distinct (inputs, state, mask)
        if case == "exhaustive":
            # one run per cycle: a base and a toggled call share it, and one
            # run serves every box of a round, compared in one call
            assert 2 * len(runs) <= len(calls)
            assert all(per_window[a] <= 1 for a in verdicts if a in per_window)
            assert max(rounds) > 1
        else:
            assert any(a[0] == b[0] and a[2] == b[2] and a[1] != b[1]  # a toggled state that
                       for a, b in zip(calls, calls[1:]))  # diverged ran the original again


# -- the one-box verdict, kept as an oracle -------------------------------------------


_ORACLE_GATES = {
    "AND": lambda a, m: reduce(and_, a), "OR": lambda a, m: reduce(or_, a),
    "XOR": lambda a, m: reduce(xor, a), "NAND": lambda a, m: m ^ reduce(and_, a),
    "NOR": lambda a, m: m ^ reduce(or_, a), "NOT": lambda a, m: m ^ a[0],
    "BUF": lambda a, m: a[0], "CONST0": lambda a, m: 0, "CONST1": lambda a, m: m,
}


def oracle_steps(check, sid):
    """The base step and the step with sid toggled alone, walked as insertion did before
    its boxes were tested in lane blocks."""
    work, intended = check.work, check.intended
    wires = [*work.outputs, *(work.ins[o][0] for o in work.dffs)]
    n = len(work.outputs)
    index = {w: check.pos[w] for w in (*work.inputs, *work.kind)}  # the original wires' values

    def at(w):
        """A union wire's index in the values: that of the original wire it carries."""
        return index[work.origin.get(w, w)]

    def step(x, s, mask, toggle=False):
        v, new = check.values(x, s, mask), {}
        heap = [(work.rank["sb", sid], ("sb", sid))] if toggle else []
        queued = {node for _, node in heap}
        while heap:
            kind, ref = heappop(heap)[1]
            ins, outs = ((work.ins[ref], (ref,)) if kind == "gate"
                         else (work.sb_ins[ref], work.sb_outs[ref]))
            got = [new[w] if w in new else v[at(w)] for w in ins]
            if kind == "gate":
                got = (_ORACLE_GATES[work.kind[ref]](got, mask),)
            elif (intended.get(ref) == CROSSED) != (ref == sid):
                got.reverse()
            for w, value in zip(outs, got):
                if value != v[at(w)]:
                    new[w] = value
                    for k, r, _ in work.fanout.get(w, ()):
                        if k != "po" and (k, r) not in queued and (k == "sb" or work.kind[r] != "DFF"):
                            queued.add((k, r))
                            heappush(heap, (work.rank[k, r], (k, r)))
        got = [new.get(w, v[at(w)]) for w in wires]
        return got[:n], tuple(got[n:])

    return step, lambda x, s, mask: step(x, s, mask, True)


def oracle_compare(f1, f2, m, widths, sample_count, seed):
    """compare_steps as one box's compare ran: one 512-lane batch after another."""
    cycles = HORIZON if any(widths) else 1
    horizon = cycles if any(widths) else None

    def first_diff(cyc, mask):
        s1, s2 = (0,) * widths[0], (0,) * widths[1]
        for c in range(cycles):
            (o1, s1), (o2, s2) = f1(cyc[c], s1, mask), f2(cyc[c], s2, mask)
            for a, b in zip(o1, o2):
                if a != b:
                    return ((a ^ b) & -(a ^ b)).bit_length() - 1
        return None

    def verdict(mode, checked, cyc, lane):
        if lane is None:
            return EquivalenceVerdict(True, mode, checked, horizon=horizon)
        cex = tuple(tuple((cyc[c][j] >> lane) & 1 for j in range(m)) for c in range(cycles))
        return EquivalenceVerdict(False, mode, checked, cex if horizon else cex[0], horizon=horizon)

    if m * cycles <= EXHAUSTIVE_INPUTS:
        pats, full = input_patterns(m * cycles)
        cyc = [pats[c * m:(c + 1) * m] for c in range(cycles)]
        return verdict("exhaustive", 1 << m * cycles, cyc, first_diff(cyc, full))
    rng, done = random.Random(seed), 0
    while done < sample_count:
        batch = min(512, sample_count - done)
        cyc = [tuple(rng.getrandbits(batch) for _ in range(m)) for _ in range(cycles)]
        lane = first_diff(cyc, (1 << batch) - 1)
        if lane is not None:
            return verdict("sampled", done + lane + 1, cyc, lane)
        done += batch
    return verdict("sampled", sample_count, None, None)


def oracle_verdict(check, sid, seed, sample_count=None):
    width = len(check.work.dffs)
    return oracle_compare(*oracle_steps(check, sid), len(check.work.inputs), (width, width),
                          sample_count or check.sample_count, seed)


def one_box_insertion(net, t, rng, max_iterations, sample_count, used=None):
    """insert_switchboxes as it ran before lane blocks: each box's seed drawn, then its
    verdict, then its coin. The serialized result, or the UnsatisfiableError counts;
    used gets each box's (seed, verdict)."""
    work, intended, used = switchbox._Work(net), {}, {} if used is None else used
    check = switchbox._ToggleCheck(switchbox._wire_step(net), work, intended, sample_count)
    gates = sorted(work.kind)
    for _ in range(max_iterations if gates else 0):
        v = rng.choice(gates)
        nb_v = work.neighborhood(v)
        inc_v, out_v = work.incoming_edges(nb_v), work.output_gates(nb_v)
        for u in rng.sample(gates, len(gates)):
            nb_u = work.neighborhood(u)
            if not nb_u & nb_v and work.shape(nb_u) == (len(inc_v), len(out_v)):
                break
        else:
            continue
        inc_u, out_u = work.incoming_edges(nb_u), work.output_gates(nb_u)
        sids = [work.add_switchbox(wx, wy, [("gate", gv, pv)], [("gate", gu, pu)])
                for (wx, gv, pv), (wy, gu, pu) in zip(inc_v, inc_u)]
        sids += [work.add_switchbox(s, t_, work.consumers(s), work.consumers(t_))
                 for s, t_ in zip(out_v, out_u)]
        for sid in [s for s in sids if s is not None]:
            seed = rng.getrandbits(32)
            used[sid] = seed, oracle_verdict(check, sid, seed)
            if used[sid][1].equivalent:
                work.remove_switchbox(sid)
            elif rng.random() < 0.5:
                work.reverse_switchbox(sid)
                intended[sid] = CROSSED
            else:
                intended[sid] = PARALLEL
        if work.satisfied(t):
            obf = work.snapshot(intended, f"{net.name}.obf")
            return serialize_obfuscated(obf) + format_config(obf.intended)
    return tuple(map(work.cone_count, range(len(work.outputs))))


def sampled_seeds(used):
    """Each box's (seed, verdict), the seed kept only where the compare was sampled:
    an exhaustive compare ignores it."""
    return {sid: (seed if v.mode == "sampled" else None, v) for sid, (seed, v) in used.items()}


# (net_seed, sb_seed, m, n_dffs, t, sample_count) of a draw whose sampled rounds drop
# a box before others, so the boxes after it are compared again with redrawn seeds
REDO = (0, 0, 17, 0, 1, 600)


class TestPackedVerdicts:
    """Lane-blocked verdicts, drawn-ahead seeds and their redo against the one-box loop."""

    @staticmethod
    def spy(monkeypatch):
        """Check every packed verdict against the oracle. Returns each box's last (seed,
        verdict), the one insertion acts on, and the number of sampled boxes compared
        again with another seed."""
        verdicts, used, seen = switchbox._ToggleCheck.verdicts, {}, {"reseeded": 0}

        def spy_verdicts(self, sids, seeds, sample_count=None):
            got = verdicts(self, sids, seeds, sample_count)
            for sid, seed, verdict in zip(sids, seeds, got):
                assert verdict == oracle_verdict(self, sid, seed, sample_count)
                if sid in used and verdict.mode == "sampled":
                    seen["reseeded"] += seed != used[sid][0]
                used[sid] = seed, verdict
            return got

        monkeypatch.setattr(switchbox._ToggleCheck, "verdicts", spy_verdicts)
        return used, seen

    @staticmethod
    def build(net, t, rng, sample_count):
        try:
            obf = insert_switchboxes(net, t, rng_seed=rng, max_iterations=15,
                                     sample_count=sample_count)
        except UnsatisfiableError as e:
            return e.per_output_counts
        return serialize_obfuscated(obf) + format_config(obf.intended)

    @settings(max_examples=30, deadline=None)
    @given(net_seed=st.integers(0, 10**6), sb_seed=st.integers(0, 10**6),
           m=st.sampled_from([4, 5, 17]), n_dffs=st.integers(0, 3), t=st.integers(1, 2),
           sample_count=st.sampled_from([600, 1100]))
    @example(net_seed=REDO[0], sb_seed=REDO[1], m=REDO[2], n_dffs=REDO[3], t=REDO[4],
             sample_count=REDO[5])
    def test_matches_one_box_loop(self, net_seed, sb_seed, m, n_dffs, t, sample_count):
        # 4 inputs: exhaustive, also over 4 cycles; 5 with DFFs and 17: sampled
        net = with_dffs(random_netlist(m, 24, 3, rng_seed=net_seed), random.Random(net_seed),
                        n_dffs)
        packed_rng, loop_rng = random.Random(sb_seed), random.Random(sb_seed)
        with pytest.MonkeyPatch.context() as mp:
            used, seen = self.spy(mp)
            got = self.build(net, t, packed_rng, sample_count)
        want: dict = {}
        assert got == one_box_insertion(net, t, loop_rng, 15, sample_count, want)
        assert sampled_seeds(used) == sampled_seeds(want)  # every box's verdict, field for field
        assert packed_rng.getstate() == loop_rng.getstate()
        if (net_seed, sb_seed, m, n_dffs, t, sample_count) == REDO:
            assert seen["reseeded"]  # a sampled box mid-round was dropped: later boxes redone

    def test_box_refuted_after_its_first_batch(self, monkeypatch):
        # the only draw of 540 searched in which the first batch of a box's vectors
        # misses its difference: the box was guessed dropped, so when a later batch
        # refutes it the boxes after it are drawn ahead and compared again
        net = random_netlist(20, 80, 6, rng_seed=43)
        used, _ = self.spy(monkeypatch)
        packed_rng, loop_rng = random.Random(2), random.Random(2)
        obf = insert_switchboxes(net, 2, rng_seed=packed_rng, max_iterations=40)
        monkeypatch.undo()
        assert [v.vectors_checked for _, v in used.values()
                if not v.equivalent and v.vectors_checked > netlist.BATCH] == [597, 527]
        want: dict = {}
        assert (serialize_obfuscated(obf) + format_config(obf.intended)
                == one_box_insertion(net, 2, loop_rng, 40, 10000, want))
        assert sampled_seeds(used) == sampled_seeds(want)
        assert packed_rng.getstate() == loop_rng.getstate()


def test_sampled_compare_frees_its_input_copies(monkeypatch):
    # the wide RAM chip's build makes nine sampled 41-input, 4-block compares; traced from
    # its call, the largest peaked at 2.00 MB while it held four copies of its drawn
    # inputs, and at 1.49 MB once each copy is freed when the next exists
    peaks, compare = [], switchbox.compare_steps

    def traced(f1, f2, n_inputs, state_widths=(0, 0), sample_count=10000, rng_seeds=(None,)):
        args = (f1, f2, n_inputs, state_widths, sample_count, rng_seeds)
        if (n_inputs, len(rng_seeds)) != (41, 4):
            return compare(*args)
        tracemalloc.start()
        try:
            return compare(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(switchbox, "compare_steps", traced)
    f = random_netlist(10, 48, 16, rng_seed=21, name="wide")
    build_protected_chip(f, 3, 2, lfsr16(3), rng_seed=33,
                         options=ChipOptions(pipeline_stages=1, ram_depth=64))
    assert len(peaks) == 9 and max(peaks) < 1.75e6


class TestToggledSide:
    """The toggle check's step equals the union step, in every lane."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6), n_dffs=st.integers(0, 3), n_boxes=st.integers(1, 12),
           lanes=st.integers(1, 70))
    @example(seed=3, n_dffs=2, n_boxes=12, lanes=64)
    def test_sides_match_union_step(self, seed, n_dffs, n_boxes, lanes):
        # boxes over any two wires (box outputs too, so boxes chain), rerouting
        # any of their readers (gate, box, DFF and output pins); about half
        # are decided at random settings, the rest stay undecided and parallel
        rng = random.Random(seed)
        net = with_dffs(random_netlist(5, 20, 3, rng_seed=seed), rng, n_dffs)
        work, intended = switchbox._Work(net), {}
        for _ in range(n_boxes):
            x, y = rng.sample(sorted({*work.inputs, *work.kind, *work.sb_driver}), 2)
            sites = sorted(work.fanout[x]) + sorted(work.fanout[y])
            picked = rng.sample(sites, rng.randint(0, len(sites)))
            sid = work.add_switchbox(x, y, [s for s in picked if work.site_wire(s) == x],
                                     [s for s in picked if work.site_wire(s) == y])
            if sid is not None and rng.random() < 0.5:
                intended[sid] = PARALLEL
                if rng.random() < 0.5:
                    work.reverse_switchbox(sid)
                    intended[sid] = CROSSED
        undecided = sorted(set(work.sb_ins) - set(intended))
        assume(undecided)
        # some undecided boxes, each crossed in its own random lanes (blocks may overlap),
        # given as compare_steps gives them: a {block: lanes} mapping of some of the blocks
        sids = rng.sample(undecided, rng.randint(1, len(undecided)))
        mask = (1 << lanes) - 1
        blocks = {k: rng.getrandbits(lanes)
                  for k in sorted(rng.sample(range(len(sids)), rng.randint(1, len(sids))))}
        step = switchbox._ToggleCheck(switchbox._wire_step(net), work, intended, 100).toggled(sids)
        obf = work.snapshot({**dict.fromkeys(undecided, PARALLEL), **intended}, "toggled")
        union = union_step(obf.inputs, obf.outputs, obf.gates, obf.switchboxes)
        x = tuple(rng.getrandbits(lanes) for _ in obf.inputs)
        s = tuple(rng.getrandbits(lanes) for _ in work.dffs)
        for given in ({}, blocks):
            lanes_of = {sids[k]: b for k, b in given.items()}
            sel = [-(intended.get(sb.id) == CROSSED) ^ lanes_of.get(sb.id, 0) for sb in obf.switchboxes]
            out, state = step(x, s, mask, given)
            assert (tuple(out), state) == union(x, s, sel, mask)

    def test_one_step_kernel_per_insertion(self, monkeypatch):
        labels = []
        for module in (netlist, switchbox):  # define as netlist's steps and the gate kernels call it
            monkeypatch.setattr(module, "define", lambda *args, define=module.define: (
                labels.append(args[3]), define(*args))[1])
        net = random_netlist(12, 150, 6, rng_seed=0)
        for _ in range(2):
            labels.clear()
            insert_switchboxes(net, 2, rng_seed=1)
            assert [label for label in labels if not label.startswith("gate ")] == ["step 150 gates"]
        assert labels == ["step 150 gates"]  # gate kernels are compiled once per process


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
        compares = spy_compares(monkeypatch)
        report = degeneracy_scan(obf, 200, rng_seed=seed)
        assert len(compares) == 1  # every configuration is decided in one blocked compare
        key = (report.samples, report.equivalent, [sorted(h.items()) for h in report.hits])
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        assert (report.equivalent, digest) == SCAN_GOLDEN[name]


def spy_compares(monkeypatch, masks=()):
    """Each compare_steps call of degeneracy_scan, as (blocks, len(masks) before the call,
    len(masks) after it)."""
    compares = []

    def spy(*args, **kwargs):
        start = len(masks)
        got = compare_steps(*args, **kwargs)
        compares.append((len(got), start, len(masks)))
        return got

    monkeypatch.setattr(switchbox, "compare_steps", spy)
    return compares


def per_sample_scan(obf, samples, rng_seed=None):
    """degeneracy_scan's former loop: one compare per sample, the reference oracle.

    A truth-table compare runs each configuration on the whole table; any
    other goes through the one-box compare with a seed drawn after the configuration.
    """
    rng = random.Random(rng_seed)
    nsb = obf.n_switchboxes
    intended_bits = sum(1 << i for i, sb in enumerate(obf.switchboxes)
                        if obf.intended[sb.id] == CROSSED)
    step = union_step(obf.inputs, obf.outputs, obf.gates, obf.switchboxes)
    intended = selects(intended_bits, nsb)
    m, width = len(obf.inputs), sum(g.kind == "DFF" for g in obf.gates)
    cycles = HORIZON if width else 1
    exhaustive = m * cycles <= EXHAUSTIVE_INPUTS
    pats, full = input_patterns(m * cycles) if exhaustive else ([], 0)
    vectors = [tuple(pats[c * m:(c + 1) * m]) for c in range(cycles)]

    def outputs(sel):
        state, outs = (0,) * width, []
        for x in vectors:
            out, state = step(x, state, sel, full)
            outs.append(out)
        return outs

    reference = outputs(intended) if exhaustive else None
    hits = []
    for _ in range(samples):
        bits = rng.getrandbits(nsb)
        while bits == intended_bits:
            bits = rng.getrandbits(nsb)
        sel = selects(bits, nsb)
        seed = rng.getrandbits(32) if width or not exhaustive else None
        if exhaustive:
            same = outputs(sel) == reference
        else:
            same = oracle_compare(lambda x, s, mask: step(x, s, intended, mask),
                                  lambda x, s, mask: step(x, s, sel, mask),
                                  m, (width, width), 10000, seed).equivalent
        if same:
            hits.append({sb.id: CROSSED if (bits >> i) & 1 else PARALLEL
                         for i, sb in enumerate(obf.switchboxes)})
    return ScanReport(samples, len(hits), hits)


def boxed(net, rng, n_boxes):
    """net with switchboxes placed at random and kept without a degeneracy test.

    Half the boxes swap two pins of one gate, which every multi-input gate
    kind ignores, so the scans find hits.
    """
    work = switchbox._Work(net)
    intended = {}
    for _ in range(n_boxes):
        gates = sorted(work.kind)
        g = rng.choice(gates)
        if rng.random() < 0.5 and len(work.ins[g]) > 1:
            site_z, site_w = (("gate", g, p) for p in rng.sample(range(len(work.ins[g])), 2))
        else:
            h = rng.choice(gates)
            site_z = ("gate", g, rng.randrange(len(work.ins[g])))
            site_w = ("gate", h, rng.randrange(len(work.ins[h])))
        if site_z == site_w:
            continue
        sid = work.add_switchbox(work.site_wire(site_z), work.site_wire(site_w),
                                 [site_z], [site_w])
        if sid is None:
            continue
        intended[sid] = PARALLEL
        if rng.random() < 0.5:
            work.reverse_switchbox(sid)
            intended[sid] = CROSSED
    return work.snapshot(intended, f"{net.name}.boxed")


class TestPackedScan:
    """The scan decides its configurations in one blocked compare, after a truth-table
    scan's probe has checked PACK configurations per union-step call."""

    @staticmethod
    def spy(monkeypatch):
        """The lane mask of every call to the union steps degeneracy_scan compiles."""
        masks = []

        def counted(*args):
            step = union_step(*args)

            def spy(inp, state, sel, mask):
                masks.append(mask)
                return step(inp, state, sel, mask)

            return spy

        monkeypatch.setattr(switchbox, "union_step", counted)
        return masks

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), m=st.integers(1, 8), n_dffs=st.integers(0, 2),
           n_boxes=st.integers(1, 12), samples=st.integers(1, 300))
    @example(seed=1, m=3, n_dffs=0, n_boxes=6, samples=200)  # an 8-point table
    @example(seed=2, m=1, n_dffs=1, n_boxes=8, samples=130)  # 16 points over 4 cycles
    @example(seed=3, m=8, n_dffs=0, n_boxes=12, samples=257)
    def test_matches_per_sample_scan(self, seed, m, n_dffs, n_boxes, samples):
        rng = random.Random(seed)
        if n_dffs:
            m = min(m, EXHAUSTIVE_INPUTS // HORIZON)
        net = with_dffs(random_netlist(m, 16, 3, rng_seed=seed), rng, n_dffs)
        obf = boxed(net, rng, n_boxes)
        assume(obf.n_switchboxes)
        report = degeneracy_scan(obf, samples, rng_seed=seed)
        want = per_sample_scan(obf, samples, rng_seed=seed)
        assert (report.samples, report.equivalent, report.hits) == \
            (want.samples, want.equivalent, want.hits)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), wide=st.integers(17, 20), narrow=st.integers(5, 6),
           n_dffs=st.integers(0, 2), n_boxes=st.integers(1, 8), samples=st.integers(1, 40))
    def test_sampled_matches_per_sample_scan(self, seed, wide, narrow, n_dffs, n_boxes, samples):
        # 17 to 20 inputs, or 5 or 6 over the 4-cycle horizon: sampled vectors
        rng = random.Random(seed)
        net = with_dffs(random_netlist(narrow if n_dffs else wide, 16, 3, rng_seed=seed), rng,
                        n_dffs)
        obf = boxed(net, rng, n_boxes)
        assume(obf.n_switchboxes)
        report = degeneracy_scan(obf, samples, rng_seed=seed)
        want = per_sample_scan(obf, samples, rng_seed=seed)
        assert (report.samples, report.equivalent, report.hits) == \
            (want.samples, want.equivalent, want.hits)

    def test_hits_and_tables_are_covered(self):
        # the draws the properties run on include hits on both kinds of table and on
        # sampled vectors, with and without DFFs
        rng = random.Random(1)
        comb = boxed(random_netlist(3, 16, 3, rng_seed=1), rng, 8)
        seq = boxed(with_dffs(random_netlist(2, 16, 3, rng_seed=2), rng, 2), rng, 8)
        wide = boxed(random_netlist(18, 16, 3, rng_seed=3), rng, 8)
        seq5 = boxed(with_dffs(random_netlist(5, 16, 3, rng_seed=4), rng, 2), rng, 8)
        for obf, samples in ((comb, 100), (seq, 100), (wide, 30), (seq5, 30)):
            report = degeneracy_scan(obf, samples, rng_seed=6)
            assert 0 < report.equivalent < samples
            assert report.hits == per_sample_scan(obf, samples, rng_seed=6).hits

    def test_probe_survivor_refuted_on_table(self, monkeypatch):
        # crossing sb0 changes y and z only where all 16 inputs are 1, a point
        # the probe leaves out, so those configurations pass the probe and the
        # table refutes them; crossing sb1 alone changes nothing
        ins = [f"a{k}" for k in range(16)]
        text = (".model needle\n.inputs " + " ".join(ins) + "\n.outputs y z w\n"
                f"x = AND({', '.join(ins)})\nn = NOT(a0)\nc = AND(a0, n)\n"
                "sb0 = SB2(x, c -> y, z)\nsb1 = SB2(a1, a2 -> p, q)\nw = XOR(p, q)\n")
        obf = parse_obfuscated(text, {0: PARALLEL, 1: PARALLEL})
        survivors, report = self.bounded_scan(monkeypatch, obf, 90, 1)
        assert report.hits == per_sample_scan(obf, 90, rng_seed=1).hits
        assert 0 < report.equivalent < survivors

    def test_union_step_calls(self, monkeypatch):
        obf = insert_switchboxes(random_netlist(10, 30, 3, rng_seed=9), t=2, rng_seed=2,
                                 min_switchboxes=16)
        survivors, report = self.bounded_scan(monkeypatch, obf, 2000, 5)
        assert report.equivalent <= survivors <= 2000 // switchbox.PACK
        # survivors whose tables fill more than one compare call, some refuted there
        obf = boxed(random_netlist(10, 30, 3, rng_seed=0), random.Random(0), 8)
        survivors, report = self.bounded_scan(monkeypatch, obf, 300, 0)
        assert 0 < report.equivalent < survivors and survivors << 10 > netlist.LANE_CAP
        assert report.hits == per_sample_scan(obf, 300, rng_seed=0).hits

    def bounded_scan(self, monkeypatch, obf, samples, seed):
        """A combinational truth-table scan, its union-step calls bounded: the probe's, then
        the compare's. Returns (the probe's survivors, the report)."""
        masks = self.spy(monkeypatch)
        compares = spy_compares(monkeypatch, masks)
        report = degeneracy_scan(obf, samples, rng_seed=seed)
        monkeypatch.undo()
        [(survivors, start, end)] = compares  # the compare decides the survivors alone
        assert start <= -(-samples // switchbox.PACK) + 1  # the probe, and its reference
        # both sides once per call of up to LANE_CAP lanes, each survivor a table's lanes,
        # and both again to replay each refuted survivor's counterexample at mask 1
        replays = masks[start:end].count(1)
        assert replays == 2 * (survivors - report.equivalent)
        table = 1 << len(obf.inputs)
        assert end - start - replays <= 2 * -(-survivors * table // netlist.LANE_CAP)
        return survivors, report


class TestWorkIndexes:
    """The fanout and driver indexes stay equal to a rescan after any edit.

    Any edit also keeps the ranks a topological order, and a box is refused
    exactly when the old whole-fan-in walk finds it on a union cycle.
    """

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
                sites_z = [s for s in picked if work.site_wire(s) == x]
                sites_w = [s for s in picked if work.site_wire(s) == y]
                stacked = x in work.sb_driver and work.sb_driver[x] == work.sb_driver.get(y)
                cyclic = not stacked and wired_in_cyclic(work, x, y, sites_z, sites_w)
                sid = work.add_switchbox(x, y, sites_z, sites_w)
                assert (sid is None) == (stacked or cyclic)
            elif roll < 0.8:
                work.remove_switchbox(rng.choice(sorted(work.sb_ins)))
            else:
                work.reverse_switchbox(rng.choice(sorted(work.sb_ins)))
            fanout, driver = self.rescan(work)
            assert {w: sites for w, sites in work.fanout.items() if sites} == fanout
            assert work.sb_driver == driver
            assert_ranks_topological(work)


# -- insertion bookkeeping ---------------------------------------------------------


def union_cyclic_through(work, sb_id):
    """The whole-fan-in walk insertion once ran after wiring in each box.

    True when sb_id lies on a union-graph cycle (DFFs cut the graph): the
    oracle for the cycle test on the maintained topological order.
    """
    stack = list(work.sb_ins[sb_id])
    seen = set()
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        if w in work.kind:
            if work.kind[w] != "DFF":
                stack.extend(work.ins[w])
        elif w in work.sb_driver:
            sid = work.sb_driver[w]
            if sid == sb_id:
                return True
            stack.extend(work.sb_ins[sid])
    return False


def wired_in_cyclic(work, x, y, sites_z, sites_w):
    """Whether the old walk refuses a box over (x, y), on a copy wired as the old code did."""
    work = copy.deepcopy(work)
    z, w, sid = work.fresh_wire(), work.fresh_wire(), work.next_sb
    for site in sites_z:
        work.rewire(site, z)
    for site in sites_w:
        work.rewire(site, w)
    work.sb_ins[sid], work.sb_outs[sid] = [x, y], (z, w)
    work.sb_driver[z] = work.sb_driver[w] = sid
    return union_cyclic_through(work, sid)


def union_readers(work, node):
    """The union nodes reading a node's outputs, from the indexes alone."""
    kind, ref = node
    outs = work.sb_outs[ref] if kind == "sb" else (ref,)
    return {(k, r) for w in outs for k, r, _ in work.fanout.get(w, ())
            if k == "sb" or k == "gate" and work.kind[r] != "DFF"}


def assert_ranks_topological(work):
    """`rank` labels every union node, distinctly, above each node it reads."""
    nodes = {("gate", o) for o, kind in work.kind.items() if kind != "DFF"}
    nodes.update(("sb", sid) for sid in work.sb_ins)
    assert set(work.rank) == nodes
    assert work.labels == sorted(work.rank.values())
    assert len(set(work.labels)) == len(work.labels)
    for node in nodes:
        for reader in union_readers(work, node):
            assert work.rank[node] < work.rank[reader]


class TestInsertionBookkeeping:
    """Cone counts, the maintained order and the base selection, checked every round."""

    @staticmethod
    def spy(monkeypatch, t):
        seen = {"rounds": 0, "refused": 0, "searched": 0, "verdicts": 0, "round_start": 0}
        counts = []
        add, satisfied = switchbox._Work.add_switchbox, switchbox._Work.satisfied
        forward, toggled = switchbox._Work._forward, switchbox._ToggleCheck.toggled

        def spy_add(self, x, y, sites_z, sites_w):
            old = None
            if x != y and not (x in self.sb_driver and self.sb_driver[x] == self.sb_driver.get(y)):
                old = wired_in_cyclic(self, x, y, sites_z, sites_w)
            sid = add(self, x, y, sites_z, sites_w)
            if old is not None:
                assert (sid is None) == old
                seen["refused"] += old
            assert_ranks_topological(self)
            return sid

        def spy_forward(self, *args):
            seen["searched"] += 1
            return forward(self, *args)

        def spy_satisfied(self, t_):
            got = satisfied(self, t_)
            now = [self.cone_count(i) for i in range(len(self.outputs))]
            if counts:
                assert all(c >= before for c, before in zip(now, counts[-1]))
            counts.append(now)
            below = [i for i, c in enumerate(now) if c < t]
            # every output below t is pending, in output order, and the first pending one is
            assert self.unmet == sorted(self.unmet) and set(below) <= set(self.unmet)
            assert not self.unmet or now[self.unmet[0]] < t
            assert got == (not below)
            assert_ranks_topological(self)
            seen["rounds"] += 1
            seen["round_start"] = self.next_sb
            return got

        def spy_toggled(check, sids):
            # the undecided boxes, parallel at the base selection, are this
            # round's, and no box that was decided has been dropped
            work, intended = check.work, check.intended
            undecided = set(work.sb_ins) - set(intended)
            assert set(sids) <= undecided and min(undecided) >= seen["round_start"]
            assert set(intended) <= set(work.sb_ins)
            seen["verdicts"] += len(sids)
            return toggled(check, sids)

        monkeypatch.setattr(switchbox._Work, "add_switchbox", spy_add)
        monkeypatch.setattr(switchbox._Work, "_forward", spy_forward)
        monkeypatch.setattr(switchbox._Work, "satisfied", spy_satisfied)
        monkeypatch.setattr(switchbox._ToggleCheck, "toggled", spy_toggled)
        return seen

    @settings(max_examples=25, deadline=None)
    @given(net_seed=st.integers(0, 10_000), sb_seed=st.integers(0, 10_000),
           n_dffs=st.integers(0, 3), t=st.integers(1, 2))
    @example(net_seed=8376, sb_seed=7961, n_dffs=0, t=1)
    def test_every_round(self, net_seed, sb_seed, n_dffs, t):
        net = with_dffs(random_netlist(6, 20, 3, rng_seed=net_seed), random.Random(net_seed),
                        n_dffs)
        with pytest.MonkeyPatch.context() as mp:
            seen = self.spy(mp, t)
            try:
                insert_switchboxes(net, t, rng_seed=sb_seed, max_iterations=40)
            except UnsatisfiableError:
                pass
        assert seen["rounds"]

    def test_unsatisfiable_draw(self, monkeypatch):
        # the draw whose first cone never gains a box: cycle refusals and
        # searches on the maintained order over 300 rounds
        seen = self.spy(monkeypatch, 1)
        with pytest.raises(UnsatisfiableError) as e:
            insert_switchboxes(random_netlist(6, 20, 3, rng_seed=8376), 1, rng_seed=7961,
                               max_iterations=300)
        assert e.value.per_output_counts == (0, 33, 33)
        assert seen["rounds"] > 100  # a round without a partner skips the count
        assert seen["refused"] and seen["searched"] > seen["refused"] and seen["verdicts"]

    def test_worn_down_labels_are_spread_out(self):
        # each box reads the last one's output and feeds the same gate pin, so
        # it lands between the last box and that gate, halving their gap
        net = Netlist("chain", (0, 1), (2,), (Gate(2, "AND", (0, 1)),))
        work = switchbox._Work(net)
        x = 0
        for _ in range(3 * switchbox._Work.GAP.bit_length()):
            sid = work.add_switchbox(x, 1, [("gate", 2, 0)], [])
            assert sid is not None
            assert_ranks_topological(work)
            x = work.sb_outs[sid][0]
        assert work.labels[-1] >= switchbox._Work.GAP ** 3  # spread out at least twice

    def test_insertion_is_the_same_in_every_process(self):
        # `fanout` holds string-keyed tuples, so the order its sets are
        # visited in varies with the hash seed; the insertion must not
        code = ("import hashlib\n"
                "from tpad import netlist, switchbox\n"
                "obf = switchbox.insert_switchboxes(netlist.random_netlist(8, 40, 4, rng_seed=3), 2,"
                " rng_seed=4)\n"
                "text = switchbox.serialize_obfuscated(obf) + switchbox.format_config(obf.intended)\n"
                "print(hashlib.sha256(text.encode()).hexdigest())\n")
        digests = set()
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            digests.add(run.stdout)
        assert len(digests) == 1
