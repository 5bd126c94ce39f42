import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpad.netlist import (
    ArityError,
    ArityMismatchError,
    CombinationalCycleError,
    Gate,
    MultipleDriverError,
    Netlist,
    NetlistSyntaxError,
    UndrivenWireError,
    WidthError,
    check_equivalence,
    eval_wires,
    inline_step,
    output_cone,
    parse_netlist,
    random_netlist,
    serialize_netlist,
    simplify_netlist,
)
from tpad.switchbox import CROSSED, PARALLEL, _Work, apply_config, union_step

from conftest import FULL_ADDER, with_dffs


class TestParse:
    def test_full_adder_structure(self, full_adder):
        assert full_adder.n_gates == 5
        assert len(full_adder.inputs) == 3
        assert len(full_adder.outputs) == 2

    def test_identity_buffer(self):
        net = parse_netlist(".inputs a\n.outputs y\ny = BUF(a)\n")
        assert net.n_gates == 1
        assert net.evaluate((1,))[0] == (1,)
        assert net.evaluate((0,))[0] == (0,)

    def test_multiple_drivers_rejected(self):
        src = ".inputs a b\n.outputs y\ny = AND(a, b)\ny = OR(a, b)\n"
        with pytest.raises(MultipleDriverError):
            parse_netlist(src)

    def test_undriven_wire_rejected(self):
        with pytest.raises(UndrivenWireError):
            parse_netlist(".inputs a\n.outputs y\ny = AND(a, ghost)\n")

    def test_undriven_output_rejected(self):
        with pytest.raises(UndrivenWireError):
            parse_netlist(".inputs a\n.outputs nowhere\n")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ArityError):
            parse_netlist(".inputs a b\n.outputs y\ny = NOT(a, b)\n")
        with pytest.raises(ArityError):
            parse_netlist(".inputs a\n.outputs y\ny = AND(a)\n")

    def test_combinational_cycle_rejected(self):
        src = ".inputs a\n.outputs y\np = AND(a, q)\nq = AND(a, p)\ny = BUF(p)\n"
        with pytest.raises(CombinationalCycleError):
            parse_netlist(src)

    def test_dff_breaks_cycle(self):
        src = ".inputs a\n.outputs q\nd = XOR(a, q)\nq = DFF(d)\n"
        net = parse_netlist(src)
        assert net.state_width == 1

    def test_syntax_error_carries_position(self):
        with pytest.raises(NetlistSyntaxError) as e:
            parse_netlist(".inputs a\n.outputs y\ny == AND(a, a)\n")
        assert e.value.line == 3

    def test_unknown_gate_kind(self):
        with pytest.raises(NetlistSyntaxError):
            parse_netlist(".inputs a\n.outputs y\ny = XNOR(a, a)\n")

    def test_switchbox_line_is_unknown_kind_in_plain_netlist(self):
        with pytest.raises(NetlistSyntaxError, match="unknown gate kind 'SB2'") as e:
            parse_netlist(".inputs a b\n.outputs y z\nsb0 = SB2(a, b -> y, z)\n")
        assert e.value.line == 3

    @pytest.mark.parametrize("src,error,line", [
        (".inputs a\n.outputs y\ny = BUF(a)\ny = NOT(a)\n", MultipleDriverError, 4),
        (".inputs a a\n.outputs a\n", MultipleDriverError, 1),
        (".inputs a\n.outputs y\n\ny = AND(a, ghost)\n", UndrivenWireError, 4),
        (".inputs a\n.outputs nowhere\n", UndrivenWireError, 2),
    ])
    def test_driver_errors_give_the_line(self, src, error, line):
        with pytest.raises(error, match=f"^line {line}: "):
            parse_netlist(src)


class TestEvaluate:
    @pytest.mark.parametrize(
        "abc,expect",
        [
            ((0, 0, 0), (0, 0)),
            ((1, 1, 0), (0, 1)),
            ((1, 1, 1), (1, 1)),
            ((1, 0, 0), (1, 0)),
            ((0, 1, 1), (0, 1)),
        ],
    )
    def test_full_adder_truth(self, full_adder, abc, expect):
        assert full_adder.evaluate(abc)[0] == expect

    def test_width_check(self, full_adder):
        with pytest.raises(WidthError):
            full_adder.evaluate((1, 0))

    def test_generated_step_refuses_wrong_widths(self):
        # the step unpacks inp and state whole; indexing them ignored extra bits
        net = parse_netlist(".inputs a b\n.outputs y q\ny = AND(a, q)\nq = DFF(b)\n")
        step = net.step_fn()
        assert step((1, 1), (1,)) == ((1, 1), (1,))
        for inp, state in [((1, 1, 0), (1,)), ((1,), (1,)), ((1, 1), (1, 0)), ((1, 1), ())]:
            with pytest.raises(ValueError):
                step(inp, state)

    def test_dff_state_advance(self):
        net = parse_netlist(".inputs d\n.outputs q\nq = DFF(d)\n")
        out, nxt = net.evaluate((1,), (0,))
        assert out == (0,) and nxt == (1,)
        out, nxt = net.evaluate((0,), nxt)
        assert out == (1,) and nxt == (0,)

    def test_determinism(self, full_adder):
        for _ in range(3):
            assert full_adder.evaluate((1, 0, 1))[0] == full_adder.evaluate((1, 0, 1))[0]

    def test_overrides(self, full_adder):
        s_wire = full_adder.outputs[0]
        out, _ = eval_wires(full_adder, (1, 1, 0), overrides={s_wire: "flip"})
        assert out[0] == 1  # healthy s would be 0


def with_faults_spliced(net, overrides):
    """The overrides built as gates: a flip is an XOR with CONST1 after the
    wire, a stuck wire's readers read a CONST0 or CONST1 instead."""
    fresh = max([*net.inputs, *(g.out for g in net.gates)]) + 1
    extra, reroute = [], {}
    for w, mode in overrides.items():
        const = fresh
        extra.append(Gate(const, "CONST0" if mode == "stuck0" else "CONST1", ()))
        if mode == "flip":
            extra.append(Gate(const + 1, "XOR", (w, const)))
        reroute[w] = const + (mode == "flip")
        fresh += 2
    gates = [Gate(g.out, g.kind, tuple(reroute.get(w, w) for w in g.ins)) for g in net.gates]
    outputs = [reroute.get(w, w) for w in net.outputs]
    return Netlist(net.name, net.inputs, outputs, gates + extra, net.wire_names)


class TestFaults:
    """eval_wires against the clean compiled step of the fault built as gates."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32), n_dffs=st.integers(0, 3), lanes=st.integers(1, 64),
           sites=st.lists(st.sampled_from(["input", "dff", "gate"]), min_size=1, max_size=4),
           modes=st.lists(st.sampled_from(["flip", "stuck0", "stuck1"]), min_size=4, max_size=4))
    def test_matches_spliced_netlist(self, seed, n_dffs, lanes, sites, modes):
        rng = random.Random(seed)
        net = with_dffs(random_netlist(5, 15, 3, rng_seed=seed), rng, n_dffs)
        pools = {"input": list(net.inputs),
                 "dff": [g.out for g in net.gates if g.kind == "DFF"],
                 "gate": [g.out for g in net.gates if g.kind != "DFF"]}
        overrides = {rng.choice(pools[site] or pools["gate"]): mode
                     for site, mode in zip(sites, modes)}
        spliced = with_faults_spliced(net, overrides).step_fn()
        mask = (1 << lanes) - 1
        state = tuple(rng.getrandbits(lanes) for _ in range(net.state_width))
        want_state = state
        for _ in range(3):  # a few cycles, so faulted DFF inputs feed back
            x = tuple(rng.getrandbits(lanes) for _ in net.inputs)
            got, state = eval_wires(net, x, state, overrides, mask)
            want, want_state = spliced(x, want_state, mask)
            assert (got, state) == (want, want_state)

    def test_unknown_mode_rejected_before_evaluation(self, full_adder):
        with pytest.raises(ValueError, match="'stuck2'"):
            eval_wires(full_adder, (1, 1, 0), overrides={full_adder.outputs[0]: "stuck2"})

    def test_unknown_wire_rejected(self, full_adder):
        with pytest.raises(ValueError, match="wire 99"):
            eval_wires(full_adder, (1, 1, 0), overrides={99: "flip"})


class TestNames:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_wire_resolves_serialized_names(self, seed):
        net = random_netlist(6, 20, 3, rng_seed=seed)
        again = parse_netlist(serialize_netlist(net))
        for w in (*net.inputs, *(g.out for g in net.gates)):
            name = net.wire_name(w)
            assert net.wire(name) == w
            assert again.wire_name(again.wire(name)) == name

    def test_unnamed_wire_resolves(self):
        net = random_netlist(6, 20, 3, rng_seed=1)
        assert 6 not in net.wire_names
        assert net.wire("w6") == 6

    def test_colliding_default_name(self):
        # an unnamed wire 1 is written w1_ because wire 0 is named w1
        net = Netlist("n", (0,), (1,), (Gate(1, "NOT", (0,)),), {0: "w1"})
        assert net.wire_name(1) == "w1_"
        assert net.wire("w1_") == 1 and net.wire("w1") == 0
        assert "w1_ = NOT(w1)" in serialize_netlist(net)

    def test_unknown_name_raises_key_error(self, full_adder):
        with pytest.raises(KeyError, match="ghost"):
            full_adder.wire("ghost")


class TestRoundTrip:
    def test_canonical_round_trip(self, full_adder):
        text = serialize_netlist(full_adder)
        again = parse_netlist(text)
        assert serialize_netlist(again) == text

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_circuits_round_trip(self, seed):
        net = random_netlist(4, 12, 2, rng_seed=seed)
        text = serialize_netlist(net)
        again = parse_netlist(text)
        assert serialize_netlist(again) == text
        assert check_equivalence(net, again).equivalent


class TestCones:
    def test_sum_cone_is_two_xors(self, full_adder):
        cone = output_cone(full_adder, 0)
        assert sorted(g.kind for g in cone.gates) == ["XOR", "XOR"]
        for v in range(8):
            x = ((v >> 2) & 1, (v >> 1) & 1, v & 1)
            assert cone.evaluate(x)[0][0] == full_adder.evaluate(x)[0][0]

    def test_identity_cone_is_whole_netlist(self):
        net = parse_netlist(".inputs a\n.outputs y\ny = BUF(a)\n")
        cone = output_cone(net, 0)
        assert cone.n_gates == net.n_gates

    def test_disjoint_halves(self):
        src = ".inputs a b\n.outputs p q\np = BUF(a)\nq = BUF(b)\n"
        net = parse_netlist(src)
        g0 = {g.out for g in output_cone(net, 0).gates}
        g1 = {g.out for g in output_cone(net, 1).gates}
        assert g0 and g1 and not (g0 & g1)

    def test_index_out_of_range(self, full_adder):
        with pytest.raises(IndexError):
            output_cone(full_adder, 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_cone_soundness_random(self, seed):
        net = random_netlist(5, 15, 3, rng_seed=seed)
        for i in range(len(net.outputs)):
            cone = output_cone(net, i)
            for vseed in range(8):
                x = tuple((vseed * 7 + j) % 2 for j in range(5))
                assert cone.evaluate(x)[0][0] == net.evaluate(x)[0][i]


class TestEquivalence:
    def test_reflexive_exhaustive(self, full_adder):
        v = check_equivalence(full_adder, full_adder)
        assert v.equivalent and v.mode == "exhaustive" and v.vectors_checked == 8

    def test_arity_mismatch(self, full_adder):
        other = parse_netlist(".inputs a\n.outputs y\ny = BUF(a)\n")
        with pytest.raises(ArityMismatchError):
            check_equivalence(full_adder, other)

    def test_counterexample_replays(self, full_adder):
        # wrong adder: carry uses OR instead of XOR on the sum
        bad = parse_netlist(FULL_ADDER.replace("s = XOR(x1, cin)", "s = OR(x1, cin)"))
        v = check_equivalence(full_adder, bad)
        assert not v.equivalent and v.counterexample is not None
        o1 = full_adder.evaluate(v.counterexample)[0]
        o2 = bad.evaluate(v.counterexample)[0]
        assert o1 != o2

    def test_sampled_mode_on_wide_inputs(self):
        n1 = random_netlist(20, 40, 4, rng_seed=1)
        v = check_equivalence(n1, n1, sample_count=2000)
        assert v.equivalent and v.mode == "sampled" and v.vectors_checked == 2000

    def test_sampled_finds_difference(self):
        n1 = random_netlist(20, 40, 4, rng_seed=2)
        bad_gates = list(n1.gates)
        # flip the driver kind of one output
        from tpad.netlist import Gate, Netlist

        target = n1.outputs[0]
        for i, g in enumerate(bad_gates):
            if g.out == target and g.kind in ("AND", "OR", "XOR"):
                bad_gates[i] = Gate(g.out, "NAND" if g.kind == "AND" else "AND", g.ins)
                break
        n2 = Netlist(n1.name, n1.inputs, n1.outputs, bad_gates, n1.wire_names)
        v = check_equivalence(n1, n2, rng_seed=3)
        if not v.equivalent:
            assert v.counterexample is not None

    def test_sequential_unrolling(self):
        # toggling counter vs itself, then vs a stuck variant
        src = ".inputs en\n.outputs q\nd = XOR(en, q)\nq = DFF(d)\n"
        seq = parse_netlist(src)
        v = check_equivalence(seq, seq)
        assert v.equivalent and v.horizon == 4
        stuck = parse_netlist(".inputs en\n.outputs q\nz = CONST0()\nq = DFF(z)\n")
        v2 = check_equivalence(seq, stuck)
        assert not v2.equivalent
        assert isinstance(v2.counterexample[0], tuple)


def with_gates_spliced(net, rng, kinds):
    """net with one gate of each kind in kinds feeding a random pin of one of
    its gates: CONST0 and CONST1 read nothing, a BUF reads a constant or a
    wire from before that gate, a DFF reads any wire (it cuts the cycle)."""
    gates = list(net.gates)  # random_netlist gates read only earlier wires
    n = len(gates)
    q = max([*net.inputs, *(g.out for g in gates)]) + 1
    consts = []
    for j, kind in enumerate(kinds):
        i = rng.randrange(n)
        g = gates[i]
        p = rng.randrange(len(g.ins))
        gates[i] = Gate(g.out, g.kind, g.ins[:p] + (q + j,) + g.ins[p + 1:])
        if kind == "BUF":
            ins = (rng.choice([*net.inputs, *(h.out for h in gates[:i]), *consts]),)
        elif kind == "DFF":
            ins = (rng.choice([*net.inputs, *(h.out for h in gates)]),)
        else:
            ins = ()
            consts.append(q + j)
        gates.append(Gate(q + j, kind, ins))
    return Netlist(net.name, net.inputs, net.outputs, gates, net.wire_names)


def inlined(net):
    """net's step as a function made of inline_step's statements."""
    ins = [f"i{j}" for j in range(len(net.inputs))]
    state = [f"s{j}" for j in range(net.state_width)]
    outs = [f"o{j}" for j in range(len(net.outputs))]
    lines, nxt = inline_step(net, ins, state, outs, "w")
    body = [*(f"{n} = inp[{j}]" for j, n in enumerate(ins)),
            *(f"{n} = st[{j}]" for j, n in enumerate(state)),
            *lines,
            f"return ({''.join(o + ', ' for o in outs)}), ({''.join(n + ', ' for n in nxt)})"]
    ns = {}
    exec("def step(inp, st, mask):\n" + "".join(f"    {line}\n" for line in body), ns)
    return ns["step"]


class TestInlineStep:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32),
           kinds=st.lists(st.sampled_from(["CONST0", "CONST1", "BUF", "DFF"]),
                          min_size=1, max_size=6))
    def test_equals_step_fn(self, seed, kinds):
        rng = random.Random(seed)
        net = with_gates_spliced(random_netlist(6, 25, 3, rng_seed=seed), rng, kinds)
        # extra outputs that read an input, a DFF or BUF, and a wire listed twice
        extra = [net.inputs[0], net.outputs[0],
                 *[g.out for g in net.gates if g.kind in ("DFF", "BUF")][:2]]
        net = Netlist(net.name, net.inputs, (*net.outputs, *extra), net.gates, net.wire_names)
        step, ref = inlined(net), net.step_fn()
        mask = (1 << 16) - 1
        state = ref_state = tuple(rng.getrandbits(16) for _ in range(net.state_width))
        for _ in range(4):
            inp = tuple(rng.getrandbits(16) for _ in net.inputs)
            got, expected = step(inp, state, mask), ref(inp, ref_state, mask)
            assert got == expected
            state, ref_state = got[1], expected[1]


_REFERENCE_OPS = {
    "AND": all, "OR": any, "XOR": lambda a: sum(a) % 2,
    "NAND": lambda a: not all(a), "NOR": lambda a: not any(a),
    "NOT": lambda a: not a[0], "BUF": lambda a: a[0],
    "CONST0": lambda a: 0, "CONST1": lambda a: 1,
}


def reference_step(net, inp, state, mask):
    """net's step one lane at a time: each wire's bit by recursion over its
    driver, DFF outputs from state; no generated code and no gate order."""
    assert len(inp) == len(net.inputs) and len(state) == net.state_width
    drivers = {g.out: g for g in net.gates}
    dffs = [g for g in net.gates if g.kind == "DFF"]
    outs, nxt = [0] * len(net.outputs), [0] * len(dffs)
    for lane in range(mask.bit_length()):
        bit = {w: v >> lane & 1 for w, v in zip(net.inputs, inp)}
        bit.update((g.out, v >> lane & 1) for g, v in zip(dffs, state))

        def value(w):
            if w not in bit:
                g = drivers[w]
                bit[w] = int(_REFERENCE_OPS[g.kind]([value(i) for i in g.ins]))
            return bit[w]

        for j, w in enumerate(net.outputs):
            outs[j] |= value(w) << lane
        for j, g in enumerate(dffs):
            nxt[j] |= value(g.ins[0]) << lane
    return tuple(outs), tuple(nxt)


def with_buf_corners(net, rng):
    """net plus the BUF corners of a generated step: a chain of three BUFs on
    an input, the last feeding a DFF's D; a BUF on another DFF's Q, read by
    a gate pin; and BUF outputs, one listed twice."""
    gates = list(net.gates)
    wires = [*net.inputs, *(g.out for g in gates)]
    b1, b2, b3, dq, bq, dd = range(max(wires) + 1, max(wires) + 7)
    i = rng.choice([k for k, g in enumerate(gates) if g.ins])
    g = gates[i]
    p = rng.randrange(len(g.ins))
    gates[i] = Gate(g.out, g.kind, g.ins[:p] + (bq,) + g.ins[p + 1:])
    gates += [Gate(b1, "BUF", (net.inputs[0],)), Gate(b2, "BUF", (b1,)), Gate(b3, "BUF", (b2,)),
              Gate(dq, "DFF", (rng.choice(wires),)), Gate(bq, "BUF", (dq,)),
              Gate(dd, "DFF", (b3,))]
    return Netlist(net.name, net.inputs, (*net.outputs, b3, bq, b3, dd), gates, net.wire_names)


class TestStepReference:
    """Generated steps against reference_step, bit for bit at 1-64 lanes."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), lanes=st.integers(1, 64),
           kinds=st.lists(st.sampled_from(["CONST0", "CONST1", "BUF", "DFF"]), max_size=4))
    def test_step_fn(self, seed, lanes, kinds):
        rng = random.Random(seed)
        net = with_gates_spliced(random_netlist(5, 20, 3, rng_seed=seed), rng, kinds)
        net = with_buf_corners(net, rng)
        step, mask = net.step_fn(), (1 << lanes) - 1
        state = want_state = tuple(rng.getrandbits(lanes) for _ in range(net.state_width))
        for _ in range(3):  # a few cycles, so DFF state feeds back
            x = tuple(rng.getrandbits(lanes) for _ in net.inputs)
            got, state = step(x, state, mask)
            want, want_state = reference_step(net, x, want_state, mask)
            assert (got, state) == (want, want_state)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), lanes=st.integers(1, 64), cfg_bits=st.integers(min_value=0))
    def test_union_step(self, seed, lanes, cfg_bits):
        # boxes over random wire pairs, each rerouting every reader of its two
        # wires (output ports too), so applied configurations hold BUF chains
        rng = random.Random(seed)
        net = with_buf_corners(random_netlist(5, 20, 3, rng_seed=seed), rng)
        work = _Work(net)
        for _ in range(8):
            x, y = rng.sample([*work.inputs, *sorted(work.kind)], 2)
            work.add_switchbox(x, y, work.consumers(x), work.consumers(y))
        obf = work.snapshot({sid: rng.choice([PARALLEL, CROSSED]) for sid in work.sb_ins}, "u")
        n = obf.n_switchboxes
        cfg = {sb.id: CROSSED if cfg_bits >> i & 1 else PARALLEL
               for i, sb in enumerate(obf.switchboxes)}
        sel = [-(cfg_bits >> i & 1) for i in range(n)]
        step = union_step(obf.inputs, obf.outputs, obf.gates, obf.switchboxes)
        reference = apply_config(obf, cfg)
        mask = (1 << lanes) - 1
        state = want_state = tuple(rng.getrandbits(lanes) for _ in range(reference.state_width))
        for _ in range(3):
            x = tuple(rng.getrandbits(lanes) for _ in obf.inputs)
            got, state = step(x, state, sel, mask)
            want, want_state = reference_step(reference, x, want_state, mask)
            assert (got, state) == (want, want_state)


class TestSimplify:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_preserves_function(self, seed):
        net = random_netlist(6, 25, 3, rng_seed=seed)
        slim = simplify_netlist(net)
        assert slim.n_gates <= net.n_gates
        assert check_equivalence(net, slim).equivalent

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32),
           kinds=st.lists(st.sampled_from(["CONST0", "CONST1", "BUF", "DFF"]),
                          min_size=1, max_size=6))
    def test_preserves_function_with_constants_buffers_and_dffs(self, seed, kinds):
        net = with_gates_spliced(random_netlist(6, 25, 3, rng_seed=seed), random.Random(seed),
                                 kinds)
        assert check_equivalence(simplify_netlist(net), net).equivalent

    def test_constant_folding(self):
        src = (
            ".inputs a\n.outputs y\none = CONST1()\nzero = CONST0()\n"
            "t = AND(a, one)\nu = OR(t, zero)\ny = XOR(u, zero)\n"
        )
        net = parse_netlist(src)
        slim = simplify_netlist(net)
        assert slim.n_gates <= 1  # reduces to a buffer of a at most
        assert check_equivalence(net, slim).equivalent

    def test_structural_sharing(self):
        src = (
            ".inputs a b\n.outputs y z\n"
            "p = AND(a, b)\nq = AND(a, b)\ny = XOR(p, q)\nz = OR(p, q)\n"
        )
        net = parse_netlist(src)
        slim = simplify_netlist(net)
        # XOR of two copies of the same gate folds to constant zero
        assert check_equivalence(net, slim).equivalent
