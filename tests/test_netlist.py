import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpad.netlist import (
    ArityError,
    ArityMismatchError,
    INLINE_DEPTH,
    CombinationalCycleError,
    Gate,
    MultipleDriverError,
    Netlist,
    NetlistBuilder,
    NetlistSyntaxError,
    UndrivenWireError,
    WidthError,
    check_equivalence,
    compare_steps,
    eval_wires,
    inline_step,
    parse_netlist,
    random_netlist,
    serialize_netlist,
    simplify_netlist,
)
from tpad import parity
from tpad.parity import build_ocp, sample_parity_code
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
        assert eval_wires(net, (1,))[0] == (1,)
        assert eval_wires(net, (0,))[0] == (0,)

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
        assert eval_wires(full_adder, abc)[0] == expect

    def test_width_check(self, full_adder):
        with pytest.raises(WidthError):
            eval_wires(full_adder, (1, 0))

    def test_generated_step_refuses_wrong_widths(self):
        # every step, the fault step too, unpacks inp and state whole; indexing
        # them ignored extra bits
        net = parse_netlist(".inputs a b\n.outputs y q\ny = AND(a, q)\nq = DFF(b)\n")
        fault, slots = net.fault_step_fn(frozenset((net.wire("a"), net.wire("q"))))
        clear = ([-1] * len(slots), [0] * len(slots))
        for step in (net.step_fn(), lambda inp, state: fault(inp, state, *clear)):
            assert step((1, 1), (1,)) == ((1, 1), (1,))
            for inp, state in [((1, 1, 0), (1,)), ((1,), (1,)), ((1, 1), (1, 0)), ((1, 1), ())]:
                with pytest.raises(ValueError):
                    step(inp, state)

    def test_dff_state_advance(self):
        net = parse_netlist(".inputs d\n.outputs q\nq = DFF(d)\n")
        out, nxt = eval_wires(net, (1,), (0,))
        assert out == (0,) and nxt == (1,)
        out, nxt = eval_wires(net, (0,), nxt)
        assert out == (1,) and nxt == (0,)

    def test_determinism(self, full_adder):
        for _ in range(3):
            assert eval_wires(full_adder, (1, 0, 1))[0] == eval_wires(full_adder, (1, 0, 1))[0]

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
    """eval_wires, and the fault step slotted only on the overridden wires,
    against the clean compiled step of the fault built as gates."""

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
        armed, slots = net.fault_step_fn(frozenset(overrides))
        assert sorted(slots) == sorted(overrides)
        a, b = [-1] * len(slots), [0] * len(slots)
        pairs = {"flip": (-1, mask), "stuck0": (0, 0), "stuck1": (0, mask)}
        for w, mode in overrides.items():
            a[slots[w]], b[slots[w]] = pairs[mode]
        state = tuple(rng.getrandbits(lanes) for _ in range(net.state_width))
        want_state = armed_state = state
        for _ in range(3):  # a few cycles, so faulted DFF inputs feed back
            x = tuple(rng.getrandbits(lanes) for _ in net.inputs)
            got, state = eval_wires(net, x, state, overrides, mask)
            want, want_state = spliced(x, want_state, mask)
            assert (got, state) == (want, want_state)
            got, armed_state = armed(x, armed_state, a, b, mask)
            assert (got, armed_state) == (want, want_state)

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

    def test_lower_wire_keeps_a_shared_name(self):
        # unnamed wire 0 is written w0, so wire 1, also given w0, is written w0_
        net = Netlist("n", (0,), (1,), (Gate(1, "NOT", (0,)),), {1: "w0"})
        assert serialize_netlist(net) == ".model n\n.inputs w0\n.outputs w0_\nw0_ = NOT(w0)\n"
        assert net.wire("w0") == 0 and net.wire("w0_") == 1

    def test_unknown_name_raises_key_error(self, full_adder):
        with pytest.raises(KeyError, match="ghost"):
            full_adder.wire("ghost")


_BUILDER_NAMES = st.one_of(st.none(), st.sampled_from(["a", "a_", "b"]),
                           st.builds("w{}".format, st.integers(0, 12)))


@st.composite
def named_netlists(draw):
    """Builder netlists whose wire names repeat and take the w<k> shape of
    the names unnamed wires are written under."""
    b = NetlistBuilder("named")
    wires = [b.input(draw(_BUILDER_NAMES)) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["AND", "OR", "XOR", "NAND", "NOT", "BUF"]))
        ins = [draw(st.sampled_from(wires)) for _ in range(1 if kind in ("NOT", "BUF") else 2)]
        wires.append(b.gate(kind, *ins, name=draw(_BUILDER_NAMES)))
    b.set_outputs(draw(st.lists(st.sampled_from(wires), min_size=1, max_size=3)))
    return b.build()


class TestRoundTrip:
    def test_duplicate_input_names(self):
        b = NetlistBuilder("dup")
        x, y = b.input("a"), b.input("a")
        b.set_outputs([b.gate("AND", x, y)])
        text = serialize_netlist(b.build())
        assert text == ".model dup\n.inputs a a_\n.outputs w2\nw2 = AND(a, a_)\n"
        assert serialize_netlist(parse_netlist(text)) == text

    @given(named_netlists())
    @settings(max_examples=150, deadline=None)
    def test_named_builders_round_trip(self, net):
        text = serialize_netlist(net)
        again = parse_netlist(text)
        assert serialize_netlist(again) == text
        assert check_equivalence(net, again).equivalent
        for w in (*net.inputs, *(g.out for g in net.gates)):
            assert net.wire(net.wire_name(w)) == w
            assert again.wire_name(again.wire(net.wire_name(w))) == net.wire_name(w)

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


def output_cone(net: Netlist, output_index: int) -> Netlist:
    """Sub-netlist with exactly the transitive fan-in gates of one output.

    The full ordered primary-input list is retained so the cone evaluates on
    the same input vectors as the parent netlist.
    """
    if not 0 <= output_index < len(net.outputs):
        raise IndexError(f"output index {output_index} out of range")
    by_out = {g.out: g for g in net.gates}
    keep: set[int] = set()
    stack = [net.outputs[output_index]]
    while stack:
        w = stack.pop()
        g = by_out.get(w)
        if g is None or g.out in keep:
            continue
        keep.add(g.out)
        stack.extend(g.ins)
    gates = [g for g in net.gates if g.out in keep]
    return Netlist(
        f"{net.name}.cone{output_index}",
        net.inputs,
        (net.outputs[output_index],),
        gates,
        net.wire_names,
    )


class TestCones:
    def test_sum_cone_is_two_xors(self, full_adder):
        cone = output_cone(full_adder, 0)
        assert sorted(g.kind for g in cone.gates) == ["XOR", "XOR"]
        for v in range(8):
            x = ((v >> 2) & 1, (v >> 1) & 1, v & 1)
            assert eval_wires(cone, x)[0][0] == eval_wires(full_adder, x)[0][0]

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
                assert eval_wires(cone, x)[0][0] == eval_wires(net, x)[0][i]


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
        o1 = eval_wires(full_adder, v.counterexample)[0]
        o2 = eval_wires(bad, v.counterexample)[0]
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

    @pytest.mark.parametrize("sample_count", [0, -5])
    def test_empty_sample_count_refused(self, sample_count):
        # no vectors would be checked, so no verdict can be given
        n1, n2 = random_netlist(20, 40, 3, rng_seed=1), random_netlist(20, 40, 3, rng_seed=2)
        with pytest.raises(ValueError, match="sample_count must be >= 1"):
            check_equivalence(n1, n2, sample_count=sample_count)

    @pytest.mark.parametrize("n_inputs", [3, 20])  # a truth table, then sampled vectors
    def test_no_blocks_no_verdicts(self, n_inputs):
        step = random_netlist(n_inputs, 10, 2, rng_seed=1).step_fn()
        assert compare_steps(step, lambda x, s, mask, blocks: step(x, s, mask), n_inputs,
                             rng_seeds=()) == []

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


def inlined(net, **shared):
    """net's step as a function made of inline_step's statements (shared: its
    values and inline arguments)."""
    ins = [f"i{j}" for j in range(len(net.inputs))]
    state = [f"s{j}" for j in range(net.state_width)]
    outs = [f"o{j}" for j in range(len(net.outputs))]
    lines, nxt = body(net, ins, state, outs, "w", **shared)
    return as_step(ins, state, lines, [outs], nxt)


def body(net, ins, state, outs, var, values=None, inline=False):
    """inline_step's statements and next-state names for net, with input i in
    ins[i], DFF i's output in state[i] and output j left in outs[j]."""
    given = dict(zip((*net.inputs, *(g.out for g in net._dffs)), (*ins, *state)))
    lines, _, nxt = inline_step(net._topo, net._dffs, given, list(zip(net.outputs, outs)), var,
                                values, inline)
    return lines, nxt


def as_step(ins, state, lines, outs, nxt):
    """step(inp, st, mask) running lines, returning each of the output lists and nxt."""
    body = [*(f"{n} = inp[{j}]" for j, n in enumerate(ins)),
            *(f"{n} = st[{j}]" for j, n in enumerate(state)),
            *lines,
            "return " + "".join(f"({''.join(o + ', ' for o in names)}), "
                                for names in (*outs, nxt))]
    ns = {}
    exec("def step(inp, st, mask):\n" + "".join(f"    {line}\n" for line in body), ns)
    return ns["step"]


def with_twins(net, rng):
    """net plus a second copy of every combinational gate, operands shuffled,
    read by nothing: each value is computed twice."""
    next_id = max([*net.inputs, *(g.out for g in net.gates)]) + 1
    twin = {}
    gates = list(net.gates)
    for g in net._topo:
        twin[g.out] = next_id
        ins = [twin.get(w, w) if rng.random() < 0.5 else w for w in g.ins]
        rng.shuffle(ins)
        gates.append(Gate(next_id, g.kind, tuple(ins)))
        next_id += 1
    return Netlist(net.name, net.inputs, net.outputs, gates, net.wire_names)


class TestInlineStep:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32),
           kinds=st.lists(st.sampled_from(["CONST0", "CONST1", "BUF", "DFF"]),
                          min_size=1, max_size=6),
           table=st.booleans(), inline=st.booleans())
    def test_equals_step_fn(self, seed, kinds, table, inline):
        rng = random.Random(seed)
        net = with_gates_spliced(random_netlist(6, 25, 3, rng_seed=seed), rng, kinds)
        # extra outputs that read an input, a DFF or BUF, and a wire listed twice
        extra = [net.inputs[0], net.outputs[0],
                 *[g.out for g in net.gates if g.kind in ("DFF", "BUF")][:2]]
        net = Netlist(net.name, net.inputs, (*net.outputs, *extra), net.gates, net.wire_names)
        step, ref = inlined(net, values={} if table else None, inline=inline), net.step_fn()
        mask = (1 << 16) - 1
        state = ref_state = tuple(rng.getrandbits(16) for _ in range(net.state_width))
        for _ in range(4):
            inp = tuple(rng.getrandbits(16) for _ in net.inputs)
            got, expected = step(inp, state, mask), ref(inp, ref_state, mask)
            assert got[:2] == expected
            state, ref_state = got[1], expected[1]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32),
           kinds=st.lists(st.sampled_from(["CONST0", "CONST1", "BUF", "DFF"]), max_size=4))
    def test_shared_table(self, seed, kinds):
        """A second body over a table that holds every value of the first copies
        each output; inside one body each distinct value is computed once."""
        rng = random.Random(seed)
        base = with_gates_spliced(random_netlist(6, 25, 4, rng_seed=seed), rng, kinds)
        net = with_twins(base, rng)
        ins = [f"i{j}" for j in range(len(net.inputs))]
        state = [f"s{j}" for j in range(net.state_width)]
        outs = [[f"{v}{j}" for j in range(len(net.outputs))] for v in "ab"]
        values = {}
        first, nxt = body(net, ins, state, outs[0], "w", values)
        # the twins add no statement
        assert len(first) <= sum(g.kind != "BUF" for g in base._topo) + len(net.outputs)
        second, nxt2 = body(net, ins, state, outs[1], "x", values, inline=True)
        assert nxt2 == nxt
        assert all(re.fullmatch(r"b\d+ = [a-z]+\d+", line) for line in second), second
        step, ref = as_step(ins, state, first + second, outs, nxt), net.step_fn()
        mask = (1 << 16) - 1
        inp = tuple(rng.getrandbits(16) for _ in net.inputs)
        st_ = tuple(rng.getrandbits(16) for _ in range(net.state_width))
        a, b, n = step(inp, st_, mask)
        assert (a, n) == (b, n) == ref(inp, st_, mask)

    def test_inlining_drops_moved_values(self):
        net = parse_netlist(".inputs a b c\n.outputs y\nu = AND(a, b)\nv = XOR(u, c)\n"
                            "y = OR(v, u)\n")
        values = {}
        lines, _ = body(net, ["a", "b", "c"], [], ["y"], "w", values, inline=True)
        # u has two readers and stays; v has one and moves into y's statement
        assert lines == [f"w{net.wire('u')} = a & b", f"y = (w{net.wire('u')} ^ c) | w{net.wire('u')}"]
        assert sorted(values.values()) == [f"w{net.wire('u')}", "y"]

    @pytest.mark.parametrize("length", [1000, 3000])
    def test_long_single_use_chain_compiles(self, length):
        b = NetlistBuilder("chain")
        x, y = b.input("x"), b.input("y")
        w = x
        for i in range(length):
            w = b.gate(("XOR", "NAND", "NOT", "OR")[i % 4], *((w,) if i % 4 == 2 else (w, y)))
        b.set_outputs([w])
        net = b.build()
        ins = ["x", "y"]
        lines, _ = body(net, ins, [], ["o0"], "w", inline=True)
        assert len(lines) < length // 10
        assert max(_nesting(line) for line in lines) <= INLINE_DEPTH + 1
        step = as_step(ins, [], lines, [["o0"]], [])
        for inp in [(0, 0), (0, 1), (1, 0), (1, 1), (0b0101, 0b0011)]:
            assert step(inp, (), 15)[:1] == net.step_fn()(inp, (), 15)[:1]


def _nesting(text):
    """The deepest parenthesis nesting in text."""
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


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


def _simplify_oracle(net: Netlist) -> Netlist:
    """simplify_netlist as it was written before its table-driven fold: one
    branch per gate kind and its own structural-sharing lookup in each. The
    fold must build the same netlist: the same gates, wire ids, order and
    outputs.
    """
    repl: dict[int, int] = {}  # wire -> canonical wire
    const: dict[int, int] = {}  # wire -> 0/1
    seen: dict[tuple, int] = {}
    gates: list[Gate] = []
    next_id = max([*net.inputs, *(g.out for g in net.gates), -1]) + 1

    def fresh() -> int:
        nonlocal next_id
        w = next_id
        next_id += 1
        return w

    def canon(w: int) -> int:
        while w in repl:
            w = repl[w]
        return w

    for g in net._topo + net._dffs:
        ins = tuple(canon(w) for w in g.ins)
        kind = g.kind
        if kind == "DFF":
            key = ("DFF", ins)
            prev = seen.get(key)
            if prev is not None:
                repl[g.out] = prev
                continue
            seen[key] = g.out
            gates.append(Gate(g.out, "DFF", ins))
            continue
        vals = [const.get(w) for w in ins]
        if kind in ("CONST0", "CONST1"):
            const[g.out] = 1 if kind == "CONST1" else 0
            continue
        if kind == "BUF":
            if vals[0] is not None:
                const[g.out] = vals[0]
            else:
                repl[g.out] = ins[0]
            continue
        if kind == "NOT":
            if vals[0] is not None:
                const[g.out] = 1 - vals[0]
                continue
        if kind in ("AND", "NAND", "OR", "NOR", "XOR"):
            live = []
            acc = 0 if kind in ("OR", "NOR", "XOR") else 1
            for w, v in zip(ins, vals):
                if v is None:
                    live.append(w)
                elif kind in ("AND", "NAND"):
                    acc &= v
                elif kind in ("OR", "NOR"):
                    acc |= v
                else:
                    acc ^= v
            if kind in ("AND", "NAND") and acc == 0:
                const[g.out] = 1 if kind == "NAND" else 0
                continue
            if kind in ("OR", "NOR") and acc == 1:
                const[g.out] = 0 if kind == "NOR" else 1
                continue
            if not live:
                v = acc
                if kind in ("NAND", "NOR"):
                    v = 1 - v
                const[g.out] = v
                continue
            invert = kind in ("NAND", "NOR") or (kind == "XOR" and acc == 1)
            base = {"NAND": "AND", "NOR": "OR"}.get(kind, kind)
            if len(live) == 1:
                kind2, ins2 = ("NOT", (live[0],)) if invert else ("BUF", (live[0],))
            else:
                ordered = tuple(sorted(live))
                kind2, ins2 = base, ordered
                if invert:
                    kind2 = {"AND": "NAND", "OR": "NOR"}.get(base, base)
                    if base == "XOR":
                        # fold the inversion into a NOT after the shared XOR
                        key = ("XOR", ordered)
                        prev = seen.get(key)
                        if prev is None:
                            prev = fresh()
                            seen[key] = prev
                            gates.append(Gate(prev, "XOR", ordered))
                        kind2, ins2 = "NOT", (prev,)
            if kind2 == "BUF":
                repl[g.out] = ins2[0]
                continue
            key = (kind2, ins2)
            prev = seen.get(key)
            if prev is not None:
                repl[g.out] = prev
                continue
            seen[key] = g.out
            gates.append(Gate(g.out, kind2, ins2))
            continue
        # NOT of a live wire
        key = (kind, ins)
        prev = seen.get(key)
        if prev is not None:
            repl[g.out] = prev
            continue
        seen[key] = g.out
        gates.append(Gate(g.out, kind, ins))

    # materialize constants that ended up driving outputs or live gate inputs
    const_gate: dict[int, int] = {}
    extra: list[Gate] = []

    def resolve(w: int) -> int:
        w = canon(w)
        if w in const:
            v = const[w]
            if v not in const_gate:
                const_gate[v] = fresh()
                extra.append(Gate(const_gate[v], "CONST1" if v else "CONST0", ()))
            return const_gate[v]
        return w

    fixed_gates = []
    for g in gates:
        fixed_gates.append(Gate(g.out, g.kind, tuple(resolve(w) for w in g.ins)))
    outputs = [resolve(w) for w in net.outputs]
    fixed_gates.extend(extra)

    # dead-code removal: keep fan-in of outputs, following DFF data inputs
    by_out = {g.out: g for g in fixed_gates}
    keep: set[int] = set()
    stack = list(outputs)
    while stack:
        w = stack.pop()
        g = by_out.get(w)
        if g is None or g.out in keep:
            continue
        keep.add(g.out)
        stack.extend(g.ins)
    live_gates = [g for g in fixed_gates if g.out in keep]
    return Netlist(net.name, net.inputs, outputs, live_gates, net.wire_names)


_MIXED_KINDS = ["CONST0", "CONST1", "BUF", "NOT", "DFF", "AND", "NAND", "OR", "NOR", "XOR"]


@st.composite
def mixed_netlists(draw):
    """Netlists of every gate kind, AND/NAND/OR/NOR/XOR of arity 2-4 with
    repeated and constant inputs, shuffled wire ids and gate order, and DFFs
    that may read any wire (loops through them included)."""
    n_in = draw(st.integers(0, 4))
    kinds = draw(st.lists(st.sampled_from(_MIXED_KINDS), max_size=14))
    ids = draw(st.permutations(range(n_in + len(kinds))))
    inputs, outs = ids[:n_in], ids[n_in:]
    dffs = [w for w, kind in zip(outs, kinds) if kind == "DFF"]
    avail, gates = [*inputs, *dffs], []
    for w, kind in zip(outs, kinds):
        if kind == "DFF":
            continue
        arity = 0 if kind in ("CONST0", "CONST1") else 1 if kind in ("BUF", "NOT") \
            else draw(st.integers(2, 4))
        if arity and not avail:
            kind, arity = "CONST1", 0
        gates.append(Gate(w, kind, tuple(draw(st.sampled_from(avail)) for _ in range(arity))))
        avail.append(w)
    gates += [Gate(w, "DFF", (draw(st.sampled_from(avail)),)) for w in dffs]
    outputs = draw(st.lists(st.sampled_from(ids), max_size=4)) if ids else []
    return Netlist("mixed", inputs, outputs, draw(st.permutations(gates)))


def assert_same_netlist(got: Netlist, want: Netlist) -> None:
    assert (got.gates, got.outputs, got.inputs) == (want.gates, want.outputs, want.inputs)


class TestSimplify:

    @given(mixed_netlists())
    @settings(max_examples=400, deadline=None)
    def test_matches_oracle(self, net):
        assert_same_netlist(simplify_netlist(net), _simplify_oracle(net))

    @pytest.mark.parametrize("m,n,k,r", [(4, 10, 2, 1), (6, 25, 3, 2), (10, 48, 16, 3),
                                         (12, 60, 8, 4), (16, 120, 16, 3)])
    def test_matches_oracle_on_ocps(self, monkeypatch, m, n, k, r):
        """The netlist build_ocp hands to simplify_netlist, folded both ways."""
        pre = []
        monkeypatch.setattr(parity, "simplify_netlist", lambda net: pre.append(net) or net)
        for seed in range(4):
            f = random_netlist(m, n, k, rng_seed=seed)
            build_ocp(f, sample_parity_code(k, r, seed))
        assert len(pre) == 4
        for net in pre:
            assert_same_netlist(simplify_netlist(net), _simplify_oracle(net))
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
