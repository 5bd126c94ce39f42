import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpad.lfsr import (
    ErrorMonitor,
    ErrorSignal,
    LfsrError,
    LfsrSpec,
    UnsupportedDegreeError,
    ZeroStateError,
    checker_output,
    combine_error_signals,
    format_lfsr_spec,
    is_primitive,
    lfsr_taps,
    parse_lfsr_spec,
    step_lfsr,
)

# small primitive polynomials, coefficient mask bit i = coeff of x^i
PRIMITIVE = {1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 7: 0x83, 8: 0x11D}


class TestStep:
    def test_period_15_for_degree_4(self):
        spec = LfsrSpec(4, PRIMITIVE[4], 0x1, (0,))
        s = spec.seed
        for steps in range(1, 16):
            s = step_lfsr(s, spec)
            if s == spec.seed:
                break
        assert steps == 15

    def test_degree_1_fixed_point(self):
        spec = LfsrSpec(1, PRIMITIVE[1], 1, (0,))
        assert step_lfsr(1, spec) == 1

    def test_zero_state_rejected(self):
        spec = LfsrSpec(4, PRIMITIVE[4], 1, (0,))
        with pytest.raises(ZeroStateError):
            step_lfsr(0, spec)

    @pytest.mark.parametrize("degree", [3, 4, 5, 7, 8])
    def test_never_reaches_zero_and_visits_all(self, degree):
        spec = LfsrSpec(degree, PRIMITIVE[degree], 1, (0,))
        s, seen = 1, set()
        for _ in range((1 << degree) - 1):
            assert s != 0
            seen.add(s)
            s = step_lfsr(s, spec)
        assert len(seen) == (1 << degree) - 1


class TestPrimitivity:
    def test_known_primitive(self):
        assert is_primitive(0x13, 4)

    def test_known_reducible(self):
        assert not is_primitive(0x15, 4)  # x^4 + x^2 + 1 = (x^2 + x + 1)^2

    def test_degree_one(self):
        assert is_primitive(0x3, 1)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedDegreeError):
            is_primitive((1 << 30) | 0x7, 30)

    def test_bad_polynomial_format(self):
        with pytest.raises(ValueError):
            is_primitive(0x12, 4)  # constant term 0

    def test_exhaustive_degree_4_count(self):
        # exactly two primitive degree-4 polynomials: x^4+x+1 and x^4+x^3+1
        masks = [0x11 | (c << 1) for c in range(8)]
        prim = [m for m in masks if is_primitive(m, 4)]
        assert sorted(prim) == [0x13, 0x19]


class TestCheckerOutput:
    def test_no_attack_equals_taps(self):
        taps = (1, 1, 0, 1, 0, 1)
        sig = checker_output(taps, (0, 1, 0, 1, 1, 0), (0, 1, 0, 1, 1, 0))
        assert sig.bits == taps

    def test_single_mismatch_flips_that_bit(self):
        taps = (1, 1, 0, 1, 0, 1)
        sig = checker_output(taps, (0,) * 6, (0, 0, 0, 0, 0, 1))
        assert sig.bits == (1, 1, 0, 1, 0, 0)

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_equality_iff_match(self, t, p, a):
        taps = tuple((t >> i) & 1 for i in range(3))
        pred = tuple((p >> i) & 1 for i in range(3))
        act = tuple((a >> i) & 1 for i in range(3))
        sig = checker_output(taps, pred, act)
        assert (sig.bits == taps) == (pred == act)


class TestCombining:
    def test_all_clear_passes_through(self):
        taps = (0, 1, 1, 0)
        sigs = [ErrorSignal(taps) for _ in range(3)]
        assert combine_error_signals(taps, sigs).bits == taps

    def test_or_absorbs_deviation(self):
        assert combine_error_signals((0,), [ErrorSignal((1,)), ErrorSignal((0,))]).bits == (1,)

    def test_and_absorbs_deviation(self):
        assert combine_error_signals((1,), [ErrorSignal((0,)), ErrorSignal((1,))]).bits == (0,)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            combine_error_signals((0,), [])

    def test_exhaustive_no_cancellation(self):
        """Up to 4 checkers x r <= 4: combined equals taps iff all clear.

        Identical deviations cannot cancel through the monotone OR/AND
        combine; every deviating pattern leaves the tap value.
        """
        for r in (1, 2, 3, 4):
            for n in (1, 2, 3, 4):
                if (1 << (r * n)) * (1 << r) > 200_000:
                    continue  # keep the exhaustive sweep affordable
                for tv in range(1 << r):
                    taps = tuple((tv >> i) & 1 for i in range(r))
                    for combo in itertools.product(range(1 << r), repeat=n):
                        sigs = [
                            ErrorSignal(tuple((c >> i) & 1 for i in range(r)))
                            for c in combo
                        ]
                        out = combine_error_signals(taps, sigs)
                        all_clear = all(s.bits == taps for s in sigs)
                        assert (out.bits == taps) == all_clear


class TestMonitor:
    def test_closed_loop_clean(self):
        spec = LfsrSpec(8, PRIMITIVE[8], 0x5A, (0, 3, 6))
        mon = ErrorMonitor(spec)
        chip_state = spec.seed
        for _ in range(100_000):
            assert not mon.check(lfsr_taps(chip_state, spec))
            chip_state = step_lfsr(chip_state, spec)

    def test_single_flip_detected_exactly_once(self):
        spec = LfsrSpec(8, PRIMITIVE[8], 0x5A, (0, 3, 6))
        stream = []
        s = spec.seed
        for c in range(500):
            bits = list(lfsr_taps(s, spec))
            if c == 123:
                bits[1] ^= 1
            stream.append(tuple(bits))
            s = step_lfsr(s, spec)
        mon = ErrorMonitor(spec)
        verdicts = [mon.check(sig) for sig in stream]
        assert verdicts[123] and sum(verdicts) == 1

    def test_misconfigured_monitor_fires_from_start(self):
        spec = LfsrSpec(8, PRIMITIVE[8], 0x5A, (0, 3, 6))
        other = LfsrSpec(8, PRIMITIVE[8], 0x11, (0, 3, 6))
        mon = ErrorMonitor(other)
        chip_state = spec.seed
        fired_at_zero = mon.check(lfsr_taps(chip_state, spec))
        assert fired_at_zero


class TestSpecFile:
    def test_round_trip(self):
        spec = LfsrSpec(16, 0x1002D, 0xACE1, (0, 2, 4))
        assert parse_lfsr_spec(format_lfsr_spec(spec)) == spec

    def test_repeated_field_rejected(self):
        text = format_lfsr_spec(LfsrSpec(16, 0x1002D, 0xACE1, (0, 2, 4))) + "seed = 0x1\n"
        with pytest.raises(LfsrError, match=r"^line 5: repeated field 'seed'"):
            parse_lfsr_spec(text)

    def test_unknown_field_rejected(self):
        text = format_lfsr_spec(LfsrSpec(16, 0x1002D, 0xACE1, (0, 2, 4))) + "tapz = 1 2\n"
        with pytest.raises(LfsrError, match=r"^line 5: unknown field 'tapz'"):
            parse_lfsr_spec(text)

    @pytest.mark.parametrize("field, bad", [("seed", "zz"), ("L", "x16"), ("taps", "0 two")])
    def test_bad_value_names_field(self, field, bad):
        lines = format_lfsr_spec(LfsrSpec(16, 0x1002D, 0xACE1, (0, 2, 4))).splitlines()
        text = "\n".join(f"{field} = {bad}" if ln.startswith(f"{field} ") else ln for ln in lines)
        with pytest.raises(LfsrError, match=rf"^field '{field}': expected a base-1[06] integer"):
            parse_lfsr_spec(text)

    def test_validation(self):
        with pytest.raises(ValueError):
            LfsrSpec(4, 0x13, 0, (0,))  # zero seed
        with pytest.raises(ValueError):
            LfsrSpec(4, 0x13, 1, (0, 0))  # duplicate taps
        with pytest.raises(ValueError):
            LfsrSpec(4, 0x13, 1, (4,))  # tap out of range
