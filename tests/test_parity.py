import itertools
import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpad.netlist import WidthError, check_equivalence, eval_wires
from tpad.parity import (
    ParityCheckMatrix,
    build_ocp,
    estimate_detection_probability,
    format_matrix,
    parse_matrix,
    sample_parity_code,
)


class TestMatrix:
    def test_rejects_zero_row(self):
        with pytest.raises(ValueError):
            ParityCheckMatrix(((0, 0), (1, 1)))

    def test_rejects_zero_column(self):
        with pytest.raises(ValueError):
            ParityCheckMatrix(((1, 0), (1, 0)))

    def test_full_rows_appends_identity(self):
        h = ParityCheckMatrix(((1, 1), (1, 0)))
        full = tuple(row + tuple(int(i == j) for j in range(h.r)) for i, row in enumerate(h.rows))
        assert full == ((1, 1, 1, 0), (1, 0, 0, 1))


class TestSampling:
    def test_k1_r1_forced(self):
        for seed in range(5):
            assert sample_parity_code(1, 1, seed).rows == ((1,),)

    def test_deterministic_under_seed(self):
        a = sample_parity_code(4, 3, 42)
        b = sample_parity_code(4, 3, 42)
        assert a == b

    def test_constraints_always_hold(self):
        for seed in range(50):
            h = sample_parity_code(7, 3, seed)
            assert all(any(row) for row in h.rows)
            for j in range(7):
                assert any(row[j] for row in h.rows)

    def test_uniform_over_valid_set(self):
        """Chi-square of 10k draws of (k=3, r=2) against the enumerated set."""
        valid = []
        for bits in itertools.product((0, 1), repeat=6):
            rows = (bits[0:3], bits[3:6])
            if not all(any(r) for r in rows):
                continue
            if any(not (rows[0][j] or rows[1][j]) for j in range(3)):
                continue
            valid.append(rows)
        n = 10_000
        counts = {v: 0 for v in valid}
        for seed in range(n):
            h = sample_parity_code(3, 2, seed)
            counts[h.rows] += 1
        expect = n / len(valid)
        chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
        dof = len(valid) - 1
        # 3 sigma on a chi-square with dof degrees of freedom
        assert chi2 < dof + 3 * math.sqrt(2 * dof), (chi2, dof, len(valid))


class TestCheckBits:
    def test_worked_example(self):
        h = ParityCheckMatrix(((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)))
        assert h.check_bits((1, 0, 1, 1)) == (1, 0, 0)

    def test_zero_info_gives_zero_checks(self):
        h = sample_parity_code(6, 3, 1)
        assert h.check_bits((0,) * 6) == (0, 0, 0)

    def test_identity_matrix_copies(self):
        h = ParityCheckMatrix(((1, 0), (0, 1)))
        assert h.check_bits((1, 0)) == (1, 0)

    @given(st.integers(0, 1000), st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, seed, xa, xb):
        h = sample_parity_code(8, 3, seed)
        a = tuple((xa >> i) & 1 for i in range(8))
        b = tuple((xb >> i) & 1 for i in range(8))
        ab = tuple(p ^ q for p, q in zip(a, b))
        ca, cb = h.check_bits(a), h.check_bits(b)
        assert h.check_bits(ab) == tuple(p ^ q for p, q in zip(ca, cb))


class TestCompiledCheckBits:
    """The compiled kernel against a per-column XOR reference."""

    @settings(max_examples=120, deadline=None)
    @given(k=st.integers(1, 40), r=st.integers(1, 8), lanes=st.integers(1, 70),
           seed=st.integers(0, 2**32))
    def test_matches_column_reference(self, k, r, lanes, seed):
        h = sample_parity_code(k, r, seed)
        rng = random.Random(seed)
        for width in (1, lanes):  # bits, then lane ints
            info = [rng.getrandbits(width) for _ in range(k)]
            expected = [0] * r
            for j, v in enumerate(info):  # column j adds info bit j to its check bits
                for i in range(r):
                    if h.rows[i][j]:
                        expected[i] ^= v
            assert h.check_bits(info) == tuple(expected)
            assert h.check_bits(tuple(info)) == tuple(expected)
        for bad in (k - 1, k + 1):
            with pytest.raises(WidthError, match=f"^expected {k} info bits, got {bad}$"):
                h.check_bits([0] * bad)

    def test_compiled_matrix_pickles(self):
        h = sample_parity_code(12, 4, 5)
        word = (1, 0) * 6
        expected = h.check_bits(word)
        again = pickle.loads(pickle.dumps(h))
        assert again == h and again.check_bits(word) == expected


class TestVerify:
    def test_roundtrip_verifies(self):
        h = sample_parity_code(10, 4, 7)
        rng = random.Random(0)
        for _ in range(20):
            info = tuple(rng.getrandbits(1) for _ in range(10))
            check = h.check_bits(info)
            # a verifier holding its own copy of the code recomputes them
            assert ParityCheckMatrix(h.rows).check_bits(info) == check

    def test_any_single_flip_fails(self):
        h = sample_parity_code(10, 4, 8)
        info = tuple(i % 2 for i in range(10))
        check = h.check_bits(info)
        n = 14
        for pos in range(n):
            i2, c2 = list(info), list(check)
            if pos < 10:
                i2[pos] ^= 1
            else:
                c2[pos - 10] ^= 1
            assert h.check_bits(tuple(i2)) != tuple(c2), pos

    def test_zero_codeword_always_valid(self):
        """Linearity keeps all-zero a codeword; the parity-null attack needs this."""
        for seed in range(10):
            h = sample_parity_code(9, 3, seed)
            assert h.check_bits((0,) * 9) == (0, 0, 0)


class TestBuildOcp:
    def test_adder_parity_of_both_outputs(self, full_adder):
        h = ParityCheckMatrix(((1, 1),))
        ocp = build_ocp(full_adder, h)
        assert eval_wires(ocp, (1, 1, 0))[0] == (1,)  # s=0, cout=1
        for v in range(8):
            x = ((v >> 2) & 1, (v >> 1) & 1, v & 1)
            fo = eval_wires(full_adder, x)[0]
            assert eval_wires(ocp, x)[0] == h.check_bits(fo)

    def test_identity_code_reproduces_function(self, full_adder):
        ocp = build_ocp(full_adder, ParityCheckMatrix(((1, 0), (0, 1))))
        assert check_equivalence(ocp, full_adder).equivalent

    @given(st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_composition(self, seed):
        from tpad.netlist import random_netlist

        f = random_netlist(5, 16, 4, rng_seed=seed)
        h = sample_parity_code(4, 2, seed)
        ocp = build_ocp(f, h)
        for v in range(32):
            x = tuple((v >> j) & 1 for j in range(5))
            assert eval_wires(ocp, x)[0] == h.check_bits(eval_wires(f, x)[0])

    def test_arity_check(self, full_adder):
        with pytest.raises(Exception):
            build_ocp(full_adder, sample_parity_code(3, 2, 0))


class TestDetectionEstimate:
    def test_single_bit_is_certain(self):
        assert estimate_detection_probability(100, 3, 1, 5000, rng_seed=1) == 1.0

    def test_r3_multibit_near_875(self):
        rate = estimate_detection_probability(100, 3, 50, 20000, rng_seed=2)
        assert abs(rate - 0.875) <= 0.01

    def test_r8_multibit_near_996(self):
        rate = estimate_detection_probability(100, 8, 50, 20000, rng_seed=3)
        assert abs(rate - 0.996) <= 0.003

    def test_converges_to_one_minus_half_pow_r(self):
        for r in (3, 5):
            rate = estimate_detection_probability(60, r, 30, 12000, rng_seed=r)
            assert abs(rate - (1 - 0.5**r)) < 0.02

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            estimate_detection_probability(10, 3, 0, 10)
        with pytest.raises(ValueError):
            estimate_detection_probability(10, 3, 14, 10)


class TestMatrixFile:
    def test_round_trip(self):
        h = sample_parity_code(9, 4, 11)
        assert parse_matrix(format_matrix(h)) == h

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2\n11\n")
        with pytest.raises(ValueError):
            parse_matrix("2 1\n12\n")

    @pytest.mark.parametrize("text,error", [
        ("# k r\n3 2\n101\n\n2111\n", "line 5: bad matrix row '2111'"),
        ("3 2\n10\n011\n", "line 2: bad matrix row '10'"),
        ("\n3 x\n101\n", "line 2: bad matrix header '3 x'"),
    ])
    def test_bad_line_named(self, text, error):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            parse_matrix(text)
