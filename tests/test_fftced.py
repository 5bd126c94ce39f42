import hashlib
import itertools
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpad import fftced
from tpad.fftced import (
    CHECKER_ALIVE,
    CHECKER_COMPROMISED,
    FftCampaignReport,
    FftCedEngine,
    FftError,
    FftOverflowError,
    NonPairRequiredError,
    PlancherelReference,
    calibrate_threshold,
    fft,
    fft_attack_campaign,
    format_reference,
    from_complex,
    make_reference,
    parse_reference,
    plancherel_check,
    plancherel_residual,
    reference_selftest,
    single_butterfly_flip,
    to_complex,
    white_noise_input,
)
from tpad.rng import as_rng


# -- the oracle: transforms, residuals and noise as they ran before probes had plans --


def _oracle_stages(pairs, flip=None):
    """Staged FFT of (..., N, 2) float16 pairs on fresh buffers. A flip (stage, word,
    mask) XORs mask into word `word` of the flattened (..., N, 2) output of that stage."""
    shape, n = pairs.shape, pairs.shape[-2]
    rows = pairs.size // (2 * n)
    bufs = np.empty((2, rows, n, 2), np.float16)
    words = bufs.view(np.uint16).reshape(2, -1)
    temps = np.empty((2, rows * n), np.float16)
    flip_stage, flip_word, flip_mask = flip or (-1, 0, 0)
    np.take(pairs.reshape(-1, n, 2), fftced._bit_reverse_permutation(n), axis=1, out=bufs[0])
    twiddles = fftced._twiddles(n)
    with np.errstate(invalid="ignore", over="ignore"):
        for stage, (wre, wim) in enumerate(twiddles):
            half = 1 << stage
            planes = (rows, n // (2 * half), 2 * half, 2)
            v, out = (bufs[(stage + i) % 2].reshape(planes).transpose(3, 0, 1, 2) for i in (0, 1))
            t, t2 = temps.reshape(2, 2, rows, n // (2 * half), half)
            a, b = v[..., :half], v[..., half:]
            np.multiply(b, wre, out=t)
            np.multiply(b[::-1], wim, out=t2)
            t += t2
            np.add(a, t, out=out[..., :half])
            np.subtract(a, t, out=out[..., half:])
            if stage == flip_stage:
                words[(stage + 1) % 2, flip_word] ^= flip_mask
    return bufs[len(twiddles) % 2].reshape(shape).copy()


def _oracle_check(a):
    """(..., N, 2) pairs or (..., N) values as the checker's complex64 words."""
    a = np.asarray(a)
    if fftced._is_pairs(a):
        return np.ascontiguousarray(a, dtype=np.float32).view(np.complex64)[..., 0]
    return a.astype(np.complex64)


def _oracle_residuals(xc, oc, ref):
    """Row residuals of complex64 inputs and outputs; inf where not finite."""
    conj_y, conj_bigy = np.conj(_oracle_check(ref.y)), np.conj(_oracle_check(ref.Y))
    with np.errstate(invalid="ignore", over="ignore"):
        lhs = np.add.reduce(xc * conj_y, axis=-1, dtype=np.complex64)
        rhs = np.add.reduce(oc * conj_bigy, axis=-1, dtype=np.complex64) / np.complex64(ref.n)
        diff = lhs.astype(np.complex128) - rhs
        return np.fmin(np.hypot(diff.real, diff.imag), np.inf)


def _oracle_noise(n, npr):
    """white_noise_input as two draws of n."""
    return from_complex((npr.standard_normal(n) + 1j * npr.standard_normal(n)) / np.sqrt(2))


def _same_words(a, b):
    return a.view(np.uint16).tobytes() == b.view(np.uint16).tobytes()


def _hexes(residuals):
    return [float(r).hex() for r in np.ravel(residuals)]


class TestFft:
    def test_delta_gives_all_ones_exactly(self):
        x = np.zeros((8, 2), dtype=np.float16)
        x[0, 0] = 1
        assert (to_complex(fft(x)) == 1.0).all()

    def test_dc_vector_n4(self):
        x = np.ones((4, 2), dtype=np.float16)
        x[:, 1] = 0
        assert list(to_complex(fft(x))) == [4.0, 0.0, 0.0, 0.0]

    def test_matches_double_oracle_within_half_roundoff(self):
        rng = np.random.default_rng(3)
        z = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
        x16 = from_complex(z)
        got = to_complex(fft(x16))
        ref = np.fft.fft(to_complex(x16))
        scale = max(np.abs(ref).max(), 1.0)
        assert np.abs(got - ref).max() <= 2**-8 * scale

    def test_deterministic_and_idempotent_rounding(self):
        rng = np.random.default_rng(5)
        x = white_noise_input(32, rng)
        a, b = fft(x), fft(x)
        assert (a.view(np.uint16) == b.view(np.uint16)).all()
        assert (x == x.astype(np.float16)).all()

    def test_length_one_is_the_identity(self):
        words = np.array([[0.5, -2.0], [-0.0, 2.0**-24], [65504, 3]], dtype=np.float16)
        assert fft(words[:1]).tobytes() == words[:1].tobytes()
        batch = words.reshape(3, 1, 2)
        assert fft(batch).tobytes() == batch.tobytes()
        assert list(to_complex(fft(np.array([3 + 1j])))) == [3 + 1j]

    def test_non_power_of_two_rejected(self):
        with pytest.raises(FftError):
            fft(np.zeros((6, 2), dtype=np.float16))

    def test_overflow_reported(self):
        x = np.full((16, 2), 30000, dtype=np.float16)
        with pytest.raises(FftOverflowError):
            fft(x)

    def test_complex_length_two_vector_is_two_values(self):
        z = np.array([1 + 2j, 3 + 4j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(to_complex(z)) == [1 + 2j, 3 + 4j]
        assert list(to_complex(from_complex(z))) == [1 + 2j, 3 + 4j]

    def test_real_length_two_vector_is_two_values(self):
        # a 1-D real array is N values for to_complex as for fft, never one pair
        x = np.array([1.0, 2.0])
        assert list(to_complex(x)) == [1, 2]
        assert list(to_complex(fft(x))) == [3, -1]
        y = from_complex(np.array([1 + 0j, 2 + 0j]))
        ref = PlancherelReference(y, from_complex(np.fft.fft(to_complex(y))))
        assert plancherel_residual(x, fft(x), ref) == plancherel_residual(
            from_complex(x), fft(x), ref)

    def test_complex_length_two_residual_matches_pairs(self):
        y = from_complex(np.array([1 + 0j, 2 + 0j]))
        ref = PlancherelReference(y, from_complex(np.fft.fft(to_complex(y))))
        z = np.array([0.5 - 1j, 2 + 0.25j])
        bigz = to_complex(fft(z))
        assert plancherel_residual(z, bigz, ref) == plancherel_residual(
            from_complex(z), from_complex(bigz), ref)


class TestBatches:
    """A batch runs the same stage and residual calls as its rows one by one."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.sampled_from([2.0**-8, 1.0, 2.0**5]),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_stages_batch_equals_single_calls(self, log_n, rows, scale, seed, flip):
        n = 1 << log_n
        npr = np.random.default_rng(seed)
        xs = np.stack([white_noise_input(n, npr) for _ in range(rows)]) * np.float16(scale)
        before = xs.tobytes()
        batch = fft(xs)
        assert batch.tobytes() == b"".join(fft(x).tobytes() for x in xs)
        assert _same_words(batch, _oracle_stages(xs))
        if flip:  # a fork's faulted row r is the one-row fork of row r
            stage, row, elem, word, bit = (int(npr.integers(log_n)), int(npr.integers(rows)),
                                           int(npr.integers(n)), int(npr.integers(2)),
                                           int(npr.integers(16)))
            forked = fftced._probe(xs, flip=(stage, 2 * ((rows + row) * n + elem) + word, 1 << bit))[0]
            assert _same_words(forked[0], batch)
            single = fftced._probe(xs[row], flip=(stage, 2 * (n + elem) + word, 1 << bit))[0]
            assert _same_words(forked[1, row], single[1])
            assert _same_words(np.delete(forked[1], row, axis=0), np.delete(batch, row, axis=0))
            if stage == log_n - 1:  # the flip is in the output
                assert forked[1, row, elem, word].view(np.uint16) == \
                    batch[row, elem, word].view(np.uint16) ^ (1 << bit)
        assert xs.tobytes() == before  # the flip lands in stage outputs only

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_batched_residuals_equal_single_residuals(self, log_n, rows, seed):
        n = 1 << log_n
        npr = np.random.default_rng(seed)
        ref = make_reference(n, rng_seed=seed)
        xs = np.stack([white_noise_input(n, npr) for _ in range(rows)])
        outs = fft(xs)
        outs[0] = outs[0, npr.permutation(n)]  # a tampered row
        if rows > 1:
            outs[-1, 0, 0] = np.inf  # a faulted row
        single = [plancherel_residual(x, o, ref) for x, o in zip(xs, outs)]
        words = np.stack([xs, outs]).astype(np.float32)
        with np.errstate(invalid="ignore", over="ignore"):
            assert _hexes(fftced._residuals(words, ref)) == [r.hex() for r in single]
        assert _hexes(_oracle_residuals(_oracle_check(xs), _oracle_check(outs), ref)) == \
            [r.hex() for r in single]

    def test_fft_of_a_batch_equals_fft_of_each_row(self):
        xs = np.stack([white_noise_input(64, np.random.default_rng(i)) for i in range(5)])
        assert fft(xs).tobytes() == b"".join(fft(x).tobytes() for x in xs)


class TestTables:
    """Twiddles and the bit-reversal order are computed once per N."""

    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_cached_tables_are_read_only(self, n):
        tables = [fftced._bit_reverse_permutation(n)]
        tables += [a for pair in fftced._twiddles(n) for a in pair]
        assert fftced._twiddles(n) is fftced._twiddles(n)
        for a in tables:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @pytest.mark.parametrize("n", [4, 64, 128])
    def test_output_bit_identical_to_fresh_tables(self, n, monkeypatch):
        x = white_noise_input(n, np.random.default_rng(n))
        cached = fft(x)
        fft(x)  # a second call reads the cache
        monkeypatch.setattr(fftced, "_twiddles", fftced._twiddles.__wrapped__)
        monkeypatch.setattr(fftced, "_bit_reverse_permutation",
                            fftced._bit_reverse_permutation.__wrapped__)
        monkeypatch.setattr(fftced, "_stage_plan", fftced._stage_plan.__wrapped__)  # plan again
        assert fft(x).tobytes() == cached.tobytes()


class TestStagePlans:
    """Transforms of one shape share cached buffers, never their results."""

    def test_calls_of_one_shape_return_independent_arrays(self):
        xs = np.stack([white_noise_input(128, np.random.default_rng(i)) for i in range(2)])
        first = fft(xs)
        second = fft(xs)
        words = second.tobytes()
        first[...] = 0
        assert second.tobytes() == words == fft(xs).tobytes()
        assert not np.shares_memory(first, second)
        ref = make_reference(128, rng_seed=1)
        bigx, _ = FftCedEngine(128, ref, 0.01).run(xs[0])
        assert not np.shares_memory(bigx, fftced._stage_plan(128, 1).bufs)

    def test_plan_cache_is_bounded(self):
        fftced._stage_plan.cache_clear()
        bound = fftced._stage_plan.cache_info().maxsize
        for rows in range(1, bound + 9):
            fft(np.zeros((rows, 8, 2), dtype=np.float16))
            assert fftced._stage_plan.cache_info().currsize == min(rows, bound)
        for rows in range(9, bound + 9):  # the latest shapes are still planned
            fft(np.zeros((rows, 8, 2), dtype=np.float16))
        assert fftced._stage_plan.cache_info().misses == bound + 8


class TestPlannedProbe:
    """One checked transform per probe, on its plan, against the unplanned oracle."""

    @pytest.mark.parametrize("kind", ["plain", "zeroed", "complex"])
    def test_engine_run_matches_oracle(self, kind):
        n = 64
        ref = make_reference(n, rng_seed=3)
        engine = FftCedEngine(n, ref, 0.01)
        engine.zeroed = kind == "zeroed"
        slot = engine._zero_ref if engine.zeroed else ref
        npr = np.random.default_rng(4)
        for scale in (2.0**-6, 1.0, 2.0**4, 2.0**9):
            if kind == "complex":  # values the datapath rounds to half, the checker to complex64
                x = (npr.standard_normal(n) + 1j * npr.standard_normal(n)) * scale
                pairs = np.stack([x.real, x.imag], axis=-1).astype(np.float16)
            else:
                x = pairs = _oracle_noise(n, npr) * np.float16(scale)
            want_words = _oracle_stages(pairs)
            if not np.isfinite(want_words).all():
                with pytest.raises(FftOverflowError):
                    engine.run(x)
                continue
            words, verdict = engine.run(x)
            want = _oracle_residuals(_oracle_check(x), _oracle_check(want_words), slot)
            assert _same_words(words, want_words)
            assert verdict.residual.hex() == float(want).hex()
            assert verdict.attack == (float(want) > 0.01)

    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_flip_probes_match_oracle(self, n):
        ref = make_reference(n, rng_seed=n)
        npr = np.random.default_rng(n)
        x = _oracle_noise(n, npr)
        faulted_nonfinite = 0
        for stage in range(n.bit_length() - 1):
            for word, bit in itertools.product((0, 1), range(16)):
                for elem in range(n) if n <= 16 else [int(npr.integers(n))]:
                    flip = (stage, 2 * (n + elem) + word, 1 << bit)
                    words, resid = fftced._probe(x, ref, flip)
                    want_words = _oracle_stages(np.stack([x, x]), flip)  # both rows from stage 0
                    want = _oracle_residuals(_oracle_check(x), _oracle_check(want_words), ref)
                    assert _same_words(words, want_words)
                    assert _hexes(resid) == _hexes(want)
                    if not np.isfinite(want_words[1]).all():
                        faulted_nonfinite += 1
                        assert resid[1, 0] == np.inf
        assert faulted_nonfinite  # flips of the top exponent bit reach inf or nan

    @pytest.mark.parametrize("n", [2, 16, 128])
    @pytest.mark.parametrize("attack, probes", [("butterfly_flip", 24), ("butterfly_flip", 2),
                                                ("permutation", 3), ("permutation", 1)])
    def test_campaigns_match_oracle(self, n, attack, probes):
        threshold, ref = _calibrated(n)
        for seed, scale in ((1, 1.0), (2, 64.0), (3, 0.25)):
            args = (n, 40, threshold * scale, ref, seed)
            assert fft_attack_campaign(*args, attack=attack, probes_per_trial=probes) \
                == _campaign_oracle(*args, attack, probes)

    @pytest.mark.parametrize("log_n", range(1, 8))
    def test_signed_zero_inputs_match_oracle(self, log_n):
        n = 1 << log_n
        ref = make_reference(n, rng_seed=log_n)
        npr = np.random.default_rng(log_n)
        xs = np.zeros((4, n, 2), np.float16)
        xs[1] = -0.0
        xs[2] = np.where(npr.integers(2, size=(n, 2)), np.float16(-0.0), np.float16(0.0))
        xs[3] = _oracle_noise(n, npr)
        want_words = _oracle_stages(xs)
        words, resid = fftced._probe(xs, ref)
        assert _same_words(words, want_words)
        assert _hexes(resid) == _hexes(_oracle_residuals(_oracle_check(xs),
                                                         _oracle_check(want_words), ref))
        engine = FftCedEngine(n, ref, 0.0)
        for x, want in zip(xs, want_words):
            assert _same_words(engine.run(x)[0], want)
            assert _same_words(fft(x), want)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([2, 16, 128]), st.integers(1, 3),
                              st.sampled_from(["clean", "flip", "perm"]), st.integers(0, 6)),
                    min_size=2, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_probe_after_other_shapes_matches_oracle(self, specs, seed):
        # each probe follows probes of other shapes, fault kinds and flip stages
        npr = np.random.default_rng(seed)
        for n, rows, fault, stage in specs:
            ref = make_reference(n, rng_seed=n)
            xs = np.stack([_oracle_noise(n, npr) for _ in range(rows)])
            clean = _oracle_stages(xs)
            if fault == "clean":
                words, resid = fftced._probe(xs, ref)
                want_words = clean
            elif fault == "flip":
                word = 2 * ((rows + int(npr.integers(rows))) * n + int(npr.integers(n)))
                flip = (stage % (n.bit_length() - 1), word + int(npr.integers(2)),
                        1 << int(npr.integers(16)))
                words, resid = fftced._probe(xs, ref, flip)
                want_words = _oracle_stages(np.stack([xs, xs]), flip)
            else:
                perms = np.stack([npr.permutation(n) for _ in range(rows)])
                words, resid = fftced._probe(xs, ref, perms=perms)
                want_words = np.stack([clean, np.take_along_axis(clean, perms[..., None], axis=1)])
            assert _same_words(words, want_words)
            want = _oracle_residuals(_oracle_check(xs), _oracle_check(want_words), ref)
            assert _hexes(resid) == _hexes(want)

    @pytest.mark.parametrize("n", [3, 6, 12, 16])
    def test_residual_of_any_length_matches_oracle(self, n):
        # plancherel_residual runs the probe's residual function on fresh buffers, for a
        # reference of any length (its 1/N is exact in float32 only for a power of two)
        npr = np.random.default_rng(n)
        ref = PlancherelReference(_oracle_noise(n, npr), _oracle_noise(n, npr))
        for _ in range(20):
            x, observed = _oracle_noise(n, npr), _oracle_noise(n, npr) * np.float16(8)
            want = _oracle_residuals(_oracle_check(x), _oracle_check(observed), ref)
            assert plancherel_residual(x, observed, ref).hex() == float(want).hex()
            assert plancherel_residual(to_complex(x), observed, ref).hex() == float(want).hex()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_batched_noise_draw_equals_row_by_row(log_n, rows, seed):
    n = 1 << log_n
    batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
    got = fftced._white_noise(batched, (rows, n))
    assert _same_words(got, np.stack([_oracle_noise(n, single) for _ in range(rows)]))
    assert batched.bit_generator.state == single.bit_generator.state
    assert _same_words(white_noise_input(n, batched), _oracle_noise(n, single))
    assert batched.bit_generator.state == single.bit_generator.state


class TestReference:
    def test_no_zero_entries(self):
        for seed in range(5):
            ref = make_reference(64, rng_seed=seed)
            assert (to_complex(ref.y) != 0).all()
            assert (to_complex(ref.Y) != 0).all()

    def test_file_round_trip_bit_exact(self):
        ref = make_reference(32, rng_seed=7)
        again = parse_reference(format_reference(ref))
        assert (ref.y.view(np.uint16) == again.y.view(np.uint16)).all()
        assert (ref.Y.view(np.uint16) == again.Y.view(np.uint16)).all()

    @pytest.mark.parametrize("lineno, text, where", [
        (0, "eight", "line 1: expected a length N"),
        (3, "0000 0000 0000 0000 0000", "line 4: expected four"),
        (5, "0000 0000 0000", "line 6: expected four"),
        (2, "0000 zz 0000 0000", "line 3: expected four"),
    ], ids=["N", "five-words", "three-words", "non-hex"])
    def test_malformed_file_names_line(self, lineno, text, where):
        lines = format_reference(make_reference(8, rng_seed=7)).splitlines()
        lines[lineno] = text
        with pytest.raises(FftError, match=f"^{where}"):
            parse_reference("\n".join(lines))

    def test_zero_entries_rejected(self):
        y = np.ones((4, 2), dtype=np.float16)
        bad = y.copy()
        bad[2] = 0
        with pytest.raises(FftError):
            PlancherelReference(y, bad)

    @pytest.mark.parametrize("word", [0x7E00, 0x7C00, 0xFC00], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["y", "Y"])
    def test_nonfinite_entries_rejected(self, field, word):
        ref = make_reference(8, rng_seed=7)
        pair = {"y": ref.y.copy(), "Y": ref.Y.copy()}
        pair[field].view(np.uint16)[3, 1] = word
        with pytest.raises(FftError, match=f"^{field}: reference entries must all be finite$"):
            PlancherelReference(pair["y"], pair["Y"])

    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("word", ["7e00", "7c00", "fc00", "7c01"])
    def test_nonfinite_file_word_names_line(self, column, word):
        lines = format_reference(make_reference(8, rng_seed=7)).splitlines()
        row = lines[4].split()
        row[column] = word
        lines[4] = " ".join(row)
        with pytest.raises(FftError, match=f"^line 5: reference words must be finite, got '{lines[4]}'$"):
            parse_reference("\n".join(lines))

    def test_unchecked_slot_keeps_zeros(self):
        zero = np.zeros((8, 2), np.float16)
        ref = PlancherelReference.unchecked(zero, zero)
        x = white_noise_input(8, np.random.default_rng(0))
        assert plancherel_residual(x, fft(x), ref) == 0.0


class TestChecker:
    def test_exact_delta_pair_has_zero_residual(self):
        """x = y = delta: both inner products are exactly 1, residual 0."""
        x = np.zeros((8, 2), dtype=np.float16)
        x[0, 0] = 1
        bigx = fft(x)
        ref = PlancherelReference.unchecked(x.copy(), fft(x))
        verdict = plancherel_check(x, bigx, ref, threshold=0.0)
        assert verdict.residual == 0.0 and not verdict.attack

    def test_permutation_detected_despite_preserved_energy(self):
        ref = make_reference(64, rng_seed=9)
        rng = np.random.default_rng(1)
        x = white_noise_input(64, rng)
        bigx = fft(x)
        perm = np.roll(np.arange(64), 5)
        tampered = bigx[perm, :]
        energy = np.abs(to_complex(bigx)) ** 2
        assert np.sum(energy) == pytest.approx(np.sum(np.abs(to_complex(tampered)) ** 2))
        resid_clean = plancherel_residual(x, bigx, ref)
        resid_bad = plancherel_residual(x, tampered, ref)
        assert resid_bad > 50 * max(resid_clean, 1e-6)

    @pytest.mark.parametrize("threshold", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_threshold_must_be_finite_and_nonnegative(self, threshold):
        ref = make_reference(16, rng_seed=0)
        x = white_noise_input(16, np.random.default_rng(0))
        for call in (lambda: FftCedEngine(16, ref, threshold),
                     lambda: plancherel_check(x, fft(x), ref, threshold),
                     lambda: fft_attack_campaign(16, 5, threshold, ref)):
            with pytest.raises(FftError, match=f"^threshold: must be a finite number >= 0, got {threshold}$"):
                call()
        assert FftCedEngine(16, ref, 0.0).threshold == 0.0

    def test_engine_refuses_a_batch(self):
        engine = FftCedEngine(16, make_reference(16, rng_seed=0), 0.01)
        x = white_noise_input(16, np.random.default_rng(0))
        with pytest.raises(FftError, match="^length mismatch$"):
            engine.run(np.stack([x, x]))
        with pytest.raises(FftError, match="^length mismatch$"):
            engine.run(white_noise_input(8, np.random.default_rng(0)))

    def test_reference_is_frozen(self):
        ref = make_reference(8, rng_seed=0)
        with pytest.raises(AttributeError):
            ref.y = ref.Y

    def test_zeroed_reference_silences_checker(self):
        ref = make_reference(32, rng_seed=2)
        engine = FftCedEngine(32, ref, threshold=0.01)
        engine.zeroed = True
        rng = np.random.default_rng(3)
        _, verdict = engine.run(white_noise_input(32, rng))
        assert verdict.residual == 0.0 and not verdict.attack

    def test_length_mismatch(self):
        ref = make_reference(16, rng_seed=0)
        with pytest.raises(FftError):
            plancherel_residual(np.zeros((8, 2), np.float16), np.zeros((8, 2), np.float16), ref)


class TestCalibration:
    def test_margin_one_returns_max_residual(self):
        t1, ref = calibrate_threshold(32, 200, 1.0, rng_seed=4)
        t2, _ = calibrate_threshold(32, 200, 2.0, rng_seed=4, ref=ref)
        assert t2 == pytest.approx(2 * t1)

    def test_calibrated_threshold_yields_no_false_positives(self):
        t, ref = calibrate_threshold(64, 500, 2.0, rng_seed=6)
        rng = np.random.default_rng(7)
        for _ in range(1500):
            x = white_noise_input(64, rng)
            assert plancherel_residual(x, fft(x), ref) <= t

    def test_minimum_trials_enforced(self):
        with pytest.raises(FftError):
            calibrate_threshold(16, 50, 2.0)

    @pytest.mark.parametrize("margin", [0.5, -1.0, float("nan"), float("inf")])
    def test_margin_must_be_finite_and_at_least_one(self, margin):
        with pytest.raises(FftError, match=f"^margin must be a finite number >= 1, got {margin}$"):
            calibrate_threshold(16, 100, margin)

    def test_reference_length_checked_before_any_draw(self):
        with pytest.raises(FftError, match="^ref:"):
            calibrate_threshold(32, 100, 2.0, ref=make_reference(16, rng_seed=0))


class TestSelftest:
    def test_healthy_engine_reports_alive(self):
        t, ref = calibrate_threshold(32, 200, 2.0, rng_seed=8)
        engine = FftCedEngine(32, ref, t)
        other = make_reference(32, rng_seed=99)
        non_pair = (other.y, np.roll(other.Y, 3, axis=0))
        assert reference_selftest(engine, non_pair, rng_seed=1) == CHECKER_ALIVE

    def test_zeroed_engine_reports_compromised(self):
        t, ref = calibrate_threshold(32, 200, 2.0, rng_seed=8)
        engine = FftCedEngine(32, ref, t)
        engine.zeroed = True
        other = make_reference(32, rng_seed=99)
        non_pair = (other.y, np.roll(other.Y, 3, axis=0))
        assert reference_selftest(engine, non_pair, rng_seed=1) == CHECKER_COMPROMISED

    def test_true_pair_rejected(self):
        t, ref = calibrate_threshold(32, 200, 2.0, rng_seed=8)
        engine = FftCedEngine(32, ref, t)
        good = make_reference(32, rng_seed=55)
        with pytest.raises(NonPairRequiredError):
            reference_selftest(engine, (good.y, good.Y), rng_seed=1)


class TestCampaign:
    def test_butterfly_flip_coverage(self):
        t, ref = calibrate_threshold(128, 500, 2.0, rng_seed=10)
        rep = fft_attack_campaign(128, 1500, t, ref, rng_seed=11)
        assert rep.false_positives == 0
        assert rep.detection_rate >= 0.99

    def test_permutation_coverage(self):
        t, ref = calibrate_threshold(128, 500, 2.0, rng_seed=12)
        rep = fft_attack_campaign(128, 600, t, ref, rng_seed=13,
                                  attack="permutation", probes_per_trial=1)
        assert rep.false_positives == 0
        assert rep.detection_rate >= 0.99

    @pytest.mark.parametrize("field, kwargs", [
        ("n", dict(n=1)),
        ("n", dict(n=1, attack="permutation")),  # its identity redraw would never end
        ("attack", dict(attack="bogus", trials=0)),
        ("probes_per_trial", dict(probes_per_trial=0)),
        ("trials", dict(trials=-3)),
        ("ref", dict(n=32, trials=2)),
        ("trials", dict(trials=0)),
        ("threshold", dict(threshold=float("nan"))),
    ])
    def test_arguments_checked_before_any_draw(self, field, kwargs):
        args = dict(n=16, trials=5, threshold=0.01, ref=make_reference(16, rng_seed=0))
        args.update(kwargs)
        with pytest.raises(FftError, match=f"^{field}:"):
            fft_attack_campaign(**args)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 16, 128]), st.sampled_from([1, 127, 128, 129, 300]),
           st.sampled_from([64.0, 0.25]), st.integers(0, 2**32 - 1))
    def test_one_probe_permutations_match_per_trial_loop(self, n, trials, scale, seed):
        # the scaled thresholds make both counts depend on every trial's draws
        threshold, ref = _calibrated(n)
        args = (n, trials, threshold * scale, ref, seed)
        assert fft_attack_campaign(*args, attack="permutation", probes_per_trial=1) \
            == _campaign_oracle(*args, "permutation", 1)

    def test_identity_preserving_tamper_evades(self):
        """Adding a vector orthogonal to Y* keeps the identity: undetected."""
        t, ref = calibrate_threshold(64, 300, 2.0, rng_seed=14)
        rng = np.random.default_rng(15)
        x = white_noise_input(64, rng)
        bigx = fft(x)
        bigy = to_complex(ref.Y)
        v = np.zeros(64, dtype=np.complex128)
        v[0] = np.conj(bigy[1])
        v[1] = -np.conj(bigy[0])
        tampered = from_complex(to_complex(bigx) + v)
        assert (to_complex(tampered) != to_complex(bigx)).any()
        resid = plancherel_residual(x, tampered, ref)
        assert resid <= max(4 * t, 0.2)  # stays near the noise floor


@lru_cache(maxsize=None)
def _calibrated(n):
    return calibrate_threshold(n, 200, 2.0, rng_seed=n)


def _campaign_oracle(n, trials, threshold, ref, rng_seed, attack, probes):
    """A campaign's per-trial loop as it ran before probes had plans or chunks: draw the
    fault, then per probe one input, both rows run from stage 0."""
    npr = np.random.default_rng(as_rng(rng_seed).getrandbits(64))
    detected = false_positives = 0
    for _ in range(trials):
        if attack == "butterfly_flip":
            stage, elem, word, bit = single_butterfly_flip(npr, n)
            flip = (stage, 2 * (n + elem) + word, 1 << bit)
        else:
            fault = npr.permutation(n)
            while (fault == np.arange(n)).all():
                fault = npr.permutation(n)
            rows = np.stack([np.arange(n), fault])  # clean output, permuted output
        hit = clean_hit = False
        for _ in range(probes):
            x = _oracle_noise(n, npr)
            if attack == "butterfly_flip":
                out = _oracle_stages(np.stack([x, x]), flip)
                assert np.isfinite(out[0]).all()
                outs = _oracle_check(out)
            else:
                out = _oracle_stages(x)
                assert np.isfinite(out).all()
                outs = _oracle_check(out)[rows]
            clean_resid, resid = _oracle_residuals(_oracle_check(x), outs, ref)
            hit |= bool(resid > threshold)
            clean_hit |= bool(clean_resid > threshold)
            if hit and not clean_hit:
                break
        detected += hit
        false_positives += clean_hit
    return FftCampaignReport(trials, detected, false_positives)


# -- goldens recorded with the unbatched, per-vector implementation -------------------


def _transforms_digest() -> str:
    """2,000 seeded N=128 transforms at three scales: words and residuals."""
    ref = make_reference(128, rng_seed=2024)
    npr = np.random.default_rng(2025)
    h = hashlib.sha256()
    for i in range(2000):
        x = white_noise_input(128, npr) * np.float16((2.0**-6, 1.0, 2.0**4)[i % 3])
        bigx = fft(x)
        h.update(bigx.view(np.uint16).tobytes())
        h.update(float(plancherel_residual(x, bigx, ref)).hex().encode())
    return h.hexdigest()


def _calibration_digest() -> str:
    h = hashlib.sha256()
    for n in (16, 128):
        threshold, ref = calibrate_threshold(n, 1000, 2.0, rng_seed=n + 1)
        h.update(float(threshold).hex().encode())
        h.update(format_reference(ref).encode())
    return h.hexdigest()


def _campaign_digest() -> str:
    """Flip and permutation reports; the raised and lowered thresholds make
    the detected and false-positive counts depend on every draw."""
    threshold, ref = calibrate_threshold(128, 1000, 2.0, rng_seed=129)
    runs = [("butterfly_flip", 1, 24), ("butterfly_flip", 4, 3),
            ("permutation", 64, 1), ("permutation", 0.25, 3)]
    reports = [
        fft_attack_campaign(128, 300, threshold * scale, ref, rng_seed=seed, attack=attack,
                            probes_per_trial=probes)
        for seed in (31, 32) for attack, scale, probes in runs
    ]
    return hashlib.sha256(repr(reports).encode()).hexdigest()


FFT_GOLDEN = {
    "transforms": "848f46c99ee3612cb08cad5abd1cc5bbfe74fcd883f3051a3589978253299e10",
    "calibration": "cc57c88b613537516c189b45dc80487e379fb96eac118e9822dc52bf96e3bf79",
    "campaigns": "35a1d4891facf46c551323787b128ac31e55288151f19d9b78ece4425b3056e2",
}


@pytest.mark.parametrize("name, digest", [
    ("transforms", _transforms_digest),
    ("calibration", _calibration_digest),
    ("campaigns", _campaign_digest),
], ids=lambda v: v if isinstance(v, str) else "")
def test_golden(name, digest):
    assert digest() == FFT_GOLDEN[name]
