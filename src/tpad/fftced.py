"""Half-precision FFT with a Plancherel-identity concurrent checker.

The transform is radix-2 decimation-in-time with every intermediate sum and
product rounded to IEEE half precision (numpy float16, round-to-nearest-even),
emulating a 16-bit datapath bit for bit. The checker holds a programmed
reference pair (y, Y) with Y the transform of y, and compares

    sum_i x_i * conj(y_i)   against   (1/N) * sum_k X_k * conj(Y_k)

accumulating both sides in single precision. A healthy engine keeps the
residual within calibrated roundoff; sum-of-squares-preserving tampering
(e.g. output permutations) still moves the residual for a generic reference.
An attacker can zero the stored reference to silence the checker, which a
post-manufacture self-test with a deliberate non-transform pair exposes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .netlist import text_lines
from .rng import Rng, as_rng

HALF = np.float16
_CHECK = np.complex64  # checker accumulates one precision wider
_CALIBRATION_ROWS = 128  # transforms per batched calibration call
_HEX_WORD = re.compile(r"[0-9a-fA-F]{1,4}")


class FftError(ValueError):
    pass


class FftOverflowError(FftError):
    pass


class NonPairRequiredError(FftError):
    pass


def _require_power_of_two(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise FftError(f"length {n} is not a power of two")
    return n.bit_length() - 1


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _bit_reverse_permutation(n: int) -> np.ndarray:
    """Bit-reversal order of 0..n-1; cached per n, so the array is read-only."""
    bits = _require_power_of_two(n)
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return _read_only(rev)


@lru_cache(maxsize=None)
def _twiddles(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-stage twiddle factors (cos, [-sin, sin]), pre-rounded to half precision.

    The sine pair is shaped (2, 1, 1, half) to meet the (re, im) planes of a
    stage. Cached per n, so the arrays are read-only.
    """
    out = []
    size = 2
    while size <= n:
        ang = -2.0 * np.pi * np.arange(size // 2) / size
        wim = np.sin(ang).astype(HALF)
        wim = np.stack([-wim, wim]).reshape(2, 1, 1, size // 2)
        out.append((_read_only(np.cos(ang).astype(HALF)), _read_only(wim)))
        size *= 2
    return tuple(out)


@lru_cache(maxsize=16)  # a campaign uses a handful of shapes: 1, 2 and 128 rows, a last chunk
def _stage_plan(n: int, rows: int) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """Buffers and per-stage views for transforms of `rows` vectors of length n.

    Stage s reads one of two ping-pong (rows, n, 2) buffers and writes the
    other. Its (2, rows, n/2h, h) products hold rows*n words at every h, so
    two flat temporaries serve every stage. A planned flip lands in the
    second item, the buffers as flat uint16 words. Plans are shared, so
    transforms must not run in several threads at once.
    """
    bufs = np.empty((2, rows, n, 2), HALF)
    temps = np.empty((2, rows * n), HALF)
    stages = []
    for stage, (wre, wim) in enumerate(_twiddles(n)):
        half = 1 << stage
        planes = (rows, n // (2 * half), 2 * half, 2)
        v, out = (bufs[(stage + i) % 2].reshape(planes).transpose(3, 0, 1, 2) for i in (0, 1))
        t, t2 = temps.reshape(2, 2, rows, n // (2 * half), half)
        a, b = v[..., :half], v[..., half:]
        stages.append((a, b, b[::-1], wre, wim, t, t2, out[..., :half], out[..., half:]))
    return bufs, bufs.view(np.uint16).reshape(2, -1), stages


def _fft_stages(pairs: np.ndarray, flip: Optional[tuple[int, int, int]] = None) -> np.ndarray:
    """Staged FFT of (..., N, 2) float16 (re, im) pairs; returns fresh pairs.

    A stage is the same five calls on (2, rows, N) re and im planes, so a
    single vector is a batch of one. A planned flip (stage, word, mask)
    XORs mask into word `word` of the flattened (..., N, 2) output of that
    stage (counted from 0); fault-injection campaigns use it. With N = 1
    there is no stage, and the words come back unchanged, the identity DFT.
    """
    shape = pairs.shape
    n = shape[-2]
    bufs, words, stages = _stage_plan(n, pairs.size // (2 * n))
    flip_stage, flip_word, flip_mask = flip or (-1, 0, 0)
    # the order is in range: clip only skips raise mode's buffered copy
    np.take(pairs.reshape(-1, n, 2), _bit_reverse_permutation(n), axis=1, out=bufs[0],
            mode="clip")
    # injected faults can push lanes to inf/nan; that is data, not an error
    with np.errstate(invalid="ignore", over="ignore"):
        for stage, (a, b, b_swapped, wre, wim, t, t2, out_a, out_b) in enumerate(stages):
            # complex multiply and butterfly, each operation rounded to half;
            # negation is exact, so t_re = b_re*wre + b_im*(-wim) rounds as a difference
            np.multiply(b, wre, out=t)
            np.multiply(b_swapped, wim, out=t2)
            t += t2
            np.add(a, t, out=out_a)
            np.subtract(a, t, out=out_b)
            if stage == flip_stage:
                words[(stage + 1) % 2, flip_word] ^= flip_mask
    return bufs[len(stages) % 2].reshape(shape).copy()


def _require_finite(words: np.ndarray) -> None:
    if not np.isfinite(words).all():
        raise FftOverflowError("half-precision overflow during transform")


def _is_pairs(a: np.ndarray) -> bool:
    """A real array of (re, im) rows along its last axis.

    Complex arrays are values, and so is a 1-D real array: N values, never
    one pair, even when N = 2.
    """
    return a.ndim >= 2 and a.shape[-1] == 2 and a.dtype.kind != "c"


def fft(x: np.ndarray) -> np.ndarray:
    """Half-precision FFT; raises on overflow to infinity.

    Accepts (re, im) pairs of shape (..., N, 2) or complex-like values of
    shape (..., N) (a vector is always N values, even a real one of length
    2); returns (..., N, 2) float16 pairs, the exact datapath words.
    """
    x = np.asarray(x)
    if _is_pairs(x):
        x = x.astype(HALF, copy=False)
    else:
        x = np.stack([x.real, np.imag(x)], axis=-1).astype(HALF)
    _require_power_of_two(x.shape[-2])
    out = _fft_stages(x)
    _require_finite(out)
    return out


def to_complex(hc: np.ndarray) -> np.ndarray:
    hc = np.asarray(hc)
    if _is_pairs(hc):
        with np.errstate(invalid="ignore"):
            return hc[..., 0].astype(np.float64) + 1j * hc[..., 1].astype(np.float64)
    return hc.astype(np.complex128)


def from_complex(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    return np.ascontiguousarray(z).view(np.float64).reshape(z.shape + (2,)).astype(HALF)


# -- reference pairs -----------------------------------------------------------------


def _as_check(a: np.ndarray) -> np.ndarray:
    """(..., N, 2) pairs or (..., N) values as the checker's complex64 words.

    Every half value is exact in float32, so pairs are read by a view.
    """
    a = np.asarray(a)
    if _is_pairs(a):
        return np.ascontiguousarray(a, dtype=np.float32).view(_CHECK)[..., 0]
    return a.astype(_CHECK)


@dataclass(frozen=True)
class PlancherelReference:
    """Programmed (y, Y) pair; Y is the rounded exact transform of y.

    Frozen, so the conjugates cached for the checker always belong to it.
    """

    y: np.ndarray  # (N, 2) float16
    Y: np.ndarray  # (N, 2) float16

    def __post_init__(self):
        n = self.y.shape[0]
        if self.Y.shape[0] != n:
            raise FftError("reference lengths differ")
        if (to_complex(self.y) == 0).any() or (to_complex(self.Y) == 0).any():
            raise FftError("reference entries must all be nonzero")
        self._cache_conjugates()

    def _cache_conjugates(self) -> None:
        object.__setattr__(self, "_conj_y", _read_only(np.conj(_as_check(self.y))))
        object.__setattr__(self, "_conj_Y", _read_only(np.conj(_as_check(self.Y))))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @classmethod
    def unchecked(cls, y: np.ndarray, Y: np.ndarray) -> "PlancherelReference":
        """Skip the nonzero-entry validation (degenerate test fixtures)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "y", y)
        object.__setattr__(obj, "Y", Y)
        obj._cache_conjugates()
        return obj


def make_reference(n: int, rng_seed: Rng = None) -> PlancherelReference:
    """Seeded white-noise reference with small norm and no zero entries.

    Real and imaginary parts are normal with standard deviation 0.25.
    """
    _require_power_of_two(n)
    rng = as_rng(rng_seed)
    npr = np.random.default_rng(rng.getrandbits(64))
    while True:
        y = (npr.standard_normal(n) + 1j * npr.standard_normal(n)) * 0.25
        y16 = from_complex(y)
        bigY = np.fft.fft(to_complex(y16))
        Y16 = from_complex(bigY)
        if (to_complex(y16) != 0).all() and (to_complex(Y16) != 0).all():
            return PlancherelReference(y16, Y16)


def format_reference(ref: PlancherelReference) -> str:
    """Bit-exact hex dump: N, then per line y_re y_im Y_re Y_im."""
    words = np.stack(
        [ref.y[:, 0], ref.y[:, 1], ref.Y[:, 0], ref.Y[:, 1]], axis=-1
    ).view(np.uint16)
    lines = [str(ref.n)]
    for row in words:
        lines.append(" ".join(f"{w:04x}" for w in row))
    return "\n".join(lines) + "\n"


def parse_reference(text: str) -> PlancherelReference:
    """format_reference's text; a malformed N or row raises FftError naming its line."""
    lines = text_lines(text) or [(1, "")]
    lineno, head = lines[0]
    n = int(head) if head.isdecimal() else 0
    if n < 1:
        raise FftError(f"line {lineno}: expected a length N >= 1, got {head!r}")
    if len(lines) != n + 1:
        raise FftError(f"expected {n} reference rows, found {len(lines) - 1}")
    words = []
    for lineno, ln in lines[1:]:
        row = ln.split()
        if len(row) != 4 or not all(_HEX_WORD.fullmatch(w) for w in row):
            raise FftError(f"line {lineno}: expected four 16-bit hex words, got {ln!r}")
        words.append([int(w, 16) for w in row])
    rows = np.array(words, dtype=np.uint16).view(HALF)
    y = np.stack([rows[:, 0], rows[:, 1]], axis=-1)
    bigY = np.stack([rows[:, 2], rows[:, 3]], axis=-1)
    return PlancherelReference(y, bigY)


# -- the checker ---------------------------------------------------------------------


@dataclass(frozen=True)
class CheckVerdict:
    residual: float
    threshold: float
    attack: bool


def _residuals(xc: np.ndarray, oc: np.ndarray, ref: PlancherelReference) -> np.ndarray:
    """Row residuals of (..., N) complex64 inputs and outputs; inf where not finite.

    The magnitude is np.hypot of the double-precision difference, the value
    Python's abs(complex) gives (np.abs can differ in the last bit).
    """
    if not xc.shape[-1] == oc.shape[-1] == ref.n:
        raise FftError("length mismatch")
    with np.errstate(invalid="ignore", over="ignore"):
        lhs = np.add.reduce(xc * ref._conj_y, axis=-1, dtype=_CHECK)  # np.sum's call, less its glue
        rhs = np.add.reduce(oc * ref._conj_Y, axis=-1, dtype=_CHECK) / _CHECK(ref.n)
        diff = lhs.astype(np.complex128) - rhs
        return np.fmin(np.hypot(diff.real, diff.imag), np.inf)  # fmin reads NaN as inf


def plancherel_residual(x: np.ndarray, x_observed: np.ndarray,
                        ref: PlancherelReference) -> float:
    """|<x, y*> - (1/N) <X_observed, Y*>| accumulated in single precision."""
    xc, oc = _as_check(x), _as_check(x_observed)
    if xc.ndim != 1 or oc.ndim != 1:
        raise FftError("length mismatch")
    return float(_residuals(xc, oc, ref))


def plancherel_check(x: np.ndarray, x_observed: np.ndarray, ref: PlancherelReference,
                     threshold: float) -> CheckVerdict:
    if threshold < 0:
        raise FftError("threshold must be nonnegative")
    resid = plancherel_residual(x, x_observed, ref)
    return CheckVerdict(resid, threshold, resid > threshold)


def white_noise_input(n: int, npr: np.random.Generator) -> np.ndarray:
    """Unit-scale complex white noise, the calibration input distribution."""
    z = (npr.standard_normal(n) + 1j * npr.standard_normal(n)) / np.sqrt(2)
    return from_complex(z)


def calibrate_threshold(
    n: int,
    trials: int,
    margin: float,
    rng_seed: Rng = None,
    ref: Optional[PlancherelReference] = None,
) -> tuple[float, PlancherelReference]:
    """Threshold = margin times the worst attack-free residual observed.

    Runs `trials` clean transforms on unit complex white noise (the
    calibration distribution) against the reference pair and returns
    (threshold, reference); a transform that overflows raises.
    """
    if trials < 100:
        raise FftError("calibration needs at least 100 trials")
    if not 1 <= margin < np.inf:  # refuses NaN too
        raise FftError(f"margin must be a finite number >= 1, got {margin}")
    if ref is not None and ref.n != n:
        raise FftError(f"ref: reference length {ref.n} differs from n = {n}")
    rng = as_rng(rng_seed)
    ref_bits = rng.getrandbits(64)  # consumed either way, keeping the input
    if ref is None:                 # stream identical for a supplied reference
        ref = make_reference(n, ref_bits)
    npr = np.random.default_rng(rng.getrandbits(64))
    worst = 0.0
    for start in range(0, trials, _CALIBRATION_ROWS):
        xs = np.stack([white_noise_input(n, npr)
                       for _ in range(min(_CALIBRATION_ROWS, trials - start))])
        worst = max(worst, float(_residuals(_as_check(xs), _as_check(fft(xs)), ref).max()))
    return margin * worst, ref


# -- the engine and its self test ------------------------------------------------------


class FftCedEngine:
    """FFT datapath plus checker with a programmable reference slot.

    zeroed=True models the reference-zeroing decoupling attack: the stored
    y* and Y* words are pulled to ground, silencing the checker.
    """

    def __init__(self, n: int, ref: PlancherelReference, threshold: float):
        _require_power_of_two(n)
        if ref.n != n:
            raise FftError("reference length mismatch")
        if threshold < 0:
            raise FftError("threshold must be nonnegative")
        self.n = n
        self.ref = ref
        self.threshold = threshold
        self.zeroed = False
        zero = _read_only(np.zeros((n, 2), dtype=HALF))
        self._zero_ref = PlancherelReference.unchecked(zero, zero)

    def run(self, x: np.ndarray) -> tuple[np.ndarray, CheckVerdict]:
        bigx = fft(x)
        return bigx, plancherel_check(x, bigx, self._zero_ref if self.zeroed else self.ref,
                                      self.threshold)

    def program_reference(self, ref: PlancherelReference) -> None:
        if ref.n != self.n:
            raise FftError("reference length mismatch")
        self.ref = ref


CHECKER_ALIVE = "checker alive"
CHECKER_COMPROMISED = "checker compromised"


def reference_selftest(engine: FftCedEngine, non_pair: tuple[np.ndarray, np.ndarray],
                       rng_seed: Rng = None) -> str:
    """Program a deliberate non-transform pair and demand an attack report.

    A healthy checker must flag the run (the identity cannot hold for a
    non-pair); a zeroed or bypassed checker stays silent and is reported
    as compromised. Supplying an actual transform pair is an error, since
    it cannot distinguish the two.
    """
    y, bigy = (np.asarray(non_pair[0]), np.asarray(non_pair[1]))
    y16 = y if y.ndim == 2 else from_complex(y)
    bigy16 = bigy if bigy.ndim == 2 else from_complex(bigy)
    true_ft = np.fft.fft(to_complex(y16))
    scale = float(np.max(np.abs(true_ft))) or 1.0
    if np.max(np.abs(true_ft - to_complex(bigy16))) <= 0.01 * scale:
        raise NonPairRequiredError("selftest needs a pair that is not a transform pair")
    rng = as_rng(rng_seed)
    npr = np.random.default_rng(rng.getrandbits(64))
    saved = engine.ref
    try:
        engine.program_reference(PlancherelReference(y16, bigy16))
        x = white_noise_input(engine.n, npr)
        _, verdict = engine.run(x)
    finally:
        engine.ref = saved
    return CHECKER_ALIVE if verdict.attack else CHECKER_COMPROMISED


# -- attack campaign -------------------------------------------------------------------


@dataclass
class FftCampaignReport:
    trials: int
    detected: int
    false_positives: int

    @property
    def detection_rate(self) -> float:
        return self.detected / self.trials


def single_butterfly_flip(npr: np.random.Generator, n: int) -> tuple[int, int, int, int]:
    """Sample (stage, element, re/im word, bit) for one datapath fault.

    The bit is drawn from the high byte of the half word (sign, exponent,
    top mantissa bits): a logic fault there moves the value by at least a
    sizeable fraction of itself. Low-mantissa faults stay below any usable
    numerical-error threshold by construction and are out of scope.
    """
    stages = _require_power_of_two(n)
    return (
        int(npr.integers(stages)),
        int(npr.integers(n)),
        int(npr.integers(2)),
        int(npr.integers(8, 16)),
    )


def _nonidentity_permutation(npr: np.random.Generator, n: int) -> np.ndarray:
    """An output permutation of n >= 2 words, redrawn until it moves one."""
    fault = npr.permutation(n)
    while (fault == np.arange(n)).all():
        fault = npr.permutation(n)
    return fault


def _one_probe_permutations(n: int, trials: int, threshold: float, ref: PlancherelReference,
                            npr: np.random.Generator) -> tuple[int, int]:
    """(detected, false positives) over permutation trials of one probe each.

    No draw depends on a result, so each chunk of trials draws its
    permutations and inputs in the per-trial order, runs one transform call
    and checks its clean and permuted rows in one residual call.
    """
    detected = false_positives = 0
    for start in range(0, trials, _CALIBRATION_ROWS):
        rows = min(_CALIBRATION_ROWS, trials - start)
        faults = np.empty((rows, n), np.int64)
        xs = np.empty((rows, n, 2), HALF)
        for i in range(rows):
            faults[i] = _nonidentity_permutation(npr, n)
            xs[i] = white_noise_input(n, npr)
        outs = _as_check(fft(xs))
        outs = np.stack([outs, np.take_along_axis(outs, faults, axis=1)])
        clean_hits, hits = _residuals(_as_check(xs), outs, ref) > threshold
        detected += int(hits.sum())
        false_positives += int(clean_hits.sum())
    return detected, false_positives


def check_campaign_trials(n: int, trials: int) -> None:
    """Refuse a campaign that cannot plant a fault (n < 2) or has no trials to rate."""
    if n < 2:
        raise FftError(f"n: a campaign needs n >= 2 to plant a fault, got {n}")
    if trials < 1:
        raise FftError(f"trials: must be >= 1, got {trials}")


def fft_attack_campaign(
    n: int,
    trials: int,
    threshold: float,
    ref: PlancherelReference,
    rng_seed: Rng = None,
    attack: str = "butterfly_flip",
    probes_per_trial: int = 24,
) -> FftCampaignReport:
    """Detection rate for persistent datapath faults under concurrent checking.

    Per trial one fault is planted (a flipped storage bit at one butterfly
    output, or an output permutation), the engine runs `probes_per_trial`
    Plancherel-checked transforms on calibration-distribution inputs, and
    detection means any probe exceeded the threshold. A paired fault-free
    run of the same probes must stay silent; violations count as false
    positives.

    One-probe permutation trials run in chunks. Flip trials run one
    two-row (clean, faulted) transform per probe: most end after one
    probe, but batching them would mean speculating on which, and the
    discarded rows cost more than the calls saved.
    """
    if attack not in ("butterfly_flip", "permutation"):
        raise FftError(f"attack: unknown attack {attack!r}")
    check_campaign_trials(n, trials)
    if probes_per_trial < 1:
        raise FftError(f"probes_per_trial: must be >= 1, got {probes_per_trial}")
    if ref.n != n:
        raise FftError(f"ref: reference length {ref.n} differs from n = {n}")
    rng = as_rng(rng_seed)
    npr = np.random.default_rng(rng.getrandbits(64))
    if attack == "permutation" and probes_per_trial == 1:
        return FftCampaignReport(trials, *_one_probe_permutations(n, trials, threshold, ref, npr))
    detected = false_positives = 0
    for _ in range(trials):
        if attack == "butterfly_flip":
            stage, elem, word, bit = single_butterfly_flip(npr, n)
            flip = (stage, 2 * (n + elem) + word, 1 << bit)  # row 0 runs clean, row 1 faulted
        else:  # clean output, permuted output
            rows = np.stack([np.arange(n), _nonidentity_permutation(npr, n)])
        hit = clean_hit = False
        for _ in range(probes_per_trial):
            x = white_noise_input(n, npr)
            if attack == "butterfly_flip":
                out = _fft_stages(np.stack([x, x]), flip)
                _require_finite(out[0])  # the faulted row may hold inf/nan as data
                outs = _as_check(out)
            else:
                outs = _as_check(fft(x))[rows]
            clean_resid, resid = _residuals(_as_check(x), outs, ref)
            hit |= bool(resid > threshold)
            clean_hit |= bool(clean_resid > threshold)
            if hit and not clean_hit:
                break
        detected += hit
        false_positives += clean_hit
    return FftCampaignReport(trials, detected, false_positives)
