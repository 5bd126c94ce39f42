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

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .netlist import text_lines
from .rng import Rng, as_rng

HALF = np.float16
_CHECK = np.complex64  # checker accumulates one precision wider
_CALIBRATION_ROWS = 32  # transforms per calibration probe; a plan keeps 28 bytes a value
_SQRT2 = math.sqrt(2)  # white noise's scale; np.sqrt is a ufunc call, too slow per draw
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


class _Plan:
    """Buffers and per-stage views for checked transforms of `rows` vectors of length n.

    Stage s reads one of two ping-pong (rows, n, 2) buffers and writes the
    other. Its (2, rows, n/2h, h) products hold rows*n words at every h, so
    two flat temporaries serve every stage; a flip lands in `words`, the
    buffers as flat uint16 words. `check` holds the checker's float32 input
    and output words. Plans are shared: transforms must not run in threads.
    """

    def __init__(self, n: int, rows: int):
        bufs = self.bufs = np.empty((2, rows, n, 2), HALF)
        self.words = bufs.view(np.uint16).reshape(2, -1)
        temps = np.empty((2, rows * n), HALF)
        self.stages = []
        for stage, (wre, wim) in enumerate(_twiddles(n)):
            half = 1 << stage
            planes = (rows, n // (2 * half), 2 * half, 2)
            v, out = (bufs[(stage + i) % 2].reshape(planes).transpose(3, 0, 1, 2) for i in (0, 1))
            t, t2 = temps.reshape(2, 2, rows, n // (2 * half), half)
            a, b = v[..., :half], v[..., half:]
            self.stages.append((a, b, b[::-1], wre, wim, t, t2, out[..., :half], out[..., half:]))
        self.out = bufs[len(self.stages) % 2]
        self.check = np.empty((2, rows, n, 2), np.float32)


# a campaign uses a handful of shapes: 1, 2 and 32 rows, a last chunk and their forks
_stage_plan = lru_cache(maxsize=16)(_Plan)


def _run_stages(stages: list[tuple]) -> None:
    for a, b, b_swapped, wre, wim, t, t2, out_a, out_b in stages:
        # complex multiply and butterfly, each operation rounded to half;
        # negation is exact, so t_re = b_re*wre + b_im*(-wim) rounds as a difference
        np.multiply(b, wre, out=t)
        np.multiply(b_swapped, wim, out=t2)
        t += t2
        np.add(a, t, out=out_a)
        np.subtract(a, t, out=out_b)


def _probe(x: np.ndarray, ref: Optional["PlancherelReference"] = None,
           flip: Optional[tuple[int, int, int]] = None,
           perms: Optional[np.ndarray] = None) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The one checked transform: x's output words and residuals, run on x's plan.

    x is as for fft. The words are the plan's buffer, shaped like x's pairs
    (copy them to keep them); the residuals (1, rows) are None without a
    reference. A fault forks the probe into the plan of twice the rows,
    clean rows then faulted copies, residuals (2, rows): a flip (stage,
    word, mask) XORs mask into word `word` of the flattened (2, rows, N, 2)
    output of that stage (from 0); perms (rows, N) permute the output rows.
    Only the clean rows must stay finite. N = 1 has no stage: the identity.
    """
    x = np.asarray(x)
    pairs = (x.astype(HALF, copy=False) if _is_pairs(x)
             else np.stack([x.real, np.imag(x)], axis=-1).astype(HALF))
    n = pairs.shape[-2]
    _require_power_of_two(n)
    if ref is not None and ref.n != n:
        raise FftError("length mismatch")
    rows = pairs.size // (2 * n)
    plan = clean = _stage_plan(n, rows)
    # the order is in range: clip only skips raise mode's buffered copy
    np.take(pairs.reshape(rows, n, 2), _bit_reverse_permutation(n), axis=1, out=plan.bufs[0],
            mode="clip")
    split = len(plan.stages) if flip is None else flip[0] + 1
    with np.errstate(invalid="ignore", over="ignore"):  # faulted words are data, not errors
        _run_stages(plan.stages[:split])
        if flip is not None or perms is not None:
            src, plan = plan.bufs[split % 2], _stage_plan(n, 2 * rows)
            forked = plan.bufs[split % 2].reshape(2, rows, n, 2)
            forked[:] = src
            if perms is None:
                plan.words[split % 2, flip[1]] ^= flip[2]
            else:
                forked[1] = np.take_along_axis(src, perms[..., None], axis=1)
            _run_stages(plan.stages[split:])
        if not np.isfinite(plan.out[:rows]).all():
            raise FftOverflowError("half-precision overflow during transform")
        out = plan.out.reshape(pairs.shape if plan is clean else (2,) + pairs.shape)
        if ref is None:
            return out, None
        _check_words(x, plan.check[0].reshape((-1,) + pairs.shape))  # a fork's rows share x
        plan.check[1] = plan.out
        return out, _residuals(plan.check, ref).reshape(-1, rows)


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
    return _probe(x)[0].copy()


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


def _check_words(a: np.ndarray, out: np.ndarray) -> None:
    """Write (..., N, 2) pairs or (..., N) values into out, the checker's float32 pairs.

    Every half value is exact in float32. Values are cast as complex64.
    """
    if _is_pairs(a):
        out[...] = a
    else:
        out.view(_CHECK)[..., 0] = a


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
        for name in ("y", "Y"):
            if not np.isfinite(getattr(self, name)).all():
                raise FftError(f"{name}: reference entries must all be finite")
        if (to_complex(self.y) == 0).any() or (to_complex(self.Y) == 0).any():
            raise FftError("reference entries must all be nonzero")
        self._cache_conjugates()

    def _cache_conjugates(self) -> None:
        words = np.empty((2, 1, self.n, 2), np.float32)  # y* and Y*, the checker's factors
        for a, out in zip((self.y, self.Y), words[:, 0]):
            _check_words(a, out)
        object.__setattr__(self, "_conj", _read_only(np.conj(words.view(_CHECK)[..., 0])))

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
    for (lineno, ln), row in zip(lines[1:], rows):
        if not np.isfinite(row).all():
            raise FftError(f"line {lineno}: reference words must be finite, got {ln!r}")
    y = np.stack([rows[:, 0], rows[:, 1]], axis=-1)
    bigY = np.stack([rows[:, 2], rows[:, 3]], axis=-1)
    return PlancherelReference(y, bigY)


# -- the checker ---------------------------------------------------------------------


@dataclass(frozen=True)
class CheckVerdict:
    residual: float
    threshold: float
    attack: bool


def _residuals(words: np.ndarray, ref: PlancherelReference) -> np.ndarray:
    """Row residuals of (2, ..., N, 2) float32 input and output words; inf where not finite.

    The complex64 products overwrite the words, and np.add.reduce is the
    call np.sum makes, less its glue; call it with overflow and invalid
    ignored. The magnitude is np.hypot of the double-precision difference,
    the value Python's abs(complex) gives (np.abs can differ in the last bit).
    """
    words = words.view(_CHECK)[..., 0]
    sums = np.add.reduce(np.multiply(words, ref._conj, out=words), axis=-1, dtype=_CHECK)
    diff = np.subtract(sums[0], sums[1] / ref.n, dtype=np.complex128)  # the /n in complex64
    return np.fmin(np.hypot(diff.real, diff.imag), np.inf)  # fmin reads NaN as inf


def plancherel_residual(x: np.ndarray, x_observed: np.ndarray,
                        ref: PlancherelReference) -> float:
    """|<x, y*> - (1/N) <X_observed, Y*>| accumulated in single precision."""
    words = np.empty((2, 1, ref.n, 2), np.float32)
    for a, out in zip((np.asarray(x), np.asarray(x_observed)), words[:, 0]):
        if (a.shape[:-1] if _is_pairs(a) else a.shape) != (ref.n,):
            raise FftError("length mismatch")
        _check_words(a, out)
    with np.errstate(invalid="ignore", over="ignore"):
        return float(_residuals(words, ref)[0])


def _check_threshold(threshold: float) -> None:
    if not 0 <= threshold < np.inf:  # refuses NaN too
        raise FftError(f"threshold: must be a finite number >= 0, got {threshold}")


def _verdict(residual: float, threshold: float) -> CheckVerdict:
    return CheckVerdict(residual, threshold, residual > threshold)


def plancherel_check(x: np.ndarray, x_observed: np.ndarray, ref: PlancherelReference,
                     threshold: float) -> CheckVerdict:
    _check_threshold(threshold)
    return _verdict(plancherel_residual(x, x_observed, ref), threshold)


def _white_noise(npr: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """white_noise_input's rows, shape[:-1] of them, in one draw: the Generator fills
    in C order, so the values and every later draw are those of the row-by-row calls."""
    z = npr.standard_normal(shape[:-1] + (2, shape[-1]))
    return from_complex((z[..., 0, :] + 1j * z[..., 1, :]) / _SQRT2)


def white_noise_input(n: int, npr: np.random.Generator) -> np.ndarray:
    """Unit-scale complex white noise, the calibration input distribution."""
    return _white_noise(npr, (n,))


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
        xs = _white_noise(npr, (min(_CALIBRATION_ROWS, trials - start), n))
        worst = max(worst, float(_probe(xs, ref)[1].max()))
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
        _check_threshold(threshold)
        self.n = n
        self.ref = ref
        self.threshold = threshold
        self.zeroed = False
        zero = _read_only(np.zeros((n, 2), dtype=HALF))
        self._zero_ref = PlancherelReference.unchecked(zero, zero)

    def run(self, x: np.ndarray) -> tuple[np.ndarray, CheckVerdict]:
        bigx, resid = _probe(x, self._zero_ref if self.zeroed else self.ref)
        if bigx.ndim != 2:
            raise FftError("length mismatch")
        return bigx.copy(), _verdict(resid.item(), self.threshold)

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
    permutations and inputs in the per-trial order and runs as one probe.
    """
    detected = false_positives = 0
    for start in range(0, trials, _CALIBRATION_ROWS):
        rows = min(_CALIBRATION_ROWS, trials - start)
        faults = np.empty((rows, n), np.int64)
        xs = np.empty((rows, n, 2), HALF)
        for i in range(rows):
            faults[i] = _nonidentity_permutation(npr, n)
            xs[i] = white_noise_input(n, npr)
        clean_hits, hits = _probe(xs, ref, perms=faults)[1] > threshold
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

    One-probe permutation trials run in chunks. A flip probe forks at the
    flipped stage into (clean, faulted) rows: most trials end after one
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
    _check_threshold(threshold)
    rng = as_rng(rng_seed)
    npr = np.random.default_rng(rng.getrandbits(64))
    if attack == "permutation" and probes_per_trial == 1:
        return FftCampaignReport(trials, *_one_probe_permutations(n, trials, threshold, ref, npr))
    detected = false_positives = 0
    for _ in range(trials):
        flip = perms = None
        if attack == "butterfly_flip":
            stage, elem, word, bit = single_butterfly_flip(npr, n)
            flip = (stage, 2 * (n + elem) + word, 1 << bit)  # row 0 runs clean, row 1 faulted
        else:
            perms = _nonidentity_permutation(npr, n)[None]
        hit = clean_hit = False
        for _ in range(probes_per_trial):
            clean_resid, resid = _probe(white_noise_input(n, npr), ref, flip, perms)[1][:, 0]
            hit |= bool(resid > threshold)
            clean_hit |= bool(clean_resid > threshold)
            if hit and not clean_hit:
                break
        detected += hit
        false_positives += clean_hit
    return FftCampaignReport(trials, detected, false_positives)
