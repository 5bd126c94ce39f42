"""Experiment sweeps driven by a key = value spec file, emitting CSV.

Spec grammar (one `key = value` per line, `#` comments):

    kind = parity_detection      # or single_bit, destructive, cp_attack,
                                 #    per_sb_attack
    sweep = r                    # exactly one swept variable
    r = 3:8                      # inclusive integer range, or a comma list
    k = 100
    w = 50
    trials = 30000
    seed = 7

All randomness funnels through the one seed; identical spec text yields a
byte-identical CSV. Monte Carlo rows carry a normal-approximation 95%
confidence half width, closed-form rows do not.
"""

from __future__ import annotations

import math
from typing import Union

from .attacks import (
    cp_attack_probability,
    destructive_detection_probability,
    per_sb_attack_probability,
    simulate_destructive_sampling,
)
from .parity import estimate_detection_probability

SCHEMA = "tpad.sweep/1"


class SweepSpecError(ValueError):
    pass


def parse_experiment_spec(text: str) -> dict[str, str]:
    spec: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SweepSpecError(f"line {lineno}: expected key = value")
        key, val = (p.strip() for p in line.split("=", 1))
        if key in spec:
            raise SweepSpecError(f"line {lineno}: repeated key {key!r}")
        spec[key] = val
    if "kind" not in spec:
        raise SweepSpecError("spec needs a kind")
    if "sweep" not in spec:
        raise SweepSpecError("spec needs a sweep variable")
    return spec


def _values(raw: str) -> list[Union[int, float]]:
    def num(s: str) -> Union[int, float]:
        s = s.strip()
        try:
            return int(s)
        except ValueError:
            return float(s)

    if ":" in raw:
        parts = [int(p) for p in raw.split(":")]
        lo, hi = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 1
        return list(range(lo, hi + 1, step))
    return [num(p) for p in raw.split(",")]


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    return format(x, ".10g")


_SWEEPABLE = {
    "parity_detection": {"r", "w"},
    "single_bit": {"r"},
    "destructive": {"t", "a"},
    "cp_attack": {"theta", "x"},
    "per_sb_attack": {"p", "x"},
}


def run_sweep(spec: dict[str, str]) -> str:
    """Evaluate one grid and return the CSV text."""
    kind = spec["kind"]
    var = spec["sweep"]
    if kind not in _SWEEPABLE:
        raise SweepSpecError(f"unknown sweep kind {kind!r}")
    if var not in _SWEEPABLE[kind]:
        raise SweepSpecError(f"{kind} cannot sweep {var!r} (allowed: {sorted(_SWEEPABLE[kind])})")
    if var not in spec:
        raise SweepSpecError(f"swept variable {var!r} has no value list")
    grid = _values(spec[var])
    seed = int(spec.get("seed", "0"))

    def fixed(name: str, default=None):
        if name in spec:
            return _values(spec[name])[0]
        if default is None:
            raise SweepSpecError(f"{kind} needs {name}")
        return default

    lines = [f"# schema={SCHEMA} kind={kind} sweep={var} seed={seed}"]

    if kind in ("parity_detection", "single_bit"):
        k = int(fixed("k", 100))
        trials = int(fixed("trials", 30000))
        w = 1 if kind == "single_bit" else int(fixed("w", 50))
        r = int(fixed("r", 3)) if var != "r" else None
        lines.append(f"{var},detection_rate,ci_low,ci_high")
        for i, v in enumerate(grid):
            rr = int(v) if var == "r" else r
            ww = int(v) if var == "w" else w
            rate = estimate_detection_probability(k, rr, ww, trials, rng_seed=seed + i)
            half = 1.96 * math.sqrt(max(rate * (1 - rate), 1e-12) / trials)
            lines.append(
                f"{_fmt(v)},{_fmt(rate)},{_fmt(max(0.0, rate - half))},{_fmt(min(1.0, rate + half))}"
            )
    elif kind == "destructive":
        n = int(fixed("N"))
        a = int(fixed("a")) if var != "a" else None
        t = int(fixed("t", 0)) if var != "t" else None
        mc_trials = int(spec.get("trials", "0"))
        header = f"{var},probability"
        if mc_trials:
            header += ",mc_estimate,ci_low,ci_high"
        lines.append(header)
        for i, v in enumerate(grid):
            aa = int(v) if var == "a" else a
            tt = int(v) if var == "t" else t
            p = destructive_detection_probability(n, aa, tt)
            row = f"{_fmt(v)},{_fmt(p)}"
            if mc_trials:
                est = simulate_destructive_sampling(n, aa, tt, mc_trials, rng_seed=seed + i)
                half = 1.96 * math.sqrt(max(est * (1 - est), 1e-12) / mc_trials)
                row += f",{_fmt(est)},{_fmt(max(0.0, est - half))},{_fmt(min(1.0, est + half))}"
            lines.append(row)
    elif kind == "cp_attack":
        x = int(fixed("x", 64)) if var != "x" else None
        theta = float(fixed("theta", 0.1)) if var != "theta" else None
        lines.append(f"{var},probability")
        for v in grid:
            th = float(v) if var == "theta" else theta
            xx = int(v) if var == "x" else x
            lines.append(f"{_fmt(v)},{_fmt(cp_attack_probability(th, xx))}")
    elif kind == "per_sb_attack":
        x = int(fixed("x", 64)) if var != "x" else None
        p = float(fixed("p", 0.5)) if var != "p" else None
        lines.append(f"{var},probability")
        for v in grid:
            pp = float(v) if var == "p" else p
            xx = int(v) if var == "x" else x
            lines.append(f"{_fmt(v)},{_fmt(per_sb_attack_probability(pp, xx))}")
    else:
        raise SweepSpecError(f"unknown sweep kind {kind!r}")
    return "\n".join(lines) + "\n"
