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

Besides kind, sweep and seed, each kind takes only the keys it reads (see
_KINDS); any other key, or a value that is not a nonempty list of the key's
type (an integer for seed), is refused with its line, as is a sweep variable
the kind cannot sweep or that has no value list; a key the kind needs but
the spec leaves out is refused with the kind line. A grid point whose value
the kind's calculator refuses is refused as "at theta = 2: <reason>".

All randomness funnels through the one seed; identical spec text yields a
byte-identical CSV. Monte Carlo rows carry a normal-approximation 95%
confidence half width, closed-form rows do not.
"""

from __future__ import annotations

from typing import Union

from .attacks import (
    cp_attack_probability,
    destructive_detection_probability,
    normal_interval,
    per_sb_attack_probability,
    simulate_destructive_sampling,
)
from .netlist import text_lines
from .parity import estimate_detection_probability

SCHEMA = "tpad.sweep/1"


class SweepSpecError(ValueError):
    pass


# Per kind: each key run_sweep reads besides kind, sweep and seed, with its
# default (None where the spec must set it), the keys it can sweep, its CSV
# columns after the swept variable and any that a nonzero trials appends. A
# key with a float default takes floats, every other key ints.
_KINDS = {
    "parity_detection": ({"k": 100, "trials": 30000, "w": 50, "r": 3}, {"r", "w"},
                         "detection_rate,ci_low,ci_high"),
    "single_bit": ({"k": 100, "trials": 30000, "r": 3}, {"r"}, "detection_rate,ci_low,ci_high"),
    "destructive": ({"N": None, "a": None, "t": 0, "trials": 0}, {"t", "a"}, "probability",
                    ",mc_estimate,ci_low,ci_high"),
    "cp_attack": ({"x": 64, "theta": 0.1}, {"theta", "x"}, "probability"),
    "per_sb_attack": ({"x": 64, "p": 0.5}, {"p", "x"}, "probability"),
}


def parse_experiment_spec(text: str) -> dict[str, str]:
    spec: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in text_lines(text):
        if "=" not in line:
            raise SweepSpecError(f"line {lineno}: expected key = value")
        key, val = (p.strip() for p in line.split("=", 1))
        if key in spec:
            raise SweepSpecError(f"line {lineno}: repeated key {key!r}")
        spec[key] = val
        lines[key] = lineno
    if "kind" not in spec:
        raise SweepSpecError("spec needs a kind")
    if "sweep" not in spec:
        raise SweepSpecError("spec needs a sweep variable")
    kind = spec["kind"]
    if kind not in _KINDS:
        raise SweepSpecError(f"line {lines['kind']}: unknown sweep kind {kind!r}")
    defaults, sweepable, *_ = _KINDS[kind]
    var = spec["sweep"]
    if var not in sweepable:
        raise SweepSpecError(f"line {lines['sweep']}: {kind} cannot sweep {var!r} "
                             f"(allowed: {sorted(sweepable)})")
    if var not in spec:
        raise SweepSpecError(f"line {lines['sweep']}: swept variable {var!r} has no value list")
    for key, lineno in lines.items():
        if key not in defaults and key not in ("kind", "sweep", "seed"):
            raise SweepSpecError(f"line {lineno}: {kind} takes no key {key!r}")
        if key in ("kind", "sweep"):
            continue
        kind_of = "numbers" if isinstance(defaults.get(key), float) else "integers"
        try:
            values = [int(spec[key])] if key == "seed" else _values(spec[key])
        except ValueError:
            values = []
        if not values or not (kind_of == "numbers" or all(isinstance(v, int) for v in values)):
            what = "an integer" if key == "seed" else f"a nonempty list of {kind_of}"
            raise SweepSpecError(f"line {lineno}: {key} takes {what}, not {spec[key]!r}")
    for key, default in defaults.items():
        if default is None and key not in spec:
            raise SweepSpecError(f"line {lines['kind']}: {kind} needs {key!r}")
    return spec


def _values(raw: str) -> list[Union[int, float]]:
    def num(s: str) -> Union[int, float]:  # int() and float() skip the spaces around s
        try:
            return int(s)
        except ValueError:
            return float(s)

    if ":" in raw:
        bounds = [int(p) for p in raw.split(":")]
        lo, hi, step = bounds if len(bounds) == 3 else [*bounds, 1]  # step 1 by default
        return list(range(lo, hi + 1, step))
    return [num(p) for p in raw.split(",")]


def _fmt(x) -> str:
    return str(x) if isinstance(x, int) else format(x, ".10g")


def _row(kind: str, p: dict, seed: int) -> list:
    """One grid point's values after the swept variable, at the parameters p."""
    if kind in ("parity_detection", "single_bit"):
        rate = estimate_detection_probability(p["k"], p["r"], p.get("w", 1), p["trials"],
                                              rng_seed=seed)
        return [rate, *normal_interval(rate, p["trials"])]
    if kind == "destructive":
        row = [destructive_detection_probability(p["N"], p["a"], p["t"])]
        if p["trials"]:
            est = simulate_destructive_sampling(p["N"], p["a"], p["t"], p["trials"], rng_seed=seed)
            row += [est, *normal_interval(est, p["trials"])]
        return row
    if kind == "cp_attack":
        return [cp_attack_probability(p["theta"], p["x"])]
    return [per_sb_attack_probability(p["p"], p["x"])]


def run_sweep(spec: dict[str, str]) -> str:
    """Evaluate the grid of a spec from parse_experiment_spec; return the CSV text."""
    kind = spec["kind"]
    var = spec["sweep"]
    defaults, _, columns, *mc_columns = _KINDS[kind]
    grid = _values(spec[var])
    seed = int(spec.get("seed", "0"))

    def typed(name: str, value) -> Union[int, float]:
        return float(value) if isinstance(defaults[name], float) else int(value)

    fixed = {}
    for name, default in defaults.items():
        if name != var:
            fixed[name] = typed(name, _values(spec[name])[0] if name in spec else default)
    if fixed.get("trials"):
        columns += "".join(mc_columns)
    lines = [f"# schema={SCHEMA} kind={kind} sweep={var} seed={seed}", f"{var},{columns}"]
    for i, v in enumerate(grid):
        try:
            row = _row(kind, dict(fixed, **{var: typed(var, v)}), seed + i)
        except ValueError as e:  # a calculator refuses a value outside its kind's domain
            raise SweepSpecError(f"at {var} = {_fmt(v)}: {e}") from None
        lines.append(",".join(map(_fmt, [v, *row])))
    return "\n".join(lines) + "\n"
