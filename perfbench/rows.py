"""Re-measure the ROADMAP Baseline rows that map onto the workloads, as medians.

    python3 perfbench/rows.py > rows.json

Prints one JSON object: per row, the median host seconds, the same scaled to
the reference host speed as run.py reports times, and the median kernel speed
they were scaled by, over repeated runs. Rows
whose cost depends on the input are measured on each obfuscate corpus entry.
Takes about a minute.
"""

from __future__ import annotations

import json
import statistics
import sys

import run

run._import_program()

from tpad import attacks as A  # noqa: E402
from tpad import chip as C  # noqa: E402
from tpad import fftced as F  # noqa: E402
from tpad import switchbox as S  # noqa: E402
from workloads import (PIN_SEED, WORKLOADS, Session, clean_stimulus, derive,  # noqa: E402
                       lfsr16, wide_chip)

REPEATS = 5


def median_time(fn, repeats: int = REPEATS) -> dict:
    raw, scaled, speeds = [], [], []
    for _ in range(repeats):
        _, seconds, speed = run.timed(fn)
        raw.append(seconds)
        scaled.append(seconds * speed / run.REFERENCE_SPEED)
        speeds.append(speed)
    return {"median_s": statistics.median(raw), "scaled_median_s": statistics.median(scaled),
            "kernel_ips": statistics.median(speeds), "repeats": repeats}


def clean_cycles(ram: bool, cycles: int = 5000) -> dict:
    session = Session.start(wide_chip(ram=ram), PIN_SEED)
    stimulus = clean_stimulus(session.chip, session.srng, cycles)
    row = median_time(lambda: session.drive(stimulus))
    row["cycles_per_s"] = cycles / row["median_s"]
    return row


def main() -> None:
    rows = {
        "clean cycles, wide chip, pipeline, no RAM": clean_cycles(ram=False),
        "clean cycles, wide chip, pipeline + 64-word RAM (chip_run)": clean_cycles(ram=True),
    }

    chip = wide_chip(ram=False)
    rows["run_campaign, wide chip, 500 trials x 8 cycles, multi-bit"] = median_time(
        lambda: A.run_campaign(chip, A.uniform_output_flip_attacks(2), 500, 8, rng_seed=7))

    obf = WORKLOADS["obfuscate"]
    corpus, _, _ = obf.setup(PIN_SEED, None)
    for name, _, _, _, r, options in obf.SIZES:
        rows[f"build_protected_chip {name}, r={r}, {options or 'no options'}"] = [
            median_time(lambda j=j: C.build_protected_chip(
                corpus[j][name], r, 2, lfsr16(r), rng_seed=derive(obf.CORPUS_SEED, "build", name, j),
                options=C.ChipOptions(**options)), repeats=3)
            for j in range(obf.ENTRIES)]
    inserted = []
    for j in range(obf.ENTRIES):
        net = corpus[j]["insert"]
        seed = derive(obf.CORPUS_SEED, "sb", j)
        row = median_time(lambda: S.insert_switchboxes(net, 2, rng_seed=seed), repeats=3)
        inserted.append(S.insert_switchboxes(net, 2, rng_seed=seed))
        row["switchboxes"] = inserted[-1].n_switchboxes
        rows.setdefault("insert_switchboxes 12/150/6, t=2", []).append(row)
    for result in inserted:
        row = median_time(lambda: S.degeneracy_scan(result, 10_000, rng_seed=1), repeats=3)
        row["switchboxes"] = result.n_switchboxes
        rows.setdefault("degeneracy_scan, 10k samples", []).append(row)

    threshold, ref = F.calibrate_threshold(128, 1000, 2.0, rng_seed=77)
    rows["fft N=128 calibrate, 1000 trials"] = median_time(
        lambda: F.calibrate_threshold(128, 1000, 2.0, rng_seed=77), repeats=3)
    rows["fft N=128 butterfly campaign, 1000 trials"] = median_time(
        lambda: F.fft_attack_campaign(128, 1000, threshold, ref, rng_seed=79), repeats=3)
    json.dump(rows, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
