"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not tuned elsewhere. Two of criterion 7's
required probability anchors are arithmetically unattainable under the
hypergeometric formula itself and are encoded as a strict expected failure;
the formula is validated against the exact third anchor and an independent
Monte Carlo oracle.
"""

import math
import random
import time

import numpy as np
import pytest

from tpad.attacks import (
    AttackDescriptor,
    cp_attack_probability,
    decoupling_cost,
    compile_attack,
    destructive_detection_probability,
    per_sb_attack_probability,
    simulate_destructive_sampling,
)
from tpad.chip import (
    ChipOptions,
    OutputReceiver,
    StimulusEncoder,
    build_protected_chip,
)
from tpad.fftced import (
    CHECKER_ALIVE,
    CHECKER_COMPROMISED,
    FftCedEngine,
    calibrate_threshold,
    fft,
    fft_attack_campaign,
    make_reference,
    plancherel_residual,
    reference_selftest,
    white_noise_input,
)
from tpad.netlist import check_equivalence, parse_netlist, random_netlist
from tpad.parity import estimate_detection_probability
from tpad.ram import EXPECTED_SYMPTOM, RAM_TROJANS
from tpad.switchbox import (
    CROSSED,
    PARALLEL,
    apply_config,
    degeneracy_scan,
    insert_switchboxes,
)
from tpad.system import build_pipeline_system, run_system

from conftest import FULL_ADDER, lfsr16


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


TABLE_RATES = {3: 0.875, 4: 0.937, 5: 0.968, 6: 0.984, 7: 0.992, 8: 0.996}


def test_criterion_1_detection_curve():
    """k=100, w=50, 30k trials per r: rates match the reference column +-0.01."""
    t0 = time.time()
    rates = {
        r: estimate_detection_probability(100, r, 50, 30_000, rng_seed=1000 + r)
        for r in range(3, 9)
    }
    elapsed = time.time() - t0
    worst = max(abs(rates[r] - TABLE_RATES[r]) for r in rates)
    detail = (
        f"rates {' '.join(f'{r}:{rates[r]:.4f}' for r in sorted(rates))}, "
        f"max deviation {worst:.4f} (tol 0.01), {elapsed:.1f}s (target < 60s)"
    )
    report(1, worst <= 0.01 and elapsed < 60, detail)


def test_criterion_2_single_bit_completeness():
    """1e5 sampled (code, single-bit error) pairs across r=3..8: zero misses."""
    per_r = 100_000 // 6 + 1
    total = 0
    misses = 0
    for r in range(3, 9):
        rate = estimate_detection_probability(100, r, 1, per_r, rng_seed=2000 + r)
        total += per_r
        misses += round((1.0 - rate) * per_r)
    report(2, misses == 0 and total >= 100_000,
           f"{total} single-bit trials across r=3..8, {misses} misses")


@pytest.fixture(scope="module")
def zero_fp_chips():
    adder = parse_netlist(FULL_ADDER)
    chip_a = build_protected_chip(adder, r=1, t=2, lfsr_spec=lfsr16(1), rng_seed=42)
    core = random_netlist(8, 30, 6, rng_seed=3, name="core")
    chip_b = build_protected_chip(
        core, r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=5,
        options=ChipOptions(pipeline_stages=1, ram_depth=64),
    )
    return chip_a, chip_b


def _drive_clean(chip, cycles, seed, with_ram):
    chip.clear_attacks()
    chip.reset(seed)
    enc = StimulusEncoder(chip)
    rec = OutputReceiver(chip)
    rng = random.Random(seed + 17)
    m = len(chip.f.inputs)
    fires = 0
    for _ in range(cycles):
        x = tuple(rng.getrandbits(1) for _ in range(m))
        ram_op = None
        if with_ram:
            kind = rng.random()
            if kind < 0.4:
                ram_op = ("write", rng.randrange(chip.ram.depth), rng.randrange(1 << 16))
            elif kind < 0.8:
                ram_op = ("read", rng.randrange(chip.ram.depth), None)
            else:
                ram_op = ("idle", None, None)
        res = chip.cycle(x, enc.send(x), ram_op=ram_op)
        fires += res.monitor_attack + res.decode_attack
        fires += rec.receive(res.outputs, res.out_check)
        if res.ram is not None:
            fires += res.ram.attack
    return fires


def test_criterion_3_zero_false_positives(zero_fp_chips):
    """>= 1e6 aggregate untampered chip-cycles with zero reports anywhere."""
    chip_a, chip_b = zero_fp_chips
    fires = 0
    cycles = 0
    fires += _drive_clean(chip_a, 400_000, seed=11, with_ram=False)
    cycles += 400_000
    fires += _drive_clean(chip_b, 300_000, seed=12, with_ram=True)
    cycles += 300_000
    f1 = random_netlist(6, 24, 6, rng_seed=1, name="s1")
    f2 = random_netlist(6, 22, 4, rng_seed=2, name="s2")
    topo = build_pipeline_system([f1, f2], r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=9)
    rep = run_system(topo, [], cycles=150_000, rng_seed=21)
    fires += sum(len(m) for m in rep.monitor_fires) + len(rep.terminal_decode_fires)
    cycles += 150_000 * 2
    report(3, cycles >= 1_000_000 and fires == 0,
           f"{cycles} aggregate untampered chip-cycles, {fires} reports")


def test_criterion_4_ram_detection_table():
    """Each of the ten memory trojan rows fires exactly its stated symptom."""
    from test_ram import _staged, WORKED_ROWS
    from tpad.parity import ParityCheckMatrix

    code = ParityCheckMatrix(WORKED_ROWS)
    passed = 0
    for trojan in RAM_TROJANS:
        res = _staged(code, trojan)
        if res.attack and res.symptoms == (EXPECTED_SYMPTOM[trojan],):
            passed += 1
    report(4, passed == 10, f"{passed}/10 trojan rows flagged with the exact symptom")


def test_criterion_5_insertion_contract():
    """20 accepted insertions: equivalence, per-SB non-degeneracy, cone counts.

    Plus a 10,000-sample scan of incorrect configurations on a 16-switchbox
    instance; any equivalent configuration would be reported with its full
    reproducible assignment.
    """
    accepted = 0
    seed = 0
    failures = []
    while accepted < 20:
        net = random_netlist(10, 24 + (seed % 3) * 6, 3, rng_seed=seed, name=f"c{seed}")
        try:
            obf = insert_switchboxes(net, t=2, rng_seed=seed * 7 + 1)
        except Exception:
            seed += 1
            continue
        accepted += 1
        seed += 1
        applied = apply_config(obf, obf.intended)
        eq = check_equivalence(applied, net)
        if not (eq.equivalent and eq.mode == "exhaustive"):
            failures.append((seed, "intended-config equivalence"))
            continue
        for sb in obf.switchboxes:
            flipped = dict(obf.intended)
            flipped[sb.id] = CROSSED if flipped[sb.id] == PARALLEL else PARALLEL
            if check_equivalence(apply_config(obf, flipped), applied).equivalent:
                failures.append((seed, f"sb{sb.id} degenerate"))
        if not all(c >= 2 for c in obf.per_output_sb_count):
            failures.append((seed, "cone count below target"))

    scan_net = random_netlist(10, 30, 3, rng_seed=9)
    scan_obf = insert_switchboxes(scan_net, t=2, rng_seed=2, min_switchboxes=16)
    scan = degeneracy_scan(scan_obf, 10_000, rng_seed=5)
    for hit in scan.hits:
        failures.append(("scan", hit))
    report(
        5,
        not failures and scan_obf.n_switchboxes >= 16 and scan.fraction_equivalent == 0.0,
        f"20 accepted insertions verified; {scan_obf.n_switchboxes}-SB instance "
        f"scan fraction {scan.fraction_equivalent} over 10000 incorrect configs"
        + (f"; failures: {failures}" if failures else ""),
    )


TABLE_II = [
    (per_sb_attack_probability, (0.5, 64), "5.4e-20"),
    (per_sb_attack_probability, (0.5, 72), "2.1e-22"),
    (per_sb_attack_probability, (0.5, 80), "8.3e-25"),
    (per_sb_attack_probability, (0.5001, 64), "5.5e-20"),
    (per_sb_attack_probability, (0.5001, 72), "2.1e-22"),
    (per_sb_attack_probability, (0.5001, 80), "8.4e-25"),
    (per_sb_attack_probability, (0.0, 64), "0.0"),
    (per_sb_attack_probability, (0.0, 72), "0.0"),
    (per_sb_attack_probability, (0.0, 80), "0.0"),
    (cp_attack_probability, (0.1, 64), "1.18e-3"),
    (cp_attack_probability, (0.1, 72), "5.08e-4"),
    (cp_attack_probability, (0.1, 80), "2.18e-4"),
    (cp_attack_probability, (0.05, 64), "0.0375"),
    (cp_attack_probability, (0.05, 72), "0.0249"),
    (cp_attack_probability, (0.05, 80), "0.0165"),
]


def test_criterion_6_reverse_engineering_table():
    """All 15 analytic cells reproduce at their displayed precision."""
    good = 0
    for fn, args, display in TABLE_II:
        shown = float(display)
        got = fn(*args)
        if shown == 0.0:
            good += got == 0.0
            continue
        digits = len(display.split("e")[0].replace("0.", "").replace(".", "").lstrip("0"))
        good += float(f"%.{digits - 1}e" % got) == pytest.approx(shown, rel=1e-9)
    report(6, good == 15, f"{good}/15 table cells match displayed precision")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known inconsistency in the required anchors: the formula "
        "1 - C(N-a,t)/C(N,t) gives 0.98455 at (100000, 50, 8000) and "
        "0.98694 at (10000, 5, 5800), below the demanded 0.99; the true "
        "0.99 crossings are t=8800 (8.8%) and t=6050 (60.5%). The formula "
        "itself is validated by the exact a=1 anchor (99% destroyed -> "
        "0.99) and by a Monte Carlo oracle elsewhere in this suite."
    ),
)
def test_criterion_7_detection_anchor_bounds_as_stated():
    p1 = destructive_detection_probability(100_000, 50, 8_000)
    p2 = destructive_detection_probability(10_000, 5, 5_800)
    ok = p1 >= 0.99 and p2 >= 0.99
    report(7, ok, f"(100000,50,8000) -> {p1:.5f}, (10000,5,5800) -> {p2:.5f} (>= 0.99 required)")


def test_criterion_7_exact_anchor_and_oracle_agreement():
    """The exact a=1 anchor holds and the formula tracks a sampling oracle."""
    anchor = destructive_detection_probability(100_000, 1, 99_000)
    anchor_ok = abs(anchor - 0.99) < 1e-9
    grid_ok = True
    worst = 0.0
    trials = 6000
    for n, a, t in [(200, 1, 50), (400, 5, 60), (600, 10, 90), (1000, 20, 80), (1000, 3, 400)]:
        exact = destructive_detection_probability(n, a, t)
        est = simulate_destructive_sampling(n, a, t, trials, rng_seed=n + t)
        sigma = math.sqrt(max(exact * (1 - exact), 1e-9) / trials)
        dev = abs(est - exact) / sigma if sigma else 0.0
        worst = max(worst, dev)
        grid_ok &= abs(est - exact) <= 3 * sigma + 1e-9
    report(
        7,
        anchor_ok and grid_ok,
        f"a=1 anchor exact ({anchor:.6f}); oracle grid max deviation {worst:.2f} sigma "
        f"(the two inconsistent anchors are tested separately as a strict xfail)",
    )


def test_criterion_8_fft_ced():
    """Calibration, zero false positives, fault and permutation coverage, selftest."""
    threshold, ref = calibrate_threshold(128, 1000, 2.0, rng_seed=77)

    npr = np.random.default_rng(78)
    fps = 0
    for _ in range(10_000):
        x = white_noise_input(128, npr)
        fps += plancherel_residual(x, fft(x), ref) > threshold

    flips = fft_attack_campaign(128, 10_000, threshold, ref, rng_seed=79)
    perms = fft_attack_campaign(128, 10_000, threshold, ref, rng_seed=80,
                                attack="permutation", probes_per_trial=1)

    engine = FftCedEngine(128, ref, threshold)
    engine.zeroed = True
    x = white_noise_input(128, np.random.default_rng(81))
    _, silent = engine.run(x)
    other = make_reference(128, rng_seed=82)
    non_pair = (other.y, np.roll(other.Y, 5, axis=0))
    compromised = reference_selftest(engine, non_pair, rng_seed=83)
    engine.zeroed = False
    alive = reference_selftest(engine, non_pair, rng_seed=83)

    ok = (
        fps == 0
        and flips.false_positives == 0
        and flips.detection_rate >= 0.99
        and perms.detection_rate >= 0.99
        and not silent.attack
        and compromised == CHECKER_COMPROMISED
        and alive == CHECKER_ALIVE
    )
    report(
        8,
        ok,
        f"0 FPs in 10000 clean runs ({fps}); butterfly-flip rate "
        f"{flips.detection_rate:.4f}; permutation rate {perms.detection_rate:.4f}; "
        f"zeroed reference evades ({not silent.attack}) and selftest exposes it "
        f"({compromised} / {alive})",
    )


def test_criterion_9_decoupling_accounting():
    """Parity nulling evades the decode path; attacker costs match the bounds."""
    f = random_netlist(10, 48, 16, rng_seed=21, name="wide")
    chip = build_protected_chip(f, r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=33)
    chip.reset(55)
    null = AttackDescriptor("decoupling_parity_null", "-", ("after_cycle", 2))
    chip.install_attack(compile_attack(chip, null, random.Random(0), 1000))
    enc = StimulusEncoder(chip)
    rec = OutputReceiver(chip)
    rng = random.Random(56)
    decode_fires = 0
    monitor_fires = 0
    for _ in range(1000):
        x = tuple(rng.getrandbits(1) for _ in range(10))
        res = chip.cycle(x, enc.send(x))
        decode_fires += rec.receive(res.outputs, res.out_check)
        monitor_fires += res.monitor_attack
    chip.clear_attacks()

    null_cost = decoupling_cost("parity_null", outputs=16, check_bits=3)
    fft_cost = decoupling_cost("fft_zero", fft_points=128)
    ok = (
        decode_fires == 0
        and monitor_fires == 0
        and null_cost == {"transistors": 32, "flip_flops": 3}
        and fft_cost["transistors"] == 15_360
    )
    report(
        9,
        ok,
        f"parity-null decode detections {decode_fires}/1000 cycles (evasion), "
        f"cost 2k+r = {null_cost}, fft zeroing at N=128 = {fft_cost['transistors']} transistors",
    )


def test_criterion_10_out_of_scope_surfaces_absent():
    """Silicon area/power/delay numbers are not claimed by this laboratory.

    Synthesis-percentage, 65nm/45nm library results, and FPGA chip
    measurements are replaced by the behavioral property suites above; the
    package intentionally exposes no estimator for them.
    """
    import tpad

    banned = ("area_overhead", "power_overhead", "delay_overhead", "synthesis_reduction")
    leaked = [name for name in dir(tpad) if any(b in name for b in banned)]
    report(10, not leaked, "silicon-scale metrics excluded by design "
                           f"(no {', '.join(banned)} surfaces)")
