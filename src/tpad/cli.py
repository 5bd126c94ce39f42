"""Command line surface: code generation, obfuscation, chips, campaigns, sweeps."""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from pathlib import Path

from .netlist import NetlistError


def _cmd_gen_code(args) -> int:
    from .parity import format_matrix, sample_parity_code

    h = sample_parity_code(args.k, args.r, args.seed)
    text = format_matrix(h)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _read_netlist(path: str):
    """The netlist in file `path`; a missing or malformed file raises ValueError naming it."""
    from .netlist import parse_netlist

    try:
        return parse_netlist(Path(path).read_text(), Path(path).stem)
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror or e}") from None
    except (NetlistError, ValueError) as e:  # ValueError: text that is not UTF-8
        raise ValueError(f"{path}: {e}") from None


def _cmd_insert_sb(args) -> int:
    from .switchbox import format_config, insert_switchboxes, serialize_obfuscated

    obf = insert_switchboxes(_read_netlist(args.infile), args.t, rng_seed=args.seed,
                             max_iterations=args.max_iterations)
    Path(args.out).write_text(serialize_obfuscated(obf))
    Path(args.config_out).write_text(format_config(obf.intended))
    counts = ",".join(str(c) for c in obf.per_output_sb_count)
    print(f"inserted {obf.n_switchboxes} switchboxes (per-cone: {counts})")
    return 0


def _default_lfsr(r: int):
    from .lfsr import LfsrSpec

    # x^16 + x^5 + x^3 + x^2 + 1 is primitive; taps spread over the register
    taps = tuple(range(0, 2 * r, 2))[:r]
    return LfsrSpec(16, 0x1002D, 0xACE1, taps)


def _cmd_build_chip(args) -> int:
    from .chip import ChipOptions, build_protected_chip, save_chip_bundle

    net = _read_netlist(args.infile)
    options = ChipOptions(pipeline_stages=args.pipeline, ram_depth=args.ram_depth)
    try:
        chip = build_protected_chip(net, args.r, args.t, _default_lfsr(args.r),
                                    rng_seed=args.seed, options=options)
    except (ValueError, NetlistError) as e:
        raise ValueError(f"{args.infile}: {e}") from None
    save_chip_bundle(chip, args.out)
    print(f"chip bundle written to {args.out} "
          f"({chip.detection.n_switchboxes} switchboxes in detection logic)")
    return 0


def _cmd_run(args) -> int:
    from .chip import closed_loop, load_chip_bundle
    from .rng import random_bits

    if args.cycles < 1:
        raise ValueError("cycles must be >= 1")
    chip = load_chip_bundle(args.chip)
    chip.reset(args.seed)
    rng = random.Random(args.seed + 1)
    ram_rng = random.Random(args.seed + 2)  # its own draws, so the inputs stay rng's
    m = len(chip.f.inputs)
    stimulus = ((tuple(random_bits(rng, m)), chip.ram.random_op(ram_rng) if chip.ram else None)
                for _ in range(args.cycles))
    traced, feed = itertools.tee(stimulus)  # the trace reads each cycle's inputs
    rows = []
    reports = 0
    for cyc, ((x, _), (res, bad)) in enumerate(zip(traced, closed_loop(chip, feed))):
        reports += bad
        if args.trace_csv:
            rows.append(
                f"{cyc},{_hex(x)},{_hex(res.outputs)},{_hex(res.out_check)},"
                f"{_hex(res.error_signal)},{bad}"
            )
    if args.trace_csv:
        Path(args.trace_csv).write_text(
            "cycle,inputs,outputs,out_check,error_signal,report\n" + "\n".join(rows) + "\n"
        )
    print(f"{args.cycles} cycles, {reports} attack reports")
    return 0 if reports == 0 else 1


def _hex(bits) -> str:
    v = 0
    for b in bits:
        v = (v << 1) | b
    return f"{v:x}"


def _cmd_attack(args) -> int:
    from .attacks import _attack_lines, compile_attack, run_campaign
    from .chip import load_chip_bundle

    for name in ("trials", "cycles"):
        if getattr(args, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    chip = load_chip_bundle(args.chip)
    descriptors = []
    for lineno, atk in _attack_lines(Path(args.attacks).read_text()):
        try:  # with a throwaway rng, so the campaign's draws stay as they are
            compile_attack(chip, atk, random.Random(0), args.cycles)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        descriptors.append(atk)
    if not descriptors:
        raise ValueError("no attacks in file")
    rng = random.Random(args.seed)

    def gen(r):
        return rng.choice(descriptors)

    report = run_campaign(chip, gen, args.trials, args.cycles, rng_seed=args.seed)
    lo, hi = report.confidence_interval()
    text = report.to_csv()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(
        f"detection rate {report.detection_rate:.4f} "
        f"[{lo:.4f}, {hi:.4f}], false positives {report.false_positives}",
        file=sys.stderr,
    )
    return 0 if report.false_positives == 0 else 1


def _cmd_fft(args) -> int:
    from .fftced import (
        CHECKER_ALIVE,
        FftCedEngine,
        FftError,
        calibrate_threshold,
        check_campaign_trials,
        fft_attack_campaign,
        format_reference,
        make_reference,
        parse_reference,
        reference_selftest,
    )
    import numpy as np

    if args.calibrate:
        threshold, ref = calibrate_threshold(args.n, args.trials, args.margin, rng_seed=args.seed)
        if args.ref_out:
            Path(args.ref_out).write_text(format_reference(ref))
        print(f"threshold = {threshold:.6g}")
        return 0
    if args.selftest:
        if args.n < 2:  # the rolled transform below is then the pair itself
            raise FftError(f"n: a selftest needs n >= 2 to build a non-pair, got {args.n}")
        ref = parse_reference(Path(args.ref).read_text()) if args.ref else make_reference(args.n, args.seed)
        threshold, ref = calibrate_threshold(args.n, max(args.trials, 100), args.margin,
                                             rng_seed=args.seed, ref=ref)
        engine = FftCedEngine(args.n, ref, threshold)
        non_pair = (ref.y, np.roll(ref.Y, 1, axis=0))
        verdict = reference_selftest(engine, non_pair, rng_seed=args.seed)
        print(verdict)
        return 0 if verdict == CHECKER_ALIVE else 1
    if args.campaign:
        check_campaign_trials(args.n, args.trials)  # before the calibration it would waste
        threshold, ref = calibrate_threshold(args.n, max(args.trials // 10, 100), args.margin,
                                             rng_seed=args.seed)
        rep = fft_attack_campaign(args.n, args.trials, threshold, ref, rng_seed=args.seed)
        print(
            f"trials {rep.trials}, detected {rep.detected} "
            f"(rate {rep.detection_rate:.4f}), false positives {rep.false_positives}"
        )
        return 0 if rep.false_positives == 0 else 1
    raise ValueError("choose one of --calibrate, --selftest, --campaign")


def _cmd_destructive(args) -> int:
    from .attacks import destructive_detection_probability

    p = destructive_detection_probability(args.N, args.a, args.t)
    print(f"{p:.10g}")
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import parse_experiment_spec, run_sweep

    csv = run_sweep(parse_experiment_spec(Path(args.spec).read_text()))
    if args.out:
        Path(args.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_lfsr(args) -> int:
    from .lfsr import is_primitive

    if not args.check_primitive:
        raise ValueError("only --check-primitive is supported")
    ok = is_primitive(int(args.poly, 0), args.L)
    print("primitive" if ok else "not primitive")
    return 0 if ok else 1


def main(argv=None) -> int:
    """Run one `tpad` command and return its exit status.

    A command returns 0, or 1 for a verdict: a report on a clean run, a
    control trial that fired, a compromised checker. An input error it raises
    (ValueError, NetlistError or OSError) exits 2 with one line on stderr,
    `<command>: <message>`; any other exception is a bug and propagates.
    """
    parser = argparse.ArgumentParser(
        prog="tpad",
        description="Gate-level lab for CED-hardened chips: randomized parity "
        "codes, switchbox obfuscation, LFSR error encoding, attack campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-code", help="sample a randomized parity-check matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen_code)

    p = sub.add_parser("insert-sb", help="randomized switchbox insertion")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config-out", dest="config_out", required=True)
    p.add_argument("--max-iterations", type=int, default=1000)
    p.set_defaults(fn=_cmd_insert_sb)

    p = sub.add_parser("build-chip", help="assemble a protected chip bundle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pipeline", type=int, default=0, choices=(0, 1))
    p.add_argument("--ram-depth", type=int, default=None)
    p.set_defaults(fn=_cmd_build_chip)

    p = sub.add_parser("run", help="closed-loop untampered run of a chip bundle")
    p.add_argument("--chip", required=True)
    p.add_argument("--cycles", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-csv", dest="trace_csv")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("attack", help="attack-injection campaign against a bundle")
    p.add_argument("--chip", required=True)
    p.add_argument("--attacks", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--cycles", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("fft", help="half-precision FFT checker workflows")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--campaign", action="store_true")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--margin", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ref")
    p.add_argument("--ref-out", dest="ref_out")
    p.set_defaults(fn=_cmd_fft)

    p = sub.add_parser("destructive", help="destructive-sampling detection probability")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(fn=_cmd_destructive)

    p = sub.add_parser("sweep", help="run an experiment spec, emit CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("lfsr", help="LFSR polynomial utilities")
    p.add_argument("--check-primitive", action="store_true")
    p.add_argument("--poly", required=True)
    p.add_argument("--L", type=int, required=True)
    p.set_defaults(fn=_cmd_lfsr)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, NetlistError, OSError) as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
