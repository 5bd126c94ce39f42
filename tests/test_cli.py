import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tpad
from tpad.chip import OutputReceiver, StimulusEncoder, load_chip_bundle
from tpad.cli import main
from tpad.netlist import random_netlist, serialize_netlist

from conftest import FULL_ADDER, ALU2


@pytest.fixture
def adder_file(tmp_path):
    p = tmp_path / "adder.net"
    p.write_text(FULL_ADDER)
    return p


@pytest.fixture
def alu_file(tmp_path):
    p = tmp_path / "alu.net"
    p.write_text(ALU2)
    return p


def test_gen_code_writes_matrix(tmp_path, capsys):
    out = tmp_path / "m.code"
    assert main(["gen-code", "--k", "5", "--r", "3", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "5 3" and len(lines) == 4


def test_insert_sb_and_config(tmp_path, alu_file, capsys):
    out = tmp_path / "alu.obf"
    cfg = tmp_path / "alu.cfg"
    rc = main([
        "insert-sb", "--t", "2", "--seed", "3",
        "--in", str(alu_file), "--out", str(out), "--config-out", str(cfg),
    ])
    assert rc == 0
    assert "SB2(" in out.read_text()
    assert "= parallel" in cfg.read_text() or "= crossed" in cfg.read_text()


def test_insert_sb_unsatisfiable_exit_code(tmp_path, adder_file):
    out = tmp_path / "a.obf"
    cfg = tmp_path / "a.cfg"
    rc = main([
        "insert-sb", "--t", "2", "--seed", "1", "--max-iterations", "25",
        "--in", str(adder_file), "--out", str(out), "--config-out", str(cfg),
    ])
    assert rc == 2


def test_build_run_attack_flow(tmp_path, adder_file, capsys):
    bundle = tmp_path / "chip"
    assert main([
        "build-chip", "--in", str(adder_file), "--out", str(bundle),
        "--r", "1", "--t", "2", "--seed", "5",
    ]) == 0
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["format"] == "tpad-chip/1"

    trace = tmp_path / "trace.csv"
    assert main([
        "run", "--chip", str(bundle), "--cycles", "500", "--seed", "2",
        "--trace-csv", str(trace),
    ]) == 0
    header = trace.read_text().splitlines()[0]
    assert header == "cycle,inputs,outputs,out_check,error_signal,report"

    atks = tmp_path / "atks.txt"
    atks.write_text(
        "logic flip target=fout:0 trigger=at_cycle:2\n"
        "pin flip target=input:1 trigger=at_cycle:3\n"
    )
    out = tmp_path / "campaign.csv"
    assert main([
        "attack", "--chip", str(bundle), "--attacks", str(atks),
        "--trials", "40", "--cycles", "6", "--seed", "4", "--out", str(out),
    ]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "trial,attack_kind,detected,first_detect_cycle"
    assert rows[-1].startswith("summary,all,")
    assert len(rows) == 42  # 40 trials + header + summary


def test_run_receives_every_word(tmp_path, capsys):
    """`tpad run` reports what a harness calling receive on every cycle does.

    One switchbox of the bundle is set against its intended setting (the
    manifest re-hashed), so the monitor fires on some cycles; a receiver
    that skipped those words would report stale-chain failures after them.
    """
    src = tmp_path / "wide.net"
    src.write_text(serialize_netlist(random_netlist(10, 48, 16, rng_seed=21, name="wide")))
    bundle = tmp_path / "chip"
    assert main(["build-chip", "--in", str(src), "--out", str(bundle),
                 "--r", "3", "--t", "2", "--seed", "9"]) == 0
    cfg = (bundle / "detection.cfg").read_text().splitlines()
    name, mode = cfg[0].split(" = ")
    cfg[0] = f"{name} = {'crossed' if mode == 'parallel' else 'parallel'}"
    text = "\n".join(cfg) + "\n"
    (bundle / "detection.cfg").write_text(text)
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["files"]["detection.cfg"] = hashlib.sha256(text.encode()).hexdigest()
    (bundle / "manifest.json").write_text(json.dumps(manifest))

    trace = tmp_path / "trace.csv"
    assert main(["run", "--chip", str(bundle), "--cycles", "200", "--seed", "1",
                 "--trace-csv", str(trace)]) == 1
    got = [int(row.rsplit(",", 1)[1]) for row in trace.read_text().splitlines()[1:]]

    chip = load_chip_bundle(bundle)
    chip.reset(1)
    enc, rec = StimulusEncoder(chip), OutputReceiver(chip)
    rng = random.Random(2)
    want, monitor_cycles = [], 0
    for _ in range(200):
        x = tuple(rng.getrandbits(1) for _ in range(10))
        res = chip.cycle(x, enc.send(x))
        received = rec.receive(res.outputs, res.out_check)
        want.append(int(bool(received or res.monitor_attack or res.decode_attack)))
        monitor_cycles += bool(res.monitor_attack)
    assert 0 < monitor_cycles < 200
    assert got == want


def test_import_leaves_out_hashlib_and_json():
    """Only bundle files and config digests need them; they import on use."""
    code = "import sys, tpad; print(sorted({'hashlib', 'json'} & set(sys.modules)))"
    src = str(Path(tpad.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_destructive_prints_probability(capsys):
    assert main(["destructive", "--N", "100000", "--a", "1", "--t", "99000"]) == 0
    assert capsys.readouterr().out.strip().startswith("0.99")


def test_sweep_to_file(tmp_path):
    spec = tmp_path / "exp.spec"
    spec.write_text("kind = per_sb_attack\nsweep = p\np = 0.5,0.5001\nx = 64\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1] == "p,probability"
    assert rows[2].startswith("0.5,5.42101")


@pytest.mark.parametrize("line,key", [("x = 8:", "x"), ("theta = lots", "theta"),
                                      ("seed = q", "seed")])
def test_sweep_spec_error_exits_2(tmp_path, capsys, line, key):
    spec = tmp_path / "bad.spec"
    body = line if key == "x" else f"x = 64\n{line}"
    spec.write_text(f"kind = cp_attack\nsweep = x\n{body}\n")
    assert main(["sweep", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sweep: line ") and f" {key} takes " in err


def test_sweep_value_outside_domain_exits_2(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("kind = cp_attack\nsweep = theta\ntheta = 1:2\n")
    assert main(["sweep", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == "sweep: at theta = 2: theta must be in [0, 1]\n"


def test_lfsr_primitive_check(capsys):
    assert main(["lfsr", "--check-primitive", "--poly", "0x13", "--L", "4"]) == 0
    assert main(["lfsr", "--check-primitive", "--poly", "0x15", "--L", "4"]) == 1


def test_fft_calibrate_and_selftest(tmp_path, capsys):
    assert main(["fft", "--n", "32", "--calibrate", "--trials", "150", "--seed", "1"]) == 0
    assert "threshold" in capsys.readouterr().out
    assert main(["fft", "--n", "32", "--selftest", "--trials", "120", "--seed", "1"]) == 0


def test_fft_input_error_is_one_line_and_exit_2(tmp_path, capsys):
    ref = tmp_path / "ref32.txt"
    assert main(["fft", "--n", "32", "--calibrate", "--trials", "150", "--ref-out", str(ref)]) == 0
    capsys.readouterr()
    # a 32-point reference for a 16-point check is an input error, not a compromised checker
    assert main(["fft", "--n", "16", "--selftest", "--ref", str(ref)]) == 2
    err = capsys.readouterr().err
    assert err == "fft: ref: reference length 32 differs from n = 16\n"


def test_fft_length_one(capsys):
    # a length-1 transform is the identity, so the clean residual is exactly 0
    assert main(["fft", "--n", "1", "--calibrate"]) == 0
    assert capsys.readouterr().out == "threshold = 0\n"
    assert main(["fft", "--n", "1", "--campaign", "--trials", "20"]) == 2
    assert capsys.readouterr().err == "fft: n: a campaign needs n >= 2 to plant a fault, got 1\n"
    # rolling a length-1 transform gives the pair back, so there is no non-pair to build
    assert main(["fft", "--n", "1", "--selftest"]) == 2
    assert capsys.readouterr().err == "fft: n: a selftest needs n >= 2 to build a non-pair, got 1\n"
