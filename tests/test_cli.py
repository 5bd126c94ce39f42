import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import tpad
import tpad.attacks
import tpad.chip
import tpad.fftced
from tpad.chip import OutputReceiver, StimulusEncoder, load_chip_bundle
from tpad.cli import main
from tpad.fftced import format_reference, make_reference
from tpad.netlist import random_netlist, serialize_netlist
from tpad.ram import ProtectedRam

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


def test_insert_sb_unsatisfiable_exit_code(tmp_path, adder_file, capsys):
    out = tmp_path / "a.obf"
    cfg = tmp_path / "a.cfg"
    rc = main([
        "insert-sb", "--t", "2", "--seed", "1", "--max-iterations", "25",
        "--in", str(adder_file), "--out", str(out), "--config-out", str(cfg),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("insert-sb: could not reach 2 switchboxes") and err.count("\n") == 1


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


@pytest.fixture(scope="module")
def host_bundle(tmp_path_factory):
    """A 6-input, 4-output chip bundle built through the CLI."""
    root = tmp_path_factory.mktemp("host")
    src = root / "host.net"
    src.write_text(serialize_netlist(random_netlist(6, 20, 4, rng_seed=51, name="host")))
    assert main(["build-chip", "--in", str(src), "--out", str(root / "chip"), "--r", "2"]) == 0
    return root / "chip"


@pytest.mark.parametrize("line,reason", [
    ("logic flip target=fout:0 trigger=sometimes", "bad trigger 'sometimes'"),
    ("logic bogus", "unknown target '-'"),
    ("logic flip target=fout:9", "target 'fout:9': expected an integer in [0, 3]"),
    ("logic stuk0 target=fout:0", "payload 'stuk0'"),
    ("decoupling_parity_null stuck1 target=fout:0", "target 'fout:0'"),
    ("reliability stuck0 target=fout:1 trigger=random:0.5", "trigger 'random:0.5'"),
    ("logic stuck0 target=fout:*", "payload 'stuck0'"),
    ("reliability flip target=fout:* trigger=after_cycle:3", "kind 'reliability'"),
    ("logic flip target=input:*", "kind 'logic': target input:* takes only pin attacks"),
])
def test_attack_file_error_exits_2_before_any_trial(host_bundle, tmp_path, capsys, monkeypatch,
                                                    line, reason):
    atks = tmp_path / "atks.txt"
    atks.write_text(f"pin flip target=input:0\n{line}\n")
    monkeypatch.setattr(tpad.attacks, "run_campaign", None)  # running a trial would fail
    assert main(["attack", "--chip", str(host_bundle), "--attacks", str(atks)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("attack: line 2: ") and reason in err and err.count("\n") == 1


@pytest.fixture
def lane_runs(monkeypatch):
    """The argument tuples of every _run_lanes call a campaign makes, each still run."""
    calls = []
    run_lanes = tpad.attacks._run_lanes
    monkeypatch.setattr(tpad.attacks, "_run_lanes",
                        lambda *args: calls.append(args) or run_lanes(*args))
    return calls


@pytest.mark.parametrize("line", [
    "logic flip target=fout:0 trigger=at_cycle:120",
    "logic flip target=fout:0 trigger=at_cycle:8",
    "logic flip target=fout:0 trigger=after_cycle:8",
    "reliability stuck0 target=fout:0 trigger=at_cycle:8",
])
def test_trigger_that_cannot_fire_exits_2_before_any_trial(host_bundle, tmp_path, capsys,
                                                           lane_runs, line):
    """An attack that fires on no cycle of --cycles would be scored as missed in every trial."""
    atks = tmp_path / "atks.txt"
    atks.write_text(f"{line}\n")
    assert main(["attack", "--chip", str(host_bundle), "--attacks", str(atks),
                 "--trials", "50", "--cycles", "8"]) == 2
    trigger = line.rsplit("=", 1)[1]
    assert capsys.readouterr().err == (f"attack: line 1: attack '{line}': trigger '{trigger}': "
                                       "fires on no cycle of a run of 8 cycles\n")
    assert lane_runs == []


def test_trigger_on_the_last_cycle_runs(host_bundle, tmp_path, capsys, lane_runs):
    atks = tmp_path / "atks.txt"
    atks.write_text("logic flip target=fout:0 trigger=at_cycle:7\n")
    assert main(["attack", "--chip", str(host_bundle), "--attacks", str(atks),
                 "--trials", "50", "--cycles", "8"]) == 0
    assert len(lane_runs) == 1
    # a single flipped output is always detected, on the cycle it is flipped
    assert capsys.readouterr().out.splitlines()[1:3] == ["0,logic,1,7", "1,logic,1,7"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_attack_trials_below_one_exit_2(host_bundle, tmp_path, capsys, monkeypatch, trials):
    atks = tmp_path / "atks.txt"
    atks.write_text("pin flip target=input:0\n")
    monkeypatch.setattr(tpad.attacks, "run_campaign", None)  # running a trial would fail
    assert main(["attack", "--chip", str(host_bundle), "--attacks", str(atks),
                 "--trials", trials]) == 2
    assert capsys.readouterr().err == "attack: trials must be >= 1\n"


@pytest.mark.parametrize("command", ["run", "attack"])
@pytest.mark.parametrize("cycles", ["0", "-3"])
def test_cycles_below_one_exit_2(tmp_path, capsys, monkeypatch, command, cycles):
    """Refused before the bundle loads (there is none here) or any cycle runs."""
    monkeypatch.setattr(tpad.chip, "load_chip_bundle", None)  # loading a bundle would fail
    extra = ["--attacks", str(tmp_path / "atks.txt")] if command == "attack" else []
    assert main([command, "--chip", str(tmp_path / "chip"), *extra, "--cycles", cycles]) == 2
    assert capsys.readouterr().err == f"{command}: cycles must be >= 1\n"


@pytest.mark.parametrize("command", ["build-chip", "insert-sb"])
@pytest.mark.parametrize("text,error", [
    (".inputs a\n.outputs y\ny = FOO(a)\n", "line 3, column 5: unknown gate kind 'FOO'"),
    (".inputs a\n.outputs y\ny = AND(a, z)\nz = AND(a, y)\n", "combinational cycle through wire "),
    (None, "No such file or directory"),
])
def test_bad_input_netlist_exits_2(tmp_path, capsys, command, text, error):
    """A malformed or missing netlist is one line on stderr naming the file."""
    src = tmp_path / "in.net"
    if text is not None:
        src.write_text(text)
    out = tmp_path / "out"
    args = ["--in", str(src), "--out", str(out)]
    args += ["--config-out", str(tmp_path / "out.cfg"), "--t", "1"] if command == "insert-sb" else []
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: {src}: {error}") and err.count("\n") == 1
    assert not out.exists()


def test_build_chip_on_sequential_netlist_exits_2(tmp_path, capsys):
    """A chip's function netlist must be combinational: one line naming the file."""
    src = tmp_path / "seq.net"
    src.write_text(".inputs a b\n.outputs y\nq = DFF(a)\ny = XOR(q, b)\n")
    out = tmp_path / "chip"
    assert main(["build-chip", "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"build-chip: {src}: chip function netlist must be combinational\n"
    assert not out.exists()


@pytest.mark.parametrize("option,error", [
    (["--r", "0"], "k and r must be >= 1"),
    (["--r", "-1"], "k and r must be >= 1"),
    (["--r", "9"], "tap position 16 out of range"),
    (["--t", "0"], "t must be >= 1"),
    (["--ram-depth", "12"], "depth must be a power of two >= 2"),
    (["--ram-depth", "0"], "depth must be a power of two >= 2"),  # not "no RAM"
])
def test_build_chip_option_error_exits_2(adder_file, tmp_path, capsys, option, error):
    """An option the library refuses is one line naming the input file, and no bundle."""
    out = tmp_path / "chip"
    assert main(["build-chip", "--in", str(adder_file), "--out", str(out), *option]) == 2
    assert capsys.readouterr().err == f"build-chip: {adder_file}: {error}\n"
    assert not out.exists()


# sha256 of `tpad run --cycles 3000 --trace-csv` on a RAM bundle and a pipelined
# bundle of one host netlist, recorded when each cycle's inputs were drawn one
# getrandbits(1) call at a time
RUN_TRACE_SHA256 = {
    "ram": "3b7de03dbbc4bc7478a45cb7c5b86083e17e17ff3a3b0742b869f1bf9c1284e5",
    "pipelined": "da4db344a2411cf9eee052059a6953501912cccf0a43c98135a91e069c7acdcb",
}


@pytest.mark.parametrize("bundle_kind, options", [
    ("ram", ["--r", "2", "--ram-depth", "16"]),
    ("pipelined", ["--r", "3", "--pipeline", "1"]),
])
def test_run_trace_unchanged(tmp_path, capsys, bundle_kind, options):
    src = tmp_path / "host.net"
    src.write_text(serialize_netlist(random_netlist(6, 20, 4, rng_seed=51, name="host")))
    bundle, trace = tmp_path / "chip", tmp_path / "trace.csv"
    assert main(["build-chip", "--in", str(src), "--out", str(bundle), *options]) == 0
    assert main(["run", "--chip", str(bundle), "--cycles", "3000", "--seed", "6",
                 "--trace-csv", str(trace)]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == RUN_TRACE_SHA256[bundle_kind]


def test_run_cycles_the_ram(tmp_path, capsys, monkeypatch):
    """`tpad run` on a RAM bundle puts one memory operation on every cycle."""
    src = tmp_path / "core.net"
    src.write_text(serialize_netlist(random_netlist(8, 30, 6, rng_seed=3, name="core")))
    bundle = tmp_path / "chip"
    assert main(["build-chip", "--in", str(src), "--out", str(bundle), "--r", "3",
                 "--ram-depth", "64"]) == 0
    ops = []
    cycle = ProtectedRam.cycle
    monkeypatch.setattr(ProtectedRam, "cycle",
                        lambda ram, op, *rest, **kw: ops.append(op) or cycle(ram, op, *rest, **kw))
    assert main(["run", "--chip", str(bundle), "--cycles", "300", "--seed", "4"]) == 0
    assert len(ops) == 300
    assert {"read", "write", "idle"} <= set(ops)


@pytest.mark.parametrize("command", ["run", "attack"])
@pytest.mark.parametrize("name,text,error", [
    ("logic.code", "2 2\n2111\n11\n", "line 2: bad matrix row '2111'"),
    ("detection.cfg", "sb0 = sideways\n", "line 1, column 1: expected 'sbN = parallel|crossed'"),
])
def test_malformed_bundle_exits_2(host_bundle, tmp_path, capsys, command, name, text, error):
    """A corrupted file whose manifest hash was rewritten to match is an input error."""
    root = tmp_path / "chip"
    shutil.copytree(host_bundle, root)
    (root / name).write_text(text)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["files"][name] = hashlib.sha256(text.encode()).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))
    atks = tmp_path / "atks.txt"
    atks.write_text("pin flip target=input:0\n")
    extra = ["--cycles", "5"] if command == "run" else ["--attacks", str(atks)]
    assert main([command, "--chip", str(root), *extra]) == 2
    assert capsys.readouterr().err == f"{command}: bundle file {name}: {error}\n"


def test_missing_bundle_exits_2(tmp_path, capsys):
    assert main(["run", "--chip", str(tmp_path / "nothing")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: ") and "manifest.json" in err and err.count("\n") == 1


def test_attack_csv_is_the_campaign_of_its_file(host_bundle, tmp_path, capsys):
    """Checking every line against the chip first leaves the campaign's draws alone."""
    atks = tmp_path / "atks.txt"
    atks.write_text("logic flip target=fout:0 trigger=at_cycle:2\n"
                    "pin pins:0 target=input:*\n"
                    "logic multi:2 target=fout:*\n"
                    "reliability stuck1 target=fout:1 trigger=at_cycle:1\n"
                    "decoupling_stored_state replay:2 trigger=after_cycle:1\n")
    out = tmp_path / "campaign.csv"
    assert main(["attack", "--chip", str(host_bundle), "--attacks", str(atks), "--trials", "70",
                 "--cycles", "6", "--seed", "4", "--out", str(out)]) == 0
    descriptors = tpad.attacks.parse_attack_file(atks.read_text())
    rng = random.Random(4)
    report = tpad.attacks.run_campaign(load_chip_bundle(host_bundle),
                                       lambda _: rng.choice(descriptors), 70, 6, rng_seed=4)
    assert out.read_text() == report.to_csv()


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


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_fft_campaign_without_trials_exits_2(capsys, trials):
    # a rate over no trials would read 0 with the status of a clean run
    assert main(["fft", "--n", "16", "--campaign", "--trials", trials]) == 2
    assert capsys.readouterr().err == f"fft: trials: must be >= 1, got {trials}\n"


def test_fft_campaign_refuses_trials_before_calibrating(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(tpad.fftced, "calibrate_threshold", lambda *args, **kw: calls.append(args))
    assert main(["fft", "--n", "16", "--campaign", "--trials", "0"]) == 2
    assert capsys.readouterr().err == "fft: trials: must be >= 1, got 0\n"
    assert calls == []


def test_fft_campaign_refuses_length_one_before_calibrating(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(tpad.fftced, "calibrate_threshold", lambda *args, **kw: calls.append(args))
    assert main(["fft", "--n", "1", "--campaign"]) == 2
    assert capsys.readouterr().err == "fft: n: a campaign needs n >= 2 to plant a fault, got 1\n"
    assert calls == []


@pytest.mark.parametrize("argv,error", [
    ("gen-code --k 0 --r 3", "k and r must be >= 1"),
    ("gen-code --k 4 --r 2 --out {tmp}/nodir/x.code",
     "[Errno 2] No such file or directory: '{tmp}/nodir/x.code'"),
    ("destructive --N 10 --a 20 --t 1", "need 0 <= a <= n and 0 <= t <= n"),
    ("lfsr --check-primitive --poly zz --L 4", "invalid literal for int() with base 0: 'zz'"),
    ("lfsr --check-primitive --poly 0x12 --L 4", "polynomial constant term must be 1"),
    ("lfsr --check-primitive --poly 0x40000007 --L 30",
     "degree 30 exceeds the exhaustive test limit 24"),
    ("lfsr --poly 0x13 --L 4", "only --check-primitive is supported"),
    ("insert-sb --t 0 --in {adder} --out {tmp}/a.obf --config-out {tmp}/a.cfg", "t must be >= 1"),
    ("sweep --spec {tmp}/missing.spec", "[Errno 2] No such file or directory: '{tmp}/missing.spec'"),
    ("fft --n 16 --selftest --ref {tmp}/missing.txt",
     "[Errno 2] No such file or directory: '{tmp}/missing.txt'"),
    ("fft --n 16 --calibrate --margin nan", "margin must be a finite number >= 1, got nan"),
    ("fft --n 16", "choose one of --calibrate, --selftest, --campaign"),
])
def test_input_error_exits_2_with_one_line(tmp_path, adder_file, capsys, argv, error):
    """Each of these is an input error: `<command>: <message>` on stderr and exit 2."""
    names = {"tmp": tmp_path, "adder": adder_file}
    argv = argv.format(**names).split()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{argv[0]}: {error.format(**names)}\n"


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory, host_bundle):
    """Valid, malformed and missing inputs of every kind, and writable and blocked outputs."""
    root = tmp_path_factory.mktemp("argv")

    def put(name, text):
        path = root / name
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
        return str(path)

    host = put("host.net", serialize_netlist(random_netlist(6, 20, 4, rng_seed=51, name="host")))
    missing = str(root / "missing")
    bad_bundle = root / "bad_chip"
    shutil.copytree(host_bundle, bad_bundle)
    (bad_bundle / "logic.code").write_text("2 2\n2111\n11\n")  # its manifest hash now differs
    (root / "out").mkdir()
    return {
        "netlist": [host, put("adder.net", FULL_ADDER), missing, str(root),
                    put("foo.net", ".inputs a\n.outputs y\ny = FOO(a)\n"),
                    put("seq.net", ".inputs a b\n.outputs y\nq = DFF(a)\ny = XOR(q, b)\n"),
                    put("binary.net", b"\xff\xfe\x00")],
        "bundle": [str(host_bundle), str(bad_bundle), missing, host],
        "attacks": [put("atks.txt", "pin flip target=input:0\n"
                                    "logic flip target=fout:* trigger=at_cycle:2\n"
                                    "reliability stuck1 target=fout:1 trigger=after_cycle:1\n"),
                    put("stuk.txt", "logic stuk0 target=fout:0\n"),
                    put("fout9.txt", "logic flip target=fout:9\n"),
                    put("empty.txt", "# no attacks\n"), missing],
        "spec": [put("cp.spec", "kind = cp_attack\nsweep = x\nx = 1,16\n"),
                 put("parity.spec",
                     "kind = parity_detection\nsweep = w\nw = 1,3\nk = 20\ntrials = 30\n"),
                 put("open.spec", "kind = cp_attack\nsweep = x\nx = 8:\n"),
                 put("theta.spec", "kind = cp_attack\nsweep = theta\ntheta = 1:2\n"),
                 put("no_n.spec", "kind = destructive\nsweep = t\nt = 0:5\n"), missing],
        "ref": [put("ref16.txt", format_reference(make_reference(16, 1))),
                put("ref32.txt", format_reference(make_reference(32, 1))),
                put("bad_ref.txt", "16\nzz\n"), missing],
        # a path under a regular file can be neither written nor made
        "out": [lambda name: str(root / "out" / name), lambda name: f"{host}/{name}"],
    }


@st.composite
def argvs(draw, files, command):
    """A syntactically valid `tpad` argv with small values, about half of them out of range.

    Each file and output list starts with a valid entry, drawn about half the time.
    """

    def num(lo, hi):
        return str(draw(st.one_of(st.integers(1, hi), st.integers(lo, hi))))

    def pick(kind):
        return draw(st.one_of(st.just(files[kind][0]), st.sampled_from(files[kind])))

    def out(name):
        return pick("out")(name)

    def maybe(*option):
        return list(option) if draw(st.booleans()) else []

    seed = maybe("--seed", num(-3, 5))
    if command == "gen-code":
        return [command, "--k", num(-2, 64), "--r", num(-2, 10), *seed, *maybe("--out", out("m.code"))]
    if command == "insert-sb":
        return [command, "--t", num(-1, 3), "--in", pick("netlist"), "--out", out("x.obf"),
                "--config-out", out("x.cfg"), *seed, *maybe("--max-iterations", num(-2, 50))]
    if command == "build-chip":
        depth = draw(st.sampled_from(["-4", "0", "1", "2", "3", "12", "16"]))
        return [command, "--in", pick("netlist"), "--out", out("chip"), *seed,
                *maybe("--r", num(-2, 9)), *maybe("--t", num(-1, 3)),
                *maybe("--pipeline", draw(st.sampled_from(["0", "1"]))), *maybe("--ram-depth", depth)]
    if command == "run":
        return [command, "--chip", pick("bundle"), "--cycles", num(-3, 50), *seed,
                *maybe("--trace-csv", out("trace.csv"))]
    if command == "attack":
        return [command, "--chip", pick("bundle"), "--attacks", pick("attacks"), "--trials", num(-2, 30),
                "--cycles", num(-2, 50), *seed, *maybe("--out", out("attack.csv"))]
    if command == "fft":
        n = draw(st.one_of(st.sampled_from(["1", "2", "4", "16", "32", "64"]),
                           st.integers(-2, 64).map(str)))
        modes = draw(st.lists(st.sampled_from(["--calibrate", "--selftest", "--campaign"]),
                              min_size=draw(st.sampled_from([0, 1, 1, 1])), max_size=2))
        margin = draw(st.sampled_from(["nan", "inf", "-1", "0", "0.5", "1", "2", "1e300"]))
        return [command, "--n", n, *modes, "--trials", num(-2, 30), *seed, *maybe("--margin", margin),
                *maybe("--ref", pick("ref")), *maybe("--ref-out", out("ref.txt"))]
    if command == "destructive":
        return [command, "--N", num(-2, 50), "--a", num(-2, 60), "--t", num(-2, 60)]
    if command == "sweep":
        return [command, "--spec", pick("spec"), *maybe("--out", out("sweep.csv"))]
    # the primitivity walk takes 2**L steps: accepted degrees stay <= 12, refused ones go past 24
    degree = draw(st.one_of(st.integers(1, 12), st.integers(-2, 12), st.integers(25, 30)))
    top = 1 << max(degree, 0)
    poly = draw(st.one_of(st.integers(0, top - 1).map(lambda low: hex(top | low | 1)),
                          st.sampled_from(["zz", "0x12", "0x13", "0", "-5", "07", "0b1011"])))
    return [command, *maybe("--check-primitive"), "--poly", poly, "--L", str(degree)]


@pytest.mark.parametrize("command", ["gen-code", "insert-sb", "build-chip", "run", "attack", "fft",
                                     "destructive", "sweep", "lfsr"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_argv_exits_with_a_verdict_or_one_input_error_line(argv_files, command, data):
    """Over syntactically valid argv: exit 0 or 1, or exit 2 with one `<command>: ` line.

    Runs in-process; an exception escaping main fails the test.
    """
    argv = data.draw(argvs(argv_files, command), label="argv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    event(f"exit {rc}")
    if rc == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith(f"{command}: ")
    else:
        assert rc in (0, 1)
