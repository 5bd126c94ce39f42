import hashlib

import pytest

from tpad.attacks import AttackDescriptor
from tpad.netlist import random_netlist
from tpad.sweep import SweepSpecError, parse_experiment_spec, run_sweep
from tpad.system import (
    Channel,
    SystemTopology,
    build_pipeline_system,
    config_digest,
    run_system,
)

from conftest import lfsr16


@pytest.fixture(scope="module")
def pipeline():
    f1 = random_netlist(6, 24, 6, rng_seed=1, name="stage1")
    f2 = random_netlist(6, 22, 4, rng_seed=2, name="stage2")
    return build_pipeline_system([f1, f2], r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=9)


@pytest.fixture(scope="module")
def pipeline3():
    """Three chips, so chip 1 is neither a source nor a terminal."""
    fs = [random_netlist(6, 24, 5, rng_seed=1, name="stage1"),
          random_netlist(5, 22, 6, rng_seed=2, name="stage2"),
          random_netlist(6, 20, 4, rng_seed=3, name="stage3")]
    return build_pipeline_system(fs, r=3, t=2, lfsr_spec=lfsr16(3), rng_seed=11)


class TestTopology:
    def test_receiver_must_share_sender_code(self, pipeline):
        chips = pipeline.chips
        with pytest.raises(ValueError):
            # swap the chips: codes no longer line up
            SystemTopology([chips[1], chips[0]], [Channel(0, 1, 0)])

    def test_source_and_terminal_classification(self, pipeline):
        assert pipeline.source_chips == [0]
        assert pipeline.terminal_chips == [1]

    def test_one_input_channel_per_chip(self, pipeline):
        with pytest.raises(ValueError):
            SystemTopology(pipeline.chips, [Channel(0, 1, 0), Channel(0, 1, 0)])


class TestRunSystem:
    def test_untampered_pipeline_is_silent(self, pipeline):
        rep = run_system(pipeline, [], cycles=20_000, rng_seed=4)
        assert all(not fires for fires in rep.monitor_fires)
        assert rep.terminal_decode_fires == []
        assert rep.first_detection is None

    def test_channel_pin_attack_detected_next_cycle(self, pipeline):
        atk = AttackDescriptor("pin", "output:2", ("at_cycle", 100), "flip")
        rep = run_system(pipeline, [(0, atk)], cycles=150, rng_seed=4)
        assert rep.monitor_fires[1][0] == 101  # one cycle of channel latency
        assert rep.monitor_fires[0] == []

    def test_attack_localized_to_owning_chip(self, pipeline):
        atk = AttackDescriptor("logic", "fout:1", ("at_cycle", 50), "flip")
        rep = run_system(pipeline, [(1, atk)], cycles=120, rng_seed=6)
        assert rep.monitor_fires[0] == []
        assert 50 in rep.monitor_fires[1]

    def test_reproducible(self, pipeline):
        a = run_system(pipeline, [], cycles=500, rng_seed=12)
        b = run_system(pipeline, [], cycles=500, rng_seed=12)
        assert a == b

    @pytest.mark.parametrize("attacks, digest", [
        ([], "df431ece4d3ce9ae0f854437b99bd864730a08ddcf6d4ddf39bf2c0341a08926"),
        ([(0, AttackDescriptor("pin", "output:3", ("random", 0.02), "flip"))],
         "4215418c4bbbb3047ef6a5d1194255b3163ee5e0ad55d2ea7af4aa5d4e21a828"),
        ([(1, AttackDescriptor("logic", "fout:2", ("random", 0.02), "flip"))],
         "6daeb284d41f2ee1e181ea6df91eab906ba64f40f0497a630e9336f5c3623f61"),
        ([(2, AttackDescriptor("pin", "output:1", ("random", 0.02), "flip"))],
         "8f99625db758fafb9ad3b34555b28640aeddcd66d82ba08927c72e93525c9173"),
    ], ids=["clean", "output_pin_chip0", "fout_chip1", "output_pin_chip2"])
    def test_three_chip_golden(self, pipeline3, attacks, digest):
        """Every monitor's and the terminal receiver's verdicts, pinned by sha256."""
        rep = run_system(pipeline3, attacks, cycles=3000, rng_seed=5)
        blob = repr((rep.monitor_fires, rep.terminal_decode_fires, rep.first_detection))
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    def test_config_digest_stable(self, pipeline):
        assert config_digest(pipeline) == config_digest(pipeline)
        assert len(config_digest(pipeline)) == 64


# sha256 of each kind's CSV, swept on each variable it allows, and of
# destructive with and without Monte Carlo trials; recorded before the
# per-kind tables in tpad.sweep were merged into one
SWEEP_GOLDEN = {
    "kind = parity_detection\nsweep = r\nr = 2:5\nk = 40\nw = 20\ntrials = 2000\nseed = 3\n":
        "9fca3a6b7d145c037611168912b5f3ed2564c2bf7a6cc7c4187e2b5fa020eb19",
    "kind = parity_detection\nsweep = w\nw = 1,3,10\nk = 40\nr = 3\ntrials = 2000\nseed = 4\n":
        "61b478969263985f158bcc37add65137c2dd5bec3f16ed5de84e0161c692674f",
    "kind = single_bit\nsweep = r\nr = 1:4\nk = 30\ntrials = 2000\nseed = 5\n":
        "d3f81f30130b3f96b6ed42fe5f35f0730c0100462fc2dbafd539e8a38ca5ed82",
    "kind = destructive\nsweep = t\nt = 0:4000:1000\nN = 10000\na = 20\n":
        "c7edfe0973df8b403a85045c3a8769fd83b03a7f81f595d01a2a4a46c62a5896",
    "kind = destructive\nsweep = t\nt = 0:600:200\nN = 2000\na = 10\ntrials = 300\nseed = 6\n":
        "f5d1d1ed7b2bb884f7ed570cddbb142d68bc8919753cd6758696db0cad9ae63a",
    "kind = destructive\nsweep = a\na = 1,5,25\nN = 10000\nt = 500\n":
        "17c2bb68e289e6f1f0284690e9eda1345fed3a31cc7d8d90bd1143484323d8ce",
    "kind = destructive\nsweep = a\na = 1,5,25\nN = 10000\nt = 500\ntrials = 500\nseed = 7\n":
        "03a7fc78d12767212c7b5d17fc1fa69e2387f13bb4ed5a6aae5f58f0a70f4727",
    "kind = cp_attack\nsweep = theta\ntheta = 0.01,0.05,0.1,0.3\nx = 64\n":
        "09465cd19a002ea7027da39d60d8ce120e324e692a558c38df3abb0b94c50287",
    "kind = cp_attack\nsweep = x\nx = 8:64:8\ntheta = 0.1\n":
        "b06b5dd0ccc3870630eb6e269ca7b7ad6aabd5cdf9f631c5ba0d0891ffeda5a1",
    "kind = per_sb_attack\nsweep = p\np = 0.5,0.6,0.9\nx = 32\n":
        "9342241d1525cfd72fb5aa7641ef7b75378df53087b2c1d13b25f9ac0c101139",
    "kind = per_sb_attack\nsweep = x\nx = 1,16,128\np = 0.55\n":
        "f812146db28453034f618f88084a453fabed4e51c6214e7267ba0d7a7d7ebd5c",
}


class TestSweep:
    @pytest.mark.parametrize("text", list(SWEEP_GOLDEN),
                             ids=[t.split("\n")[0][7:] + "-" + t.split("\n")[1][8:]
                                  + ("-mc" if "trials" in t else "") for t in SWEEP_GOLDEN])
    def test_csv_golden(self, text):
        csv = run_sweep(parse_experiment_spec(text))
        assert hashlib.sha256(csv.encode()).hexdigest() == SWEEP_GOLDEN[text]

    def test_parity_detection_sweep_matches_table(self):
        spec = parse_experiment_spec(
            "kind = parity_detection\nsweep = r\nr = 3:8\nk = 100\nw = 50\n"
            "trials = 8000\nseed = 7\n"
        )
        csv = run_sweep(spec)
        lines = csv.strip().splitlines()
        assert lines[1] == "r,detection_rate,ci_low,ci_high"
        expected = {3: 0.875, 4: 0.937, 5: 0.968, 6: 0.984, 7: 0.992, 8: 0.996}
        for row in lines[2:]:
            r, rate = row.split(",")[:2]
            assert abs(float(rate) - expected[int(r)]) < 0.02

    def test_destructive_sweep_crossing(self):
        spec = parse_experiment_spec(
            "kind = destructive\nsweep = t\nt = 8000:9600:400\nN = 100000\na = 50\n"
        )
        csv = run_sweep(spec)
        rows = [r.split(",") for r in csv.strip().splitlines()[2:]]
        crossed = [int(t) for t, p in rows if float(p) >= 0.99]
        assert crossed and crossed[0] == 8800  # the exact 0.99 crossing

    def test_cp_sweep_values(self):
        spec = parse_experiment_spec(
            "kind = cp_attack\nsweep = theta\ntheta = 0.05,0.1\nx = 64\n"
        )
        csv = run_sweep(spec)
        rows = dict(r.split(",") for r in csv.strip().splitlines()[2:])
        assert float(rows["0.05"]) == pytest.approx(0.0375, abs=1e-4)
        assert float(rows["0.1"]) == pytest.approx(1.18e-3, abs=1e-5)

    def test_byte_identical_reproducibility(self):
        text = (
            "kind = parity_detection\nsweep = r\nr = 3:5\nk = 40\nw = 20\n"
            "trials = 2000\nseed = 3\n"
        )
        a = run_sweep(parse_experiment_spec(text))
        b = run_sweep(parse_experiment_spec(text))
        assert a == b

    def test_repeated_key_rejected(self):
        with pytest.raises(SweepSpecError, match=r"^line 4: repeated key 'r'"):
            parse_experiment_spec("kind = single_bit\nsweep = r\nr = 3:8\nr = 3\n")

    def test_unknown_key_rejected(self):
        text = "kind = parity_detection\nsweep = r\nr = 3:5\ntrails = 10\n"
        with pytest.raises(SweepSpecError, match=r"^line 4: parity_detection takes no key 'trails'"):
            parse_experiment_spec(text)
        # single_bit always uses weight 1, so a weight would be silently ignored
        with pytest.raises(SweepSpecError, match=r"^line 3: single_bit takes no key 'w'"):
            parse_experiment_spec("kind = single_bit\nsweep = r\nw = 5\nr = 3:4\n")

    @pytest.mark.parametrize("line,match", [
        ("x = 8:", r"^line 3: x takes a nonempty list of integers, not '8:'$"),
        ("theta = lots", r"^line 3: theta takes a nonempty list of numbers, not 'lots'$"),
        ("seed = q", r"^line 3: seed takes an integer, not 'q'$"),
        ("x = 2.5", r"^line 3: x takes a nonempty list of integers, not '2.5'$"),
        ("x = 1:9:2:4", r"^line 3: x takes a nonempty list of integers"),
        ("x = 9:1", r"^line 3: x takes a nonempty list of integers"),
    ])
    def test_bad_value_names_line_and_key(self, line, match):
        text = f"kind = cp_attack\nsweep = x\n{line}\n"
        if not line.startswith("x "):
            text += "x = 64\n"
        with pytest.raises(SweepSpecError, match=match):
            parse_experiment_spec(text)

    @pytest.mark.parametrize("text,match", [
        ("kind = cp_attack\nsweep = q\nq = 1\n", r"^line 2: cp_attack cannot sweep 'q' \(allowed"),
        ("kind = cp_attack\n\nsweep = x\ntheta = 0.1\n",
         r"^line 3: swept variable 'x' has no value list$"),
    ])
    def test_sweep_line_errors_name_the_line(self, text, match):
        with pytest.raises(SweepSpecError, match=match):
            parse_experiment_spec(text)

    @pytest.mark.parametrize("text,match", [
        ("kind = destructive\nsweep = t\nt = 0:5\n", r"^line 1: destructive needs 'N'$"),
        ("# no a\nsweep = t\nkind = destructive\nt = 0:5\nN = 20\n",
         r"^line 3: destructive needs 'a'$"),
    ])
    def test_missing_key_names_the_kind_line(self, text, match):
        with pytest.raises(SweepSpecError, match=match):
            parse_experiment_spec(text)

    @pytest.mark.parametrize("text,match", [
        ("kind = cp_attack\nsweep = theta\ntheta = 1:2\n", r"^at theta = 2: theta must be in \[0, 1\]$"),
        ("kind = per_sb_attack\nsweep = p\np = 2\n", r"^at p = 2: p must be in \[0, 1\]$"),
        ("kind = per_sb_attack\nsweep = x\nx = 4,-1\n", r"^at x = -1: x must be >= 0$"),
        ("kind = destructive\nsweep = t\nt = 0:30:10\nN = 20\na = 2\n",
         r"^at t = 30: need 0 <= a <= n and 0 <= t <= n$"),
    ])
    def test_value_outside_domain_names_key_and_value(self, text, match):
        with pytest.raises(SweepSpecError, match=match):
            run_sweep(parse_experiment_spec(text))

    def test_malformed_specs_rejected(self):
        with pytest.raises(SweepSpecError):
            parse_experiment_spec("sweep = r\n")
        with pytest.raises(SweepSpecError):
            run_sweep(parse_experiment_spec("kind = bogus\nsweep = r\nr = 1:2\n"))
        with pytest.raises(SweepSpecError):
            run_sweep(parse_experiment_spec("kind = cp_attack\nsweep = q\nq = 1\n"))
