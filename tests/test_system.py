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
        rep = run_system(pipeline, None, [], cycles=20_000, rng_seed=4)
        assert all(not fires for fires in rep.monitor_fires)
        assert rep.terminal_decode_fires == []
        assert rep.first_detection is None

    def test_channel_pin_attack_detected_next_cycle(self, pipeline):
        atk = AttackDescriptor("pin", "output:2", ("at_cycle", 100), "flip")
        rep = run_system(pipeline, None, [(0, atk)], cycles=150, rng_seed=4)
        assert rep.monitor_fires[1][0] == 101  # one cycle of channel latency
        assert rep.monitor_fires[0] == []

    def test_attack_localized_to_owning_chip(self, pipeline):
        atk = AttackDescriptor("logic", "fout:1", ("at_cycle", 50), "flip")
        rep = run_system(pipeline, None, [(1, atk)], cycles=120, rng_seed=6)
        assert rep.monitor_fires[0] == []
        assert 50 in rep.monitor_fires[1]

    def test_reproducible(self, pipeline):
        a = run_system(pipeline, None, [], cycles=500, rng_seed=12)
        b = run_system(pipeline, None, [], cycles=500, rng_seed=12)
        assert a == b

    def test_config_digest_stable(self, pipeline):
        assert config_digest(pipeline) == config_digest(pipeline)
        assert len(config_digest(pipeline)) == 64


class TestSweep:
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

    def test_malformed_specs_rejected(self):
        with pytest.raises(SweepSpecError):
            parse_experiment_spec("sweep = r\n")
        with pytest.raises(SweepSpecError):
            run_sweep(parse_experiment_spec("kind = bogus\nsweep = r\nr = 1:2\n"))
        with pytest.raises(SweepSpecError):
            run_sweep(parse_experiment_spec("kind = cp_attack\nsweep = q\nq = 1\n"))
