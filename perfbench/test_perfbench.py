"""Self-tests for the benchmark: pins, tracer hygiene, seeding, output shape.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import PIN_SEED, WORKLOADS, clean_stimulus  # noqa: E402

import tpad  # noqa: E402
from tpad import chip as C  # noqa: E402
from tpad import fftced as F  # noqa: E402
from tpad import netlist as N  # noqa: E402
from tpad import switchbox as S  # noqa: E402

PINS = json.loads((HERE / "pins.json").read_text())
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _current_bindings():
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in tracer.patch_targets()}


def _wrapped_leftovers():
    """Names in tpad modules and classes still bound to a tracer wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("tpad"):
            continue
        for name, obj in vars(mod).items():
            if hasattr(obj, "perfbench_span"):
                found.append(f"{mod_name}.{name}")
            if isinstance(obj, type) and obj.__module__.startswith("tpad"):
                found += [f"{mod_name}.{name}.{a}" for a, v in vars(obj).items()
                          if hasattr(v, "perfbench_span")]
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_seed_reproduces_pins_traced_and_untraced(name, tmp_path):
    workload = WORKLOADS[name]
    before = _current_bindings()
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = workload.probe(tmp_path / "plain")
    tr = tracer.Tracer()
    with tr.installed():
        traced = workload.probe(tmp_path / "traced")
    assert plain == traced
    pins, checks, mismatches = plain
    assert pins == PINS[name]
    assert mismatches == 0
    # the traced probe went through the wrappers, and they are all gone
    assert sum(st.calls for st in tr.stats.values()) > 0
    assert _current_bindings() == before
    assert _wrapped_leftovers() == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_changes_inputs(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    a = _inputs(name, workload.setup(PIN_SEED, tmp_path / "a"), monkeypatch)
    b = _inputs(name, workload.setup(PIN_SEED + 1, tmp_path / "b"), monkeypatch)
    assert a != b
    assert _inputs(name, workload.setup(PIN_SEED, tmp_path / "c"), monkeypatch) == a


def _inputs(name, state, monkeypatch):
    """What setup produced from the seed, and what tpad received from it."""
    if name == "chip_run":
        # the session's first stimulus, and the check-bit chains reset() drew
        return (clean_stimulus(state.chip, state.srng, 50), state.chip.initial_prev_in_check,
                state.chip.initial_prev_out_checks)
    if name == "campaign":
        # the seeded dgate targets, and the report of a short campaign
        _, mix, _ = state
        return repr(mix), WORKLOADS[name]._run(state, 20, 0).to_csv()
    if name == "obfuscate":
        # the pass order, and the seeds the scans received over one pass;
        # the tpad calls are stubbed, since only their arguments matter here
        received = []
        monkeypatch.setattr(C, "build_protected_chip", lambda *a, **k: None)
        monkeypatch.setattr(S, "insert_switchboxes", lambda *a, **k: None)
        monkeypatch.setattr(S, "degeneracy_scan",
                            lambda obf, samples, rng_seed: received.append(rng_seed))
        workload = WORKLOADS[name]
        for i in range(workload.PASS):
            workload.prepare(state, i)[1]()
        monkeypatch.undo()
        return state[1], received
    # the clean inputs' generator, and the first flip campaign's verdicts
    _, npr, _ = state
    received = []
    original = F.fft_attack_campaign

    def spy(*args, **kwargs):
        report = original(*args, **kwargs)
        received.append(repr(report))
        return report

    monkeypatch.setattr(F, "fft_attack_campaign", spy)
    first = repr(F.white_noise_input(WORKLOADS[name].N, npr))
    WORKLOADS[name]._job(state, 0, {})
    monkeypatch.undo()
    return first, received


def test_tracer_restores_bindings_after_an_exception():
    before = _current_bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            assert _current_bindings() != before
            raise RuntimeError("boom")
    assert _current_bindings() == before


def test_self_time_excludes_nested_spans():
    tr = tracer.Tracer()
    with tr.installed():
        net = N.random_netlist(6, 20, 3, rng_seed=1)
        S.insert_switchboxes(net, 1, rng_seed=2)
    stats = tr.stats
    insert = stats["build.insert"]
    assert insert.calls == 1
    nested = sum(stats[n].self_s for n in ("build.netlist", "build.compile",
                                           "build.insert.apply", "build.insert.equiv"))
    assert 0 < insert.self_s
    assert nested > 0
    assert stats["cycle.glue"].calls == 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_reports_every_declared_metric(trace, section, tmp_path):
    result = run.run("fft", 3, 0.5, bool(trace), tmp_path)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert tpad.__file__.startswith(str(HERE.parent / "src"))
