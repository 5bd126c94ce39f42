"""Gate-netlist laboratory for Trojan-resistant chip checking.

Core pieces: a netlist IR with equivalence checking, randomized parity
codes over GF(2) and their predictor synthesis, randomized switchbox
obfuscation, LFSR-keyed error encoding, a protected-chip simulator with an
attack-injection harness, and a half-precision FFT with a Plancherel
identity checker.
"""

from .netlist import (
    Netlist,
    NetlistBuilder,
    check_equivalence,
    parse_netlist,
    random_netlist,
    serialize_netlist,
    simplify_netlist,
)
from .parity import (
    ParityCheckMatrix,
    build_ocp,
    estimate_detection_probability,
    sample_parity_code,
)
from .switchbox import (
    ObfuscatedNetlist,
    Switchbox,
    apply_config,
    degeneracy_scan,
    insert_switchboxes,
)
from .lfsr import (
    ErrorMonitor,
    LfsrSpec,
    is_primitive,
    lfsr_taps,
    step_lfsr,
)
from .ram import ProtectedRam
from .chip import (
    ChipOptions,
    ProtectedChip,
    build_protected_chip,
    load_chip_bundle,
    save_chip_bundle,
)
from .attacks import (
    AttackDescriptor,
    DetectionReport,
    cp_attack_probability,
    decoupling_cost,
    destructive_detection_probability,
    per_sb_attack_probability,
    run_campaign,
    simulate_destructive_sampling,
    subcircuit_match_attack,
)
from .fftced import (
    FftCedEngine,
    PlancherelReference,
    calibrate_threshold,
    fft,
    fft_attack_campaign,
    plancherel_check,
    reference_selftest,
)
from .system import Channel, RunReport, SystemTopology, build_pipeline_system, run_system

__version__ = "0.1.0"
