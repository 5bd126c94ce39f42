"""Multi-chip system simulation with encoded channels and trusted monitors.

Chips run in lockstep on one clock. Each directed channel carries a subset
of the sender's outputs plus that subset's chained check bits, with one
cycle of latency through a channel register. Wires between chips are
trusted, so a corrupted channel value is attributed to the sending chip's
pads. Receivers share the sender's code and starting check bits (the
trusted system assembler distributes both). Every chip's error signal
feeds its own mirror monitor; terminal outputs are decoded by a trusted
harness receiver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from .attacks import AttackDescriptor, compile_attack
from .chip import (
    ChipOptions,
    OutputReceiver,
    ProtectedChip,
    StimulusEncoder,
    build_protected_chip,
)
from .lfsr import LfsrSpec
from .netlist import Netlist, serialize_netlist
from .parity import format_matrix
from .rng import Rng, as_rng, random_bits


@dataclass(frozen=True)
class Channel:
    sender: int
    receiver: int
    subset_index: int = 0


@dataclass
class SystemTopology:
    chips: list[ProtectedChip]
    channels: list[Channel]

    def __post_init__(self):
        seen_rx: set[int] = set()
        for ch in self.channels:
            if not (0 <= ch.sender < len(self.chips) and 0 <= ch.receiver < len(self.chips)):
                raise ValueError("channel endpoint out of range")
            if ch.receiver in seen_rx:
                raise ValueError(f"chip {ch.receiver} has more than one input channel")
            seen_rx.add(ch.receiver)
            sender = self.chips[ch.sender]
            receiver = self.chips[ch.receiver]
            subset, code = sender.out_codes[ch.subset_index]
            if len(subset) != len(receiver.f.inputs):
                raise ValueError(
                    f"channel {ch.sender}->{ch.receiver} width {len(subset)} "
                    f"does not match receiver input count {len(receiver.f.inputs)}"
                )
            if code.rows != receiver.h_in.rows:
                raise ValueError(
                    f"receiver {ch.receiver} must use the sender's output code"
                )

    @property
    def source_chips(self) -> list[int]:
        fed = {ch.receiver for ch in self.channels}
        return [i for i in range(len(self.chips)) if i not in fed]

    @property
    def terminal_chips(self) -> list[int]:
        feeding = {ch.sender for ch in self.channels}
        return [i for i in range(len(self.chips)) if i not in feeding]


def build_pipeline_system(
    functions: Sequence[Netlist],
    r: int,
    t: int,
    lfsr_spec: LfsrSpec,
    rng_seed: Rng = None,
) -> SystemTopology:
    """Chain of chips where each consumes the full outputs of the previous.

    Adjacent functions must have matching output/input counts. Receivers
    are built with the sender's output code as their input code, the
    shared-encoding rule for a shared output subset.
    """
    rng = as_rng(rng_seed)
    chips: list[ProtectedChip] = []
    for f in functions:
        opt = ChipOptions(h_in=chips[-1].out_codes[0][1] if chips else None)
        chips.append(build_protected_chip(f, r, t, lfsr_spec, rng.getrandbits(64), opt))
    return SystemTopology(chips, [Channel(i - 1, i, 0) for i in range(1, len(chips))])


@dataclass
class RunReport:
    cycles: int
    monitor_fires: list[list[int]]
    terminal_decode_fires: list[int]
    first_detection: Optional[int]
    config_digest: str


def config_digest(topology: SystemTopology) -> str:
    """Hash of everything needed to reconstruct the run configuration."""
    import hashlib
    import json

    payload = {"chips": [], "extra": {}}  # "extra" keeps earlier digests valid
    for chip in topology.chips:
        payload["chips"].append(
            {
                "function": serialize_netlist(chip.f),
                "logic_code": format_matrix(chip.h_logic),
                "input_code": format_matrix(chip.h_in),
                "output_codes": [format_matrix(c) for _, c in chip.out_codes],
                "lfsr": [chip.lfsr_spec.degree, chip.lfsr_spec.poly,
                         chip.lfsr_spec.seed, list(chip.lfsr_spec.taps)],
                "pipeline": chip.options.pipeline_stages,
            }
        )
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_system(
    topology: SystemTopology,
    attacks: Sequence[tuple[int, AttackDescriptor]],
    cycles: int,
    rng_seed: Rng = None,
) -> RunReport:
    """Lockstep simulation; channels add one cycle of latency.

    The source chips get random raw input bits. Attacks are (chip_index,
    descriptor) pairs, compiled from the run's rng for `cycles` and installed
    before it. The report holds each monitor's firing cycles plus the trusted
    decode verdicts on terminal chip outputs. `cycles` below 1 is refused
    before any draw. The loop is not `chip.closed_loop`: only source chips
    have a trusted sender and only terminal chips a trusted receiver.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    rng = as_rng(rng_seed)
    chips = topology.chips
    session = rng.getrandbits(64)
    for i, chip in enumerate(chips):
        chip.reset(session * 1000003 + i)
    for idx, atk in attacks:
        chips[idx].install_attack(compile_attack(chips[idx], atk, rng, cycles))

    # trusted key distribution: receivers inherit the sender's chain start;
    # regs[i] is chip i's input channel register, written a cycle before it is read
    regs: list = [None] * len(chips)
    outgoing: list[list] = [[] for _ in chips]  # (receiver, word getter, subset index)
    for ch in topology.channels:
        sender = chips[ch.sender]
        start = sender.initial_prev_out_checks[ch.subset_index]
        chips[ch.receiver].sync_input_chain(start)
        subset = sender.out_codes[ch.subset_index][0]
        regs[ch.receiver] = ((0,) * len(subset), start)
        word = itemgetter(*subset) if len(subset) > 1 else lambda out, j=subset[0]: (out[j],)
        outgoing[ch.sender].append((ch.receiver, word, ch.subset_index))
    sources, terminals = set(topology.source_chips), set(topology.terminal_chips)
    plan = [
        (i, chip, StimulusEncoder(chip) if i in sources else None, len(chip.f.inputs),
         OutputReceiver(chip) if i in terminals else None, outgoing[i])
        for i, chip in enumerate(chips)
    ]
    stim_rng = random.Random(rng.getrandbits(64))

    monitor_fires: list[list[int]] = [[] for _ in chips]
    terminal_fires: list[int] = []
    first_detection: Optional[int] = None

    incoming = regs.copy()
    for cyc in range(cycles):
        for i, chip, encoder, m, receiver, sends in plan:
            if encoder is not None:
                x = tuple(random_bits(stim_rng, m))
                rc = encoder.send(x)
            else:
                x, rc = regs[i]
            res = chip.cycle(x, rc)
            fired = res.monitor_attack
            if receiver is not None and receiver.receive(res.outputs, *res.out_checks):
                terminal_fires.append(cyc)
                fired = True
            if res.monitor_attack:
                monitor_fires[i].append(cyc)
            if fired and first_detection is None:
                first_detection = cyc
            for rx, word, s in sends:
                incoming[rx] = (word(res.outputs), res.out_checks[s])
        regs, incoming = incoming, regs

    return RunReport(
        cycles, monitor_fires, terminal_fires, first_detection, config_digest(topology)
    )
