"""Randomized parity codes over GF(2).

A code is a systematic parity-check matrix [A | I_r] sampled uniformly from
the set of r x k matrices A with no zero row and no zero column. Check bits
are parities of info-bit subsets; a word verifies iff its stored check bits
equal the recomputed ones. The module also synthesizes the check-bit
predictor as a netlist and estimates detection probability by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .netlist import Bits, Netlist, NetlistBuilder, WidthError, simplify_netlist
from .rng import Rng, as_rng


@dataclass(frozen=True)
class ParityCheckMatrix:
    """The A block of a systematic [A | I_r] parity-check matrix.

    rows[i][j] is the coefficient of info bit j in check bit i.
    """

    rows: tuple[Bits, ...]
    _cols: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ValueError("need at least one row and one column")
        k = len(self.rows[0])
        for row in self.rows:
            if len(row) != k:
                raise ValueError("ragged rows")
            if not any(row):
                raise ValueError("zero row in parity-check matrix")
        for j in range(k):
            if not any(row[j] for row in self.rows):
                raise ValueError(f"zero column {j} in parity-check matrix")
        cols = tuple(tuple(j for j, a in enumerate(row) if a) for row in self.rows)
        object.__setattr__(self, "_cols", cols)

    @property
    def k(self) -> int:
        return len(self.rows[0])

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return self.k + self.r

    def full_rows(self) -> tuple[Bits, ...]:
        """Rows of [A | I_r]."""
        return tuple(
            row + tuple(1 if i == j else 0 for j in range(self.r))
            for i, row in enumerate(self.rows)
        )

    def check_bits(self, info: Sequence[int]) -> Bits:
        """Check bits of info; on lane ints (one bit per lane), per lane."""
        if len(info) != self.k:
            raise WidthError(f"expected {self.k} info bits, got {len(info)}")
        out = []
        for cols in self._cols:
            acc = 0
            for j in cols:
                acc ^= info[j]
            out.append(acc)
        return tuple(out)


def sample_parity_code(k: int, r: int, rng_seed: Rng = None) -> ParityCheckMatrix:
    """Uniform sample over matrices with nonzero rows and columns.

    Columns are drawn uniformly from the 2^r - 1 nonzero vectors; a draw with
    any all-zero row is rejected wholesale and redrawn, which preserves the
    uniform distribution over the constrained set while terminating fast
    (whole-matrix rejection would almost never accept for k >> 2^r).
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    rng = as_rng(rng_seed)
    top = 1 << r
    while True:
        cols = [rng.randrange(1, top) for _ in range(k)]
        union = 0
        for c in cols:
            union |= c
        if union == top - 1:
            rows = tuple(
                tuple((c >> i) & 1 for c in cols) for i in range(r)
            )
            return ParityCheckMatrix(rows)


def build_ocp(f: Netlist, h: ParityCheckMatrix) -> Netlist:
    """Check-bit predictor netlist: a copy of f feeding per-row XOR trees.

    Takes f's inputs, produces r outputs; output i equals the parity of the
    f outputs selected by row i. Constant folding and structural sharing run
    afterwards.
    """
    if len(f.outputs) != h.k:
        raise WidthError(f"function has {len(f.outputs)} outputs, code expects {h.k}")
    b = NetlistBuilder(f"{f.name}.ocp")
    ins = [b.input(f.wire_name(w)) for w in f.inputs]
    fout = b.inline(f, ins)
    checks = []
    for row in h.rows:
        selected = [fout[j] for j, a in enumerate(row) if a]
        checks.append(b.xor_tree(selected))
    b.set_outputs(checks)
    return simplify_netlist(b.build())


def estimate_detection_probability(
    k: int,
    r: int,
    error_weight: int,
    trials: int,
    rng_seed: Optional[int] = None,
) -> float:
    """Monte Carlo detection rate for weight-w errors on random codewords.

    Each trial draws a fresh code, a random codeword, and w distinct flip
    positions over the full n = k + r bits (check bits are fair targets too);
    the trial counts as detected when the corrupted word fails verification.
    """
    n = k + r
    if not 1 <= error_weight <= n:
        raise ValueError(f"error weight must be in 1..{n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    detected = 0
    done = 0
    while done < trials:
        b = min(8192, trials - done)
        cols = rng.integers(1, 1 << r, size=(b, k), dtype=np.int64)
        while True:
            ok = np.ones(b, dtype=bool)
            for i in range(r):
                ok &= ((cols >> i) & 1).any(axis=1)
            bad = ~ok
            nbad = int(bad.sum())
            if nbad == 0:
                break
            cols[bad] = rng.integers(1, 1 << r, size=(nbad, k), dtype=np.int64)
        a = ((cols[:, None, :] >> np.arange(r)[None, :, None]) & 1).astype(np.int32)
        info = rng.integers(0, 2, size=(b, k), dtype=np.int32)
        check = np.matmul(a, info[:, :, None])[:, :, 0] & 1
        word = np.concatenate([info, check], axis=1)
        pos = np.argsort(rng.random((b, n)), axis=1)[:, :error_weight]
        flips = np.zeros((b, n), dtype=np.int32)
        np.put_along_axis(flips, pos, 1, axis=1)
        word ^= flips
        expect = np.matmul(a, word[:, :k, None])[:, :, 0] & 1
        detected += int((expect != word[:, k:]).any(axis=1).sum())
        done += b
    return detected / trials


# -- file format -----------------------------------------------------------------


def format_matrix(h: ParityCheckMatrix) -> str:
    """Header 'k r', then r lines of k bits (column j is info bit j)."""
    lines = [f"{h.k} {h.r}"]
    for row in h.rows:
        lines.append("".join(str(b) for b in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> ParityCheckMatrix:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        k, r = (int(p) for p in lines[0].split())
    except ValueError as e:
        raise ValueError(f"bad matrix header {lines[0]!r}") from e
    if len(lines) != 1 + r:
        raise ValueError(f"expected {r} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln) != k or set(ln) - {"0", "1"}:
            raise ValueError(f"bad matrix row {ln!r}")
        rows.append(tuple(int(c) for c in ln))
    return ParityCheckMatrix(tuple(rows))
