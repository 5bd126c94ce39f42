"""Randomized parity codes over GF(2).

A code is a systematic parity-check matrix [A | I_r] sampled uniformly from
the set of r x k matrices A with no zero row and no zero column. Check bits
are parities of info-bit subsets; a word verifies iff its stored check bits
equal the recomputed ones. The module also synthesizes the check-bit
predictor as a netlist and estimates detection probability by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .netlist import Bits, Netlist, NetlistBuilder, WidthError, simplify_netlist
from .rng import Rng, as_rng


@dataclass(frozen=True)
class ParityCheckMatrix:
    """The A block of a systematic [A | I_r] parity-check matrix.

    rows[i][j] is the coefficient of info bit j in check bit i.
    """

    rows: tuple[Bits, ...]

    def __post_init__(self):
        # kept as tuples, even if given lists, so the rows can key the kernel caches
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
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

    @property
    def k(self) -> int:
        return len(self.rows[0])

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return self.k + self.r

    def check_bits(self, info: Sequence[int]) -> Bits:
        """Check bits of info; on lane ints (one bit per lane), per lane.

        Runs the matrix compiled to one straight-line function,
        `(v0 ^ v3 ^ ..., ...)` with a width check.
        """
        return _compile_check_bits(self.rows)(info)

    def chain_fn(self) -> Callable[[Sequence[int], Bits], Bits]:
        """chain(info, prev): the check bits of info XOR prev, one tuple expression."""
        return _compile_check_bits(self.rows, True)

    def break_fn(self, subset: tuple[int, ...], width: int
                 ) -> Callable[[Sequence[int], Sequence[int], Bits], int]:
        """breaks(outputs, check, prev): the lanes where check differs from prev
        XOR the check bits of outputs[subset].

        outputs of another width than `width`, or a check of another width
        than r, raise WidthError.
        """
        return _compile_break(self.rows, subset, width)


def _row_parities(rows: Sequence[Bits], names: Sequence[str]) -> list[str]:
    """Each row's parity over the named values, as source: `v0 ^ v3 ^ ...`.

    Rows of a ParityCheckMatrix are nonzero, so no parity is empty.
    """
    return [" ^ ".join(n for n, a in zip(names, row) if a) for row in rows]


def _define(lines: list[str]) -> Callable:
    """The function `kernel` that the generated source `lines` defines."""
    ns = {"WidthError": WidthError}
    exec("\n".join(lines), ns)  # noqa: S102 - generated from a validated 0/1 matrix
    return ns["kernel"]


# Kernels are cached by matrix rows (and subset and width), as
# lfsr._compile_monitor_check caches by spec: equal codes share one kernel.
KERNEL_CACHE_SIZE = 128  # a chip needs a handful, so a process keeps its latest chips'


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _compile_check_bits(rows: tuple[Bits, ...], chained: bool = False) -> Callable:
    k, r = len(rows[0]), len(rows)
    parities = _row_parities(rows, [f"v{j}" for j in range(k)])
    if chained:
        parities = [f"p{i} ^ {par}" for i, par in enumerate(parities)]
    return _define([
        f"def kernel(info{', prev' if chained else ''}):",
        f"    if len(info) != {k}:",
        f"        raise WidthError(f'expected {k} info bits, got {{len(info)}}')",
        f"    {', '.join(f'v{j}' for j in range(k))}, = info",
        *([f"    {', '.join(f'p{i}' for i in range(r))}, = prev"] if chained else []),
        f"    return ({', '.join(parities)},)",
    ])


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _compile_break(rows: tuple[Bits, ...], subset: tuple[int, ...], width: int) -> Callable:
    r = len(rows)
    parities = _row_parities(rows, [f"o{j}" for j in subset])
    return _define([
        "def kernel(outputs, check, prev):",
        f"    if len(outputs) != {width}:",
        f"        raise WidthError(f'expected {width} output values, got {{len(outputs)}}')",
        f"    if len(check) != {r}:",
        "        raise WidthError('receiver chain width mismatch')",
        f"    {', '.join(f'o{j}' for j in range(width))}, = outputs",
        f"    {', '.join(f'c{i}' for i in range(r))}, = check",
        f"    {', '.join(f'p{i}' for i in range(r))}, = prev",
        f"    return {' | '.join(f'(c{i} ^ p{i} ^ {par})' for i, par in enumerate(parities))}",
    ])


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
