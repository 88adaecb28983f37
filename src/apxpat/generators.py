"""Deterministic test-input generators.

All randomness comes from a splitmix64 stream seeded by the caller, with
the 53-bit mantissa-fill mapping to [0, 1); outputs are therefore
bit-identical across runs and platforms.  The stream's m-th state is
seed + m*gamma mod 2^64, so ``_kernels.splitmix64_block`` draws a whole
run of it as one uint64 array: the jittered lattice takes all of its
n*d words in one block, and dart throwing takes its candidates in blocks
of rows, each decided in numpy against the accepted points through the
separation audit's grid hash.  Dart throwing is sequential in effect: a
candidate is accepted iff no earlier accepted point is within delta, so
the output is that of throwing one candidate at a time.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .bounds import ball_volume
from .errors import InfeasibleGeneration
from .geometry import PointSet

__all__ = ["gen_random_separated", "gen_jittered_lattice", "gen_adversarial_ap3"]

_ATTEMPT_FACTOR = 1_000_000


def gen_random_separated(
    d: int, length: float, delta: float, target_count: int, seed: int
) -> PointSet:
    """Dart throwing: uniform candidates in [0, length)^d, accepted while
    keeping the set delta-separated, until target_count points stand.

    Raises InfeasibleGeneration when the count cannot pack by volume, and
    when the run ends short of it: after 10^6 attempts per point, or as
    soon as the accepted points provably fill the box (every candidate
    would be within delta of one of them), which a small box reaches
    quickly."""
    if int(d) != d or d < 1:
        raise ValueError("dimension must be a positive integer")
    d = int(d)
    length = float(length)
    delta = float(delta)
    if not (0.0 < length < math.inf and 0.0 < delta < math.inf):
        raise ValueError("length and delta must be positive and finite")
    target_count = int(target_count)
    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    if not _packs(target_count, d, length, delta):
        raise InfeasibleGeneration(
            f"{target_count} balls of radius {delta / 2:g} cannot pack into "
            f"side {length:g} plus slack"
        )
    flat, attempts = _kernels.dart_throw(
        d, length, delta, target_count, int(seed), _ATTEMPT_FACTOR * target_count
    )
    n = len(flat) // d
    if n < target_count:
        raise InfeasibleGeneration(
            f"accepted only {n}/{target_count} points after {attempts} attempts"
        )
    return PointSet(d, np.reshape(flat, (n, d)))


def _packs(count: int, d: int, length: float, delta: float) -> bool:
    """Whether count balls of radius delta/2 fit, by volume, into the cube
    of side length + delta.  Both lengths are first scaled by one power of
    two into the unit range, exactly, so neither volume leaves the float
    range at any scale; a count past the float range does not pack."""
    length, delta = _kernels._to_unit(np.array([length, delta]))[0].tolist()
    try:
        return count * ball_volume(d, delta / 2.0) <= (length + delta) ** d
    except OverflowError:
        return False


def gen_jittered_lattice(d: int, length: float, jitter: float, seed: int) -> PointSet:
    """One point per unit cell of the integer lattice in [0, length)^d,
    placed at the cell center plus uniform jitter in [-jitter, jitter]^d.

    The output is (1 - 2*jitter)-separated and every unit cell is occupied.
    """
    if int(d) != d or d < 1:
        raise ValueError("dimension must be a positive integer")
    d = int(d)
    length = float(length)
    if not (1.0 <= length < math.inf):
        raise ValueError("length must be finite and >= 1")
    jitter = float(jitter)
    if not (0.0 <= jitter < 0.5):
        raise ValueError("jitter must lie in [0, 0.5)")
    # Cells in lexicographic order, axis order within a cell: the stream's
    # fixed layout.  Each statement below allocates n*d values.
    try:
        cells = np.indices((int(length),) * d).reshape(d, -1).T
        words, _ = _kernels.splitmix64_block(seed, cells.size)
        u = _kernels.unit_from_bits(words).reshape(cells.shape)
        return PointSet(d, cells + 0.5 + (2.0 * u - 1.0) * jitter)
    except MemoryError:
        raise InfeasibleGeneration(
            f"a lattice of {int(length)}^{d} points does not fit in memory"
        ) from None


def gen_adversarial_ap3(n: int, variant: str, eps: float | None = None) -> PointSet:
    """Geometric sequences in (0, 1] with no eps-approximate 3-term AP.

    variant "xi": {xi^i} with xi = 1/3 - eps, valid for 0 <= eps < 1/3.
    variant "eighth": {8^-i}, valid for every eps <= 1/4 (eps is ignored).
    n may not exceed the number of terms that are distinct positive floats
    (359 for "eighth"); a larger n raises ValueError.
    """
    if int(n) != n or n < 3:
        raise ValueError("n must be an integer >= 3")
    n = int(n)
    if variant == "xi":
        if eps is None or not (0.0 <= eps < 1.0 / 3.0):
            raise ValueError("variant 'xi' needs eps in [0, 1/3)")
        xi = 1.0 / 3.0 - float(eps)
        vals = [xi**i for i in range(n)]
    elif variant == "eighth":
        vals = [8.0**-i for i in range(n)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # The terms fall to subnormals and then to 0: past that they repeat.
    distinct = len(set(vals) - {0.0})
    if distinct < n:
        raise ValueError(f"only {distinct} terms of variant {variant!r} "
                         f"are distinct positive floats; n={n} is too many")
    return PointSet(1, np.reshape(vals, (n, 1)))
