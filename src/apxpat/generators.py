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

import numpy as np

from . import _kernels
from .bounds import ball_volume, check_dim, check_real, check_whole, fits_in_memory
from .errors import InfeasibleGeneration, InvalidArgument
from .geometry import PointSet

__all__ = ["gen_random_separated", "gen_jittered_lattice", "gen_adversarial_ap3"]

_ATTEMPT_FACTOR = 1_000_000
# base**i is 0.0 from i = 679 on for every base <= 1/3 (3**-679 < 2**-1076),
# so no adversarial sequence has more distinct positive terms than this.
_MAX_TERMS = 680


def gen_random_separated(
    d: int, length: float, delta: float, target_count: int, seed: int
) -> PointSet:
    """Dart throwing: uniform candidates in [0, length)^d, accepted while
    keeping the set delta-separated, until target_count points stand.

    Raises InfeasibleGeneration when the count cannot pack by volume or
    its points would not fit in memory, and when the run ends short of it:
    after 10^6 attempts per point, or as soon as the accepted points
    provably fill the box (every candidate would be within delta of one of
    them), which a small box reaches quickly."""
    d = check_dim(d)
    length, delta = (check_real(v, "(0, inf)", "length and delta must be positive and finite")
                     for v in (length, delta))
    target_count = check_whole(target_count, 1, "target_count", "target_count must be >= 1")
    seed = check_whole(seed, -np.inf, "seed", "seed must be an integer")
    if not _packs(target_count, d, length, delta):
        raise InfeasibleGeneration(
            f"{target_count} balls of radius {delta / 2:g} cannot pack into "
            f"side {length:g} plus slack"
        )
    if not fits_in_memory(8 * d * target_count):
        raise InfeasibleGeneration(f"{target_count} points of dimension {d} do not fit in memory")
    flat, attempts = _kernels.dart_throw(
        d, length, delta, target_count, seed, _ATTEMPT_FACTOR * target_count
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
    Raises InfeasibleGeneration when its points do not fit in memory.
    """
    d = check_dim(d)
    length = check_real(length, "[1, inf)", "length must be finite and >= 1")
    jitter = check_real(jitter, "[0, 0.5)", "jitter must lie in [0, 0.5)")
    seed = check_whole(seed, -np.inf, "seed", "seed must be an integer")
    side = int(length)
    too_big = f"a lattice of {side}^{d} points does not fit in memory"
    if not fits_in_memory(8 * d * side**d):
        raise InfeasibleGeneration(too_big)
    # Cells in lexicographic order, axis order within a cell: the stream's
    # fixed layout.  Each statement below allocates n*d values.
    try:
        cells = np.indices((side,) * d).reshape(d, -1).T
        words, _ = _kernels.splitmix64_block(seed, cells.size)
        u = _kernels.unit_from_bits(words).reshape(cells.shape)
        return PointSet(d, cells + 0.5 + (2.0 * u - 1.0) * jitter)
    except MemoryError:
        raise InfeasibleGeneration(too_big) from None


def gen_adversarial_ap3(n: int, variant: str, eps: float | None = None) -> PointSet:
    """Geometric sequences in (0, 1] with no eps-approximate 3-term AP.

    variant "xi": {xi^i} with xi = 1/3 - eps, valid for 0 <= eps < 1/3.
    variant "eighth": {8^-i}, valid for every eps <= 1/4 (eps is ignored).
    n may not exceed the number of terms that are distinct positive floats
    (359 for "eighth"); a larger n raises InvalidArgument, before more than
    _MAX_TERMS terms are computed.
    """
    n = check_whole(n, 3, "n")
    terms = range(min(n, _MAX_TERMS))
    if variant == "xi":
        xi = 1.0 / 3.0 - check_real(eps, "[0, 1/3)", "variant 'xi' needs eps in [0, 1/3)")
        vals = [xi**i for i in terms]
    elif variant == "eighth":
        vals = [8.0**-i for i in terms]
    else:
        raise InvalidArgument(f"unknown variant {variant!r}")
    # The terms fall to subnormals and then to 0: past that they repeat.
    distinct = len(set(vals) - {0.0})
    if distinct < n:
        raise InvalidArgument(f"only {distinct} terms of variant {variant!r} "
                              f"are distinct positive floats; n={n} is too many")
    return PointSet(1, np.reshape(vals, (n, 1)))
