"""Counter-based random number generation.

Every stochastic draw in the toolkit is addressed by an explicit key
(master seed, stream tag, record/row index, variable key, ...) and computed
by hashing the key with the SplitMix64 finisher, so results are bit-identical
for a given seed and independent of iteration or thread order. Variables are
keyed by a stable 64-bit hash of their name, which survives equation surgery:
the factual and counterfactual branches of an audit share noise draws
variable-by-variable.

All transforms consume exactly one uniform per value (inverse CDF), keeping
the key -> value map one-to-one.

Because a value depends on its key alone, a long stream can be drawn in
blocks: hash the fixed head of the key once with key_bits, then fold_in a
broadcast block of the remaining parts. fold_in(key_bits(seed, *head), *tail)
equals key_bits(seed, *head, *tail) bit for bit, so the MH sampler folds
(step, slot) blocks onto a per-chain state instead of hashing the whole key
once per step (Salmon et al. 2011, "Parallel random numbers: as easy as
1, 2, 3").
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import ndtri

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(x):
    """SplitMix64 finisher, vectorised over uint64 arrays (wrapping multiply)."""
    x = np.asarray(x, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= _M1
        x ^= x >> np.uint64(27)
        x *= _M2
        x ^= x >> np.uint64(31)
    return x


def name_key(name: str) -> int:
    """Stable 64-bit key for a variable name (independent of PYTHONHASHSEED)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _fold(state, part):
    with np.errstate(over="ignore"):
        part = np.asarray(part).astype(np.uint64) * _GAMMA
        return _mix(state ^ part)


def fold_in(state, *parts) -> np.ndarray:
    """Continue a key: fold further parts onto a state returned by key_bits.

    Parts broadcast against the state and each other as in key_bits.
    """
    for part in parts:
        state = _fold(state, part)
    return state


def key_bits(seed: int, *parts) -> np.ndarray:
    """Hash (seed, *parts) into uint64 random bits.

    Parts combine under numpy broadcasting, so rows[:, None] with
    draws[None, :] keys a full (rows, draws) block in one call.
    """
    return fold_in(_mix(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)), *parts)


def bits_to_uniforms(bits) -> np.ndarray:
    """Map uint64 random bits to uniforms on the open interval (0, 1)."""
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def uniforms(seed: int, *parts) -> np.ndarray:
    """Uniforms on the open interval (0, 1) for the given key."""
    return bits_to_uniforms(key_bits(seed, *parts))


def normals(seed: int, *parts) -> np.ndarray:
    return ndtri(uniforms(seed, *parts))


def child_seed(seed: int, *parts) -> int:
    """Derive an integer sub-seed; used to key whole sampling passes."""
    return int(key_bits(seed, *parts))


def generator(seed: int, *parts) -> np.random.Generator:
    """A numpy Generator on an independent stream keyed by (seed, *parts)."""
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
                                spawn_key=tuple(int(p) & 0xFFFFFFFFFFFFFFFF for p in parts))
    return np.random.Generator(np.random.PCG64(ss))
