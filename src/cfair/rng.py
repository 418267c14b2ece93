"""Counter-based random number generation.

Every stochastic draw in the toolkit is addressed by an explicit key (master
seed, stream tag, record id, chain/step/draw, variable key, ...) and computed
by hashing the key with the SplitMix64 finisher, so results are bit-identical
for a given seed and independent of iteration or thread order. A record's
key holds its id, its row in the caller's Dataset, so its draws do not depend
on which records are drawn beside it. Variables are keyed by a stable 64-bit
hash of their name, which survives equation surgery: the factual and
counterfactual branches of an audit share noise draws variable-by-variable.
Seeded permutations (the audit subsample, the CLI's train/test split) sort
keyed uniforms, so an index's rank is a function of its key alone.

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

# Stream tags: the key part after the seed that keeps one kind of draw apart
# from the others. Every value is baked into seeded outputs and must not
# change. TAG_SCENARIO shares 11 with TAG_MH: the CLI's scenario seed is
# child_seed(seed, 11) alone, while every MH key also folds record ids and chain.
TAG_MH = 11  # counterfactual: MH chain steps
TAG_INDEP = 12  # counterfactual: prior draws of exogenous variables outside the chain
TAG_EXACT = 13  # counterfactual: joint-normal posterior draws
TAG_PREDICT = 14  # counterfactual: forward pass of counterfactual_sample
TAG_EM = 21  # estimators: E-step chains of fit_level2_latent, one seed per iteration
TAG_SUBSAMPLE = 31  # metrics: subsample of audited records
TAG_BRANCH = 33  # metrics: the paired audits' factual and counterfactual branches
TAG_SUFF = 51  # metrics: prob_sufficiency's forward passes
TAG_ACE = 61  # metrics: ace's forward passes
TAG_SPLIT = 71  # cli: train/test split
TAG_SCENARIO = 11  # cli: scenario seed derived from the master seed

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
    part = np.asarray(part)
    if part.dtype.kind not in "iu":  # a float part would be truncated
        raise TypeError(f"key parts must be integers, got {part.dtype}")
    with np.errstate(over="ignore"):
        part = part.astype(np.uint64) * _GAMMA
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
    draws[None, :] keys a full (rows, draws) block in one call. Each part is
    a Python int or an integer array; any other part raises TypeError.
    """
    return fold_in(_mix(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)), *parts)


def bits_to_uniforms(bits) -> np.ndarray:
    """Map uint64 random bits to uniforms on the open interval (0, 1).

    The largest 53-bit values round to 1.0, so values are capped below 1.
    """
    return np.minimum(((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53),
                      1.0 - 2.0 ** -53)


def uniforms(seed: int, *parts) -> np.ndarray:
    """Uniforms on the open interval (0, 1) for the given key."""
    return bits_to_uniforms(key_bits(seed, *parts))


def normals(seed: int, *parts) -> np.ndarray:
    return ndtri(uniforms(seed, *parts))


def child_seed(seed: int, *parts) -> int:
    """Derive an integer sub-seed; used to key whole sampling passes."""
    return int(key_bits(seed, *parts))

