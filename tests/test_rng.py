import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from cfair import rng


def test_same_key_same_stream():
    rows = np.arange(64, dtype=np.uint64)
    a = rng.uniforms(7, 3, rows)
    b = rng.uniforms(7, 3, rows)
    assert np.array_equal(a, b)


def test_any_part_change_decorrelates():
    rows = np.arange(1024, dtype=np.uint64)
    base = rng.uniforms(7, 3, rows)
    for other in (rng.uniforms(8, 3, rows), rng.uniforms(7, 4, rows),
                  rng.uniforms(7, 3, rows + 1)):
        assert not np.array_equal(base, other)
        assert abs(np.corrcoef(base, other)[0, 1]) < 0.1


def test_uniforms_support_and_mean():
    u = rng.uniforms(11, np.arange(200_000, dtype=np.uint64))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_normals_moments():
    z = rng.normals(11, np.arange(200_000, dtype=np.uint64))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_broadcast_matches_scalar_keys():
    rows = np.arange(5, dtype=np.uint64)
    vec = rng.uniforms(3, 9, rows)
    scalars = np.array([rng.uniforms(3, 9, int(i))[()] for i in rows])
    assert np.array_equal(vec, scalars)


@given(seed=st.integers(0, 2**64 - 1), tag=st.integers(0, 100), chain=st.integers(0, 3),
       n_rows=st.integers(1, 5), first=st.integers(0, 10**6), n_steps=st.integers(1, 6),
       n_slots=st.integers(1, 4))
def test_fold_in_block_matches_per_call_keys(seed, tag, chain, n_rows, first, n_steps, n_slots):
    # the MH sampler's block keying: one (rows, steps, slots) fold onto the
    # per-chain state must equal hashing every (row, step, slot) key in full
    rows = np.arange(n_rows, dtype=np.uint64)
    steps = np.arange(first, first + n_steps, dtype=np.uint64)
    slots = np.arange(n_slots, dtype=np.uint64)
    head = rng.key_bits(seed, tag, rows, chain)
    block = rng.fold_in(head[:, None, None], steps[None, :, None], slots[None, None, :])
    assert block.shape == (n_rows, n_steps, n_slots)
    u = rng.bits_to_uniforms(block)
    z = ndtri(u)
    for i, step in enumerate(range(first, first + n_steps)):
        for slot in range(n_slots):
            assert np.array_equal(block[:, i, slot], rng.key_bits(seed, tag, rows, chain, step, slot))
            assert np.array_equal(u[:, i, slot], rng.uniforms(seed, tag, rows, chain, step, slot))
            assert np.array_equal(z[:, i, slot], rng.normals(seed, tag, rows, chain, step, slot))


def test_fold_in_without_parts_is_the_state():
    head = rng.key_bits(4, 2, np.arange(3, dtype=np.uint64))
    assert np.array_equal(rng.fold_in(head), head)


def test_name_key_stable_and_injective_enough():
    assert rng.name_key("GPA") == rng.name_key("GPA")
    names = ["A", "B", "X", "Y", "GPA", "LSAT", "FYA", "Employed", "U", "K"]
    keys = {rng.name_key(n) for n in names}
    assert len(keys) == len(names)


def test_child_seed_and_generator_determinism():
    assert rng.child_seed(5, 1, 2) == rng.child_seed(5, 1, 2)
    assert rng.child_seed(5, 1, 2) != rng.child_seed(5, 1, 3)
    p1 = rng.generator(5, 71).permutation(10)
    p2 = rng.generator(5, 71).permutation(10)
    assert np.array_equal(p1, p2)
