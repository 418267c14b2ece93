import numpy as np
import pytest
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


def test_top_bits_stay_below_one():
    # the largest 53-bit values round to exactly 1.0 without the cap, and
    # ndtri(1.0) is inf
    bits = np.array([2**64 - 1, 2**64 - 2**11], dtype=np.uint64)
    u = rng.bits_to_uniforms(bits)
    assert np.all(u < 1.0)
    assert np.all(np.isfinite(ndtri(u)))


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


def test_fold_in_leaves_its_state_and_parts_unchanged():
    # _mix mixes in place, on the fresh array each fold makes
    head = rng.key_bits(4, 2, np.arange(3, dtype=np.uint64))
    steps = np.arange(5, dtype=np.uint64)[:, None]
    kept = head.copy(), steps.copy()
    rng.fold_in(head, steps, 7)
    assert np.array_equal(head, kept[0]) and np.array_equal(steps, kept[1])


def test_a_float_key_part_raises_instead_of_truncating():
    # 0.7 would key as part 0
    with pytest.raises(TypeError, match="key parts must be integers"):
        rng.key_bits(1, np.array([0.7]))
    with pytest.raises(TypeError, match="key parts must be integers"):
        rng.fold_in(rng.key_bits(1, 2), 3, 0.5)


def test_a_promoted_row_offset_keys_its_rows_or_raises():
    # uint64 rows plus a numpy int64 offset are float64 under NEP 50
    # promotion (numpy >= 2) and stay uint64 under the value-based rules
    # before it; either way they never key other rows than 5, 6, 7
    rows = np.arange(3, dtype=np.uint64) + np.int64(5)
    if rows.dtype.kind == "f":
        with pytest.raises(TypeError, match="key parts must be integers"):
            rng.key_bits(1, rows)
    else:
        assert np.array_equal(rng.key_bits(1, rows),
                              rng.key_bits(1, np.arange(5, 8, dtype=np.uint64)))


def test_integer_key_parts_of_any_width_key_alike():
    rows = np.arange(4)
    expected = rng.key_bits(9, 2, rows.astype(np.uint64))
    for part in (rows, rows.astype(np.int32), rows.astype(np.uint8)):
        assert np.array_equal(rng.key_bits(9, np.int64(2), part), expected)


def test_name_key_stable_and_injective_enough():
    assert rng.name_key("GPA") == rng.name_key("GPA")
    names = ["A", "B", "X", "Y", "GPA", "LSAT", "FYA", "Employed", "U", "K"]
    keys = {rng.name_key(n) for n in names}
    assert len(keys) == len(names)


def test_child_seed_determinism():
    assert rng.child_seed(5, 1, 2) == rng.child_seed(5, 1, 2)
    assert rng.child_seed(5, 1, 2) != rng.child_seed(5, 1, 3)


def test_stream_tags_are_pinned():
    # every tag is baked into seeded outputs; TAG_SCENARIO = TAG_MH = 11 is the
    # one shared value (the scenario seed is child_seed(seed, 11) alone, MH keys
    # also fold rows and chain)
    tags = {name: value for name, value in vars(rng).items() if name.startswith("TAG_")}
    assert tags == {"TAG_MH": 11, "TAG_INDEP": 12, "TAG_EXACT": 13, "TAG_PREDICT": 14,
                    "TAG_EM": 21, "TAG_SUBSAMPLE": 31, "TAG_BRANCH": 33,
                    "TAG_SUFF": 51, "TAG_ACE": 61, "TAG_SPLIT": 71, "TAG_SCENARIO": 11}
