import zlib

import numpy as np
import pytest

from symrec.rng import (
    child_seed,
    child_seeds,
    keyed_streams,
    rng_for,
    standard_complex_normal,
    stream_keys,
)

EDGE_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _seed_sequence(master, *path):
    """numpy's own hash of (master, *path), the reference the port must match:
    a string tag is its CRC-32, an integer tag taken modulo 2^32."""
    words = tuple(
        zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else int(p) & 0xFFFFFFFF
        for p in path
    )
    return np.random.SeedSequence(entropy=int(master) & (2**64 - 1), spawn_key=words)


def _philox_key(master, *path):
    return np.random.Philox(_seed_sequence(master, *path)).state["state"]["key"]


def _reference_rng(master, *path):
    return np.random.Generator(np.random.Philox(_seed_sequence(master, *path)))


def _child_seed(master, *path):
    return int(_seed_sequence(master, *path).generate_state(1, np.uint64)[0])


def _masters():
    draws = np.random.default_rng(4242).integers(0, 2**64 - 1, size=500, dtype=np.uint64)
    return EDGE_MASTERS + [int(m) for m in draws]


# string tags, int tags that _tag masks (negative, >= 2^32), and mixes
PATHS = [
    ("noise-path",),
    (7,),
    (-3,),
    (2**32 + 5,),
    (2**64 + 9, "avg-variance"),
    ("iso", -1),
    (12, "avg-variance", 3),
    ("a", 2**40, "b"),
]


@pytest.mark.parametrize("path", PATHS, ids=[repr(p) for p in PATHS])
def test_batch_keys_equal_the_scalar_streams_for_a_master_array(path):
    masters = _masters()
    keys = stream_keys(masters, *path)
    seeds = child_seeds(masters, *path)
    assert keys.shape == (len(masters), 2) and keys.dtype == np.uint64
    assert seeds.shape == (len(masters),) and seeds.dtype == np.uint64
    for m, key, seed in zip(masters, keys, seeds):
        assert np.array_equal(key, _philox_key(m, *path))
        assert int(seed) == child_seed(m, *path) == _child_seed(m, *path)
        assert np.array_equal(rng_for(m, *path).bit_generator.state["state"]["key"], key)


@pytest.mark.parametrize("master", EDGE_MASTERS + [-1, -(2**70) + 3, -7, 2**63 + 5, 2**70 + 1])
def test_scalar_masters_give_one_key(master):
    key = stream_keys(master, "noise-path")
    assert key.shape == (2,)
    assert np.array_equal(key, _philox_key(master, "noise-path"))
    rng = rng_for(master, "noise-path")
    assert np.array_equal(rng.bit_generator.state["state"]["key"], key)
    assert rng.bit_generator.state["state"]["counter"].tolist() == [0, 0, 0, 0]
    assert int(child_seeds(master, 4, "iso")) == child_seed(master, 4, "iso")
    assert child_seed(master, 4, "iso") == _child_seed(master, 4, "iso")


@pytest.mark.parametrize(
    "length, position", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
)
def test_an_index_array_at_each_path_position(length, position):
    index = np.array([0, 1, 5, -2, 2**32 + 1, 2**31, 77], dtype=np.int64)
    template = ["tag", 9, "other"][:length]
    path = list(template)
    path[position] = index
    for master in (0, 42, 2**64 - 1):
        keys = stream_keys(master, *path)
        seeds = child_seeds(master, *path)
        assert keys.shape == (index.size, 2)
        for i, value in enumerate(index.tolist()):
            scalar = list(template)
            scalar[position] = value
            assert np.array_equal(keys[i], _philox_key(master, *scalar))
            assert int(seeds[i]) == child_seed(master, *scalar) == _child_seed(master, *scalar)


def test_masters_and_indices_broadcast_together():
    masters = np.array([[3], [2**63 + 11]], dtype=np.uint64)
    trials = np.arange(4)
    keys = stream_keys(masters, trials, "nonconv", 2)
    assert keys.shape == (2, 4, 2)
    for a in range(2):
        for t in range(4):
            assert np.array_equal(keys[a, t], _philox_key(int(masters[a, 0]), t, "nonconv", 2))


def test_batch_keys_need_a_path():
    with pytest.raises(ValueError, match="path"):
        stream_keys(42)


def test_switched_generator_draws_the_rng_for_normals():
    path = (17, "avg-variance")
    trials = np.arange(30)
    keys = stream_keys(42, trials, *path)
    streams = keyed_streams(keys)
    for trial, rng in zip(trials.tolist(), streams):
        want = _reference_rng(42, trial, *path).standard_normal(7)
        assert np.array_equal(rng.standard_normal(7), want)
        # leave the Philox buffer part-used, and a 32-bit half word cached,
        # before the next key
        rng.random(5)
        rng.integers(0, 2**32, dtype=np.uint32)
        state = rng.bit_generator.state
        assert state["buffer_pos"] < 4 and state["has_uint32"] == 1


def test_switched_generator_draws_the_rng_for_complex_normals():
    seeds = child_seeds(7, np.arange(12), "ks")
    for seed, rng in zip(seeds.tolist(), keyed_streams(stream_keys(seeds, "noise-path"))):
        want = standard_complex_normal(_reference_rng(seed, "noise-path"), 33)
        assert np.array_equal(standard_complex_normal(rng, 33), want)
        rng.standard_normal(5)
