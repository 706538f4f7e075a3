"""Counter-based random streams keyed by (master seed, purpose, indices).

Every stochastic routine derives its generator from a master seed plus a
stable path of purpose tags and integer indices.  Streams are therefore
independent of execution order and worker count, and a (trial, purpose)
pair always maps to the same Philox counter stream.

A Philox stream is its 128-bit key alone (Salmon et al., SC'11).  The key
is numpy's ``SeedSequence`` hash of the path, ported to uint32 arrays:
``stream_keys`` derives the keys of a whole batch in one vectorised call,
and ``rng_for`` and ``child_seed`` are its one-stream cases.  Many streams
need no generator each: ``keyed_streams`` switches one generator from key
to key.
"""

from __future__ import annotations

import zlib
from typing import Iterator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy's SeedSequence hash (bit_generator.pyx): its constants, a 4-word pool
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_WORDS = 4


def rng_for(master_seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the stream identified by (master_seed, *path)."""
    return np.random.Generator(np.random.Philox(key=stream_keys(master_seed, *path)))


def child_seed(master_seed: int, *path: int | str) -> int:
    """A 64-bit seed derived deterministically from the stream key."""
    return int(child_seeds(master_seed, *path))


# ---------------------------------------------------------------------------
# Batched keys
# ---------------------------------------------------------------------------


def _uint64(values) -> np.ndarray:
    """Integers modulo 2^64, as ``int(v) & 2^64 - 1`` takes them.  An integer
    array is cast (negatives wrap); anything else goes element by element,
    since numpy reads a list of integers above 2^63 as floats."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.uint64)
    as_int = np.frompyfunc(lambda v: int(v) & _MASK64, 1, 1)
    return np.array(as_int(np.asarray(values, dtype=object)), dtype=np.uint64)


def _path_word(part) -> np.ndarray | int:
    """The hash word of a path entry: a string's CRC-32, an integer modulo
    2^32, and an index array element by element."""
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, int):
        return part & _MASK32
    return (_uint64(part) & _MASK32).astype(np.uint32)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> 16)


def _state_words(master_seed, path: tuple) -> tuple[list, tuple]:
    """``SeedSequence(entropy=master_seed mod 2^64, spawn_key=path words)
    .generate_state(4)`` on uint32 arrays, broadcast over a master array and
    index arrays in the path: the words, flat, and the broadcast shape.

    The path is not empty, so the master's words are padded to the pool
    size, as ``SeedSequence`` pads them whenever it has a spawn key; the
    hash runs its multiplier (a Python int) alongside, and every product
    of arrays wraps modulo 2^32 without a warning."""
    if not path:
        raise ValueError("rng: a batched stream key needs a non-empty path")
    master = _uint64(master_seed)
    entropy = np.broadcast_arrays(
        (master & _MASK32).astype(np.uint32),
        (master >> 32).astype(np.uint32),
        *(np.asarray(_path_word(p), dtype=np.uint32) for p in path),
    )
    shape = entropy[0].shape
    words = [w.ravel() for w in entropy]
    zero = np.zeros_like(words[0])
    entropy = words[:2] + [zero] * (_POOL_WORDS - 2) + words[2:]

    mult = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal mult
        value = value ^ np.uint32(mult)
        mult = (mult * _MULT_A) & _MASK32
        value = value * np.uint32(mult)
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hashmix(word))

    out = []
    mult = _INIT_B
    for word in pool:
        value = word ^ np.uint32(mult)
        mult = (mult * _MULT_B) & _MASK32
        value = value * np.uint32(mult)
        out.append(value ^ (value >> 16))
    return out, shape


def _uint64_words(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    return low.astype(np.uint64) | (high.astype(np.uint64) << np.uint64(32))


def stream_keys(master_seed, *path) -> np.ndarray:
    """Philox keys of the streams (master_seed, *path), shape ``(..., 2)``
    uint64: the master and any path entry may be index arrays, broadcast
    together, and each key is the two uint64 words ``SeedSequence``'s
    ``generate_state`` gives for that element.  The path must not be empty."""
    w, shape = _state_words(master_seed, path)
    keys = np.stack([_uint64_words(w[0], w[1]), _uint64_words(w[2], w[3])], axis=-1)
    return keys.reshape(shape + (2,))


def child_seeds(master_seed, *path) -> np.ndarray:
    """``child_seed`` for each element of broadcast index arrays, as uint64.
    It is the first word of the Philox key (``generate_state`` yields the
    same leading words whatever their count)."""
    return stream_keys(master_seed, *path)[..., 0]


def keyed_streams(keys) -> Iterator[np.random.Generator]:
    """One Philox generator, switched in turn to the start of each stream
    in ``keys`` (rows of ``stream_keys``): the k-th one yielded draws what
    ``Generator(Philox(key=keys[k]))`` draws, whatever the previous stream
    left in its buffer.  The same object is yielded each time, so use it
    before the next.  Setting its state costs a few microseconds, where a
    generator seeded from a ``SeedSequence`` costs about 30."""
    generator = np.random.Generator(np.random.Philox(key=0))
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in np.asarray(keys, dtype=np.uint64).reshape(-1, 2).tolist():
        state["state"]["key"] = key
        generator.bit_generator.state = state
        yield generator


def standard_complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Circularly symmetric complex Gaussians with E|z|^2 = 1, E z^2 = 0."""
    parts = rng.standard_normal((2, size))
    return (parts[0] + 1j * parts[1]) / np.sqrt(2.0)


def complex_normal_dot(rng: np.random.Generator, u: np.ndarray) -> complex:
    """u @ standard_complex_normal(rng, u.size) for a real vector u.

    Same draws, so the complex array is never built.  Both parts are
    contracted by one ``(2, n) @ u`` product.  OpenBLAS threads a vector
    dot product above 10,000 entries, so worker threads that each call one
    contend for its threads, and its sum depends on the BLAS thread count.
    This product's sum did not, on the OpenBLAS that numpy bundles
    (``test_functionals_do_not_depend_on_the_blas_thread_count``).
    """
    re, im = rng.standard_normal((2, u.size)) @ u
    return complex(re, im) / np.sqrt(2.0)
