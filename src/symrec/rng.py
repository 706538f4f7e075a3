"""Counter-based random streams keyed by (master seed, purpose, indices).

Every stochastic routine derives its generator from a master seed plus a
stable path of purpose tags and integer indices.  Streams are therefore
independent of execution order and worker count, and a (trial, purpose)
pair always maps to the same Philox counter stream.
"""

from __future__ import annotations

import zlib

import numpy as np


def _tag(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & 0xFFFFFFFF


def seed_sequence(master_seed: int, *path: int | str) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(master_seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=tuple(_tag(p) for p in path),
    )


def rng_for(master_seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the stream identified by (master_seed, *path)."""
    return np.random.Generator(np.random.Philox(seed_sequence(master_seed, *path)))


def child_seed(master_seed: int, *path: int | str) -> int:
    """A 64-bit seed derived deterministically from the stream key."""
    state = seed_sequence(master_seed, *path).generate_state(1, np.uint64)
    return int(state[0])


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
