"""Standalone draws for tests that make their own data, apart from the engine's.

slot_generator(seed, purpose, slot) is a Generator on the Philox keyed
(seed, 0) at counter (0, 0, purpose, slot); complex_normals pairs a
generator's standard normals as (real, imaginary) and scales them by
sqrt(1/2). test_channel pins their values, so the tests drawn from them
keep their data.
"""
import math

import numpy as np


def slot_generator(seed: int, purpose: int, slot: int) -> np.random.Generator:
    key = np.array([seed, 0], dtype=np.uint64)
    counter = np.array([0, 0, purpose, slot], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def complex_normals(gen: np.random.Generator, n: int) -> np.ndarray:
    """n circularly symmetric unit-variance complex normals from gen."""
    return gen.standard_normal(2 * n).view(np.complex128) * math.sqrt(0.5)
