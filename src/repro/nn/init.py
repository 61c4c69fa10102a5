"""Weight initializers (Kaiming-normal, zeros, ones).

All initializers take an explicit ``numpy.random.Generator`` so model
construction is reproducible; see :mod:`repro.utils.rng`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, new_rng


def _fan_in_out(shape: Sequence[int]) -> Tuple[int, int]:
    """(fan_in, fan_out) for linear (out,in) or conv (N,C,R,S) shapes."""
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2:
        raise ValueError(f"initializer needs >=2-D shape, got {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def kaiming_normal(
    shape: Sequence[int], seed: SeedLike = None, gain: float = np.sqrt(2.0)
) -> np.ndarray:
    """He-normal init: std = gain / sqrt(fan_in) (ReLU default gain)."""
    rng = new_rng(seed)
    fan_in, _ = _fan_in_out(shape)
    std = gain / np.sqrt(fan_in)
    return rng.standard_normal(tuple(shape)) * std


def zeros(shape: Sequence[int]) -> np.ndarray:
    """All-zeros init (biases, BN shift)."""
    return np.zeros(tuple(shape))


def ones(shape: Sequence[int]) -> np.ndarray:
    """All-ones init (BN scale)."""
    return np.ones(tuple(shape))
