"""Deterministic random number streams.

All randomness in the package flows through counter-based Philox
generators built here, so any result is reproducible from a 64-bit seed
alone. Distinct logical streams (per head, per trial, per subcommand)
are derived from the same seed via spawn keys instead of ad-hoc seed
arithmetic. Cross-language bit-exactness is not a goal; the generator
family and the stream derivation are documented so the distributional
behavior can be matched elsewhere.
"""

from __future__ import annotations

import numpy as np

from .mixer_core import _is_int

__all__ = ["make_rng", "derive_seed"]


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a Philox generator for ``seed``, on the given logical stream.

    ``make_rng(seed)`` is the root stream; ``make_rng(seed, k, ...)``
    yields independent substreams for the same seed.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, stream)))


def derive_seed(seed: int, *stream: int) -> int:
    """Derive a child 64-bit seed for the given logical stream.

    Used where an API takes a plain integer seed (feature-matrix draws)
    but the caller owns one root seed and needs reproducible per-item
    children.
    """
    return int(_seed_sequence(seed, stream).generate_state(1, np.uint64)[0])


def _seed_sequence(seed: int, stream: tuple) -> np.random.SeedSequence:
    if not _is_int(seed):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
