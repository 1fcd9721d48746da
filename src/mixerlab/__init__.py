"""Sequence mixing as explicit matrices.

Every mixer here (softmax attention, random-feature linear attention,
selective state-space scans, and their bidirectional combinations) can
be materialized as a T x T matrix acting on the sequence axis, so the
fast recurrent or kernelized form and the dense matrix form can be
checked against each other, classified by off-diagonal block rank, and
compared on equal footing. The package adds the block architecture
built on these mixers, structure and locality diagnostics, runtime
scaling benchmarks, and a CLI that drives all of it reproducibly from
a single seed.
"""

from . import attention, bench, blocks, diagnostics, mixer_core, rng, ssm
from .attention import *
from .bench import *
from .blocks import *
from .cli import ConfigError, RunConfig, main
from .diagnostics import *
from .mixer_core import *
from .rng import *
from .ssm import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *mixer_core.__all__,
    *rng.__all__,
    *attention.__all__,
    *ssm.__all__,
    *blocks.__all__,
    *diagnostics.__all__,
    *bench.__all__,
    "ConfigError",
    "RunConfig",
    "main",
]
