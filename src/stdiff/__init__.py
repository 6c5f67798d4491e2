"""Spatial-temporal diffusion graph convolution for traffic speed forecasting.

From-scratch implementation: dense graph matrices, block spatial-temporal
graphs, a tape-based reverse-mode core with hand-derived backward passes,
the iterative compression encoder with a parallel MLP decoder, training,
metrics, and a CLI (``stdiff``).
"""

__version__ = "0.1.0"

from .errors import (ArgumentError, DomainError, FormatError, IdentifierError,
                     NumericError, ShapeError, StdiffError)
from .graph import DistanceRecord, SensorGraph, build_gaussian_adjacency
from .model import CompressedSnapshot, IstdGcnModel, ModelConfig, forward
from .sparse import SparseMatrix, add_self_loops, transition_matrix
from .stgraph import BlockDiffusion, StBlockGraph, build_hstg
from .training import NormStats, TrainConfig, inverse_zscore, train, zscore

__all__ = [
    "ArgumentError", "DomainError", "FormatError", "IdentifierError",
    "NumericError", "ShapeError", "StdiffError",
    "DistanceRecord", "SensorGraph", "build_gaussian_adjacency",
    "CompressedSnapshot", "IstdGcnModel", "ModelConfig", "forward",
    "SparseMatrix", "add_self_loops", "transition_matrix",
    "BlockDiffusion", "StBlockGraph", "build_hstg",
    "NormStats", "TrainConfig", "inverse_zscore", "train", "zscore",
    "__version__",
]
