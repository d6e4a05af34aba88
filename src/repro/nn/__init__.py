"""Pure-NumPy neural substrate: layers, optimizers, GNN encoders, RL."""

from .a2c import A2CAgent, A2CConfig, Transition
from .gnn import (
    GATEncoder,
    GCNEncoder,
    GraphEncoder,
    GraphSAGEEncoder,
    IdentityEncoder,
    adjacency_from_edges,
)
from .layers import DTYPE, Dense, Layer, ReLU, Sequential, Tanh, mlp
from .optim import Adam, SGD, clip_grad_norm
from .persistence import CheckpointError, load_params, save_params
from .policy import (
    categorical_entropy,
    masked_log_softmax,
    masked_softmax,
    sample_categorical,
)
from .sac import SACAgent, SACConfig, SACTransition

__all__ = [
    "DTYPE",
    "Layer",
    "Dense",
    "ReLU",
    "Tanh",
    "Sequential",
    "mlp",
    "Adam",
    "SGD",
    "clip_grad_norm",
    "save_params",
    "load_params",
    "CheckpointError",
    "masked_softmax",
    "masked_log_softmax",
    "sample_categorical",
    "categorical_entropy",
    "GraphEncoder",
    "GraphSAGEEncoder",
    "GCNEncoder",
    "GATEncoder",
    "IdentityEncoder",
    "adjacency_from_edges",
    "A2CAgent",
    "A2CConfig",
    "Transition",
    "SACAgent",
    "SACConfig",
    "SACTransition",
]
