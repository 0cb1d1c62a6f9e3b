"""A from-scratch neural-network framework (the PyTorch substitute).

Mind Mappings needs exactly two capabilities from its deep-learning stack:

1. **Phase 1** — train an MLP regressor with back-propagation (weight
   gradients), and
2. **Phase 2** — differentiate the trained MLP *with respect to its input*
   (mapping gradients for projected gradient descent).

This package provides both: a small reverse-mode autograd engine over
numpy arrays (:class:`Tensor`) for training, a graph-free
:meth:`MLP.input_gradient` for Phase 2, layers (:class:`Linear`, activations,
:class:`Sequential`), the paper's three candidate losses (Huber, MSE, MAE —
Figure 7b), SGD with momentum and Adam optimizers, step-decay learning-rate
schedules, and He/Xavier initialization.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn.layers import MLP, Linear, Module, ReLU, Sequential, Tanh
from repro.nn.losses import huber_loss, l1_loss, mse_loss, LOSS_FUNCTIONS
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.schedulers import ConstantLR, StepLR
from repro.nn.init import he_normal, xavier_uniform
from repro.nn.data import minibatches

__all__ = [
    "Adam",
    "ConstantLR",
    "LOSS_FUNCTIONS",
    "Linear",
    "MLP",
    "Module",
    "Optimizer",
    "ReLU",
    "SGD",
    "Sequential",
    "StepLR",
    "Tanh",
    "Tensor",
    "he_normal",
    "huber_loss",
    "l1_loss",
    "minibatches",
    "mse_loss",
    "no_grad",
    "xavier_uniform",
]
