"""From-scratch neural network substrate (the PyTorch 0.4 substitute).

The paper trains its micro models with PyTorch and calls them from C++
via ATEN.  This environment has neither, so this package implements the
required machinery directly on numpy:

* :class:`Linear` — fully connected layers (the paper's two heads).
* :class:`LSTM` — multi-layer LSTM with full backpropagation through
  time, plus a stateful single-step mode used during simulation.
* Losses — :class:`BCEWithLogitsLoss`, :class:`MSELoss`, and the
  paper's joint loss ``L = L_drop + alpha * L_latency`` with the rule
  that dropped packets propagate no latency error
  (:class:`JointDropLatencyLoss`).
* Optimizers — :class:`SGD` (with momentum, the paper's choice) and
  :class:`Adam` (used by ablations), with gradient clipping.
* Utilities — parameter containers, serialization, batching,
  standardization, and numerical gradient checking.

Every array convention in this package: sequences are shaped
``(T, B, F)`` — time steps, batch, features; single steps are ``(B, F)``.
"""

from repro.nn.module import Module, Parameter
from repro.nn.activations import relu, relu_grad, sigmoid, sigmoid_grad, tanh_grad
from repro.nn.linear import Linear
from repro.nn.lstm import LSTM, LSTMCell, LSTMState
from repro.nn.losses import BCEWithLogitsLoss, JointDropLatencyLoss, MSELoss
from repro.nn.optim import SGD, Adam, clip_gradients
from repro.nn.data import BatchIterator, Standardizer, make_sequences
from repro.nn.selective import SelectiveLinear
from repro.nn.serialize import load_module_state, save_module_state

__all__ = [
    "Adam",
    "BCEWithLogitsLoss",
    "BatchIterator",
    "JointDropLatencyLoss",
    "LSTM",
    "LSTMCell",
    "LSTMState",
    "Linear",
    "MSELoss",
    "Module",
    "Parameter",
    "SGD",
    "SelectiveLinear",
    "Standardizer",
    "clip_gradients",
    "load_module_state",
    "make_sequences",
    "relu",
    "relu_grad",
    "save_module_state",
    "sigmoid",
    "sigmoid_grad",
    "tanh_grad",
]
