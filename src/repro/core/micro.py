"""The micro model: a two-layer LSTM with drop and latency heads.

Section 4.2: the LSTM's "multi-dimensional hidden state output ... is
given to one fully connected layer to predict the latency and another
fully connected layer to predict packet drop.  This is superior to
training two separate models as the neural network representation can
learn the joint distribution of drops and latency."  The paper's
prototype "uses a two-layer LSTM with 128 hidden nodes"; those are the
defaults here.

Latency is regressed in standardized log-space: region latencies span
from a few microseconds (empty cut-through) to milliseconds (deep
queues + retransmission pressure), and a linear-space MSE would let the
tail dominate.  The transform lives with the model (in
:class:`~repro.core.training.TrainedClusterModel`) so inference
inverts it consistently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.linear import Linear
from repro.nn.selective import SelectiveLinear
from repro.nn.lstm import LSTM, LSTMState
from repro.nn.module import Module
from repro.core.features import FEATURE_COUNT


@dataclass(frozen=True)
class MicroModelConfig:
    """Architecture and training hyper-parameters.

    Defaults follow Section 4.2 exactly where the paper specifies them:
    two LSTM layers, 128 hidden nodes, SGD with learning rate 1e-4 and
    momentum 0.9, batch size 64, and the joint loss weight
    ``0 < alpha <= 1``.  ``train_batches`` is the scaled-down knob: the
    paper trains ">50,000 batches" on a Tesla P100; numpy on CPU is
    ~50x slower per step, so defaults are modest and experiments can
    raise it.
    """

    input_size: int = FEATURE_COUNT
    hidden_size: int = 128
    num_layers: int = 2
    heads: str = "shared"
    alpha: float = 0.5
    learning_rate: float = 1e-4
    momentum: float = 0.9
    batch_size: int = 64
    window: int = 32
    train_batches: int = 400
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_size < 1 or self.num_layers < 1:
            raise ValueError("hidden_size and num_layers must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.window < 1 or self.batch_size < 1 or self.train_batches < 0:
            raise ValueError("window, batch_size must be >= 1; train_batches >= 0")
        if self.heads not in ("shared", "per_macro"):
            raise ValueError(
                f"heads must be 'shared' or 'per_macro', got {self.heads!r}"
            )


class MicroModel(Module):
    """LSTM trunk with fully connected drop and latency heads."""

    def __init__(self, config: MicroModelConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.lstm = LSTM(
            config.input_size, config.hidden_size, config.num_layers, rng, name="trunk"
        )
        if config.heads == "per_macro":
            # Hierarchical coupling (Section 7): one head per macro
            # congestion state, hard-routed by the macro classifier.
            self.drop_head = SelectiveLinear(
                config.hidden_size, 4, rng, name="drop_head"
            )
            self.latency_head = SelectiveLinear(
                config.hidden_size, 4, rng, name="latency_head"
            )
        else:
            self.drop_head = Linear(config.hidden_size, 1, rng, name="drop_head")
            self.latency_head = Linear(config.hidden_size, 1, rng, name="latency_head")

    # ------------------------------------------------------------------
    # Training path (batched sequences)
    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, macro_index: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run a window batch ``(T, B, F)``.

        ``macro_index`` (ints, ``(T, B)``) routes the per-macro heads
        and is required when ``config.heads == "per_macro"``.  Returns
        ``(drop_logits, latency_norm)`` both shaped ``(T, B)``.  Caches
        activations for :meth:`backward`.
        """
        hidden, _ = self.lstm.forward(x)
        if self.config.heads == "per_macro":
            if macro_index is None:
                raise ValueError("per_macro heads require macro_index")
            drop_logits = self.drop_head.forward(hidden, macro_index)
            latency = self.latency_head.forward(hidden, macro_index)
        else:
            drop_logits = self.drop_head.forward(hidden)[..., 0]
            latency = self.latency_head.forward(hidden)[..., 0]
        return drop_logits, latency

    def backward(self, grad_drop: np.ndarray, grad_latency: np.ndarray) -> None:
        """Backprop both heads into the LSTM trunk (full BPTT).

        ``grad_drop``/``grad_latency`` are dL/d(output), shape (T, B).
        """
        if self.config.heads == "per_macro":
            grad_hidden = self.drop_head.backward(grad_drop)
            grad_hidden = grad_hidden + self.latency_head.backward(grad_latency)
        else:
            grad_hidden = self.drop_head.backward(grad_drop[..., None])
            grad_hidden = grad_hidden + self.latency_head.backward(
                grad_latency[..., None]
            )
        self.lstm.backward(grad_hidden)

    # ------------------------------------------------------------------
    # Inference path (one packet at a time, stateful)
    # ------------------------------------------------------------------
    def initial_state(self) -> LSTMState:
        """Fresh hidden state for a batch-of-one packet stream."""
        return self.lstm.initial_state(batch_size=1)

    def predict_step(
        self, features: np.ndarray, state: LSTMState, macro_index: int = 0
    ) -> tuple[float, float, LSTMState]:
        """Predict one packet: returns (drop_probability, latency_norm, state).

        ``features`` is a flat standardized vector.  "The model
        prediction is relatively fast since prediction only involves a
        few matrix multiplications and non-linear transformations"
        (Section 4.2) — this is that code path.
        """
        x = features.reshape(1, -1)
        hidden, new_state = self.lstm.step(x, state)
        if self.config.heads == "per_macro":
            logit = self.drop_head.forward_single(hidden[0], macro_index)
            latency_norm = self.latency_head.forward_single(hidden[0], macro_index)
        else:
            logit = float(self.drop_head.forward_inference(hidden)[0, 0])
            latency_norm = float(self.latency_head.forward_inference(hidden)[0, 0])
        drop_prob = 1.0 / (1.0 + np.exp(-logit)) if logit > -500 else 0.0
        return drop_prob, latency_norm, new_state
