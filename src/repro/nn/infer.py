"""Fused, allocation-free inference engine for the hybrid hot path.

The paper's speedup claim rests on the approximated cluster being cheap
per packet: "prediction only involves a few matrix multiplications and
non-linear transformations" (Section 4.2).  The reference path
(:meth:`~repro.core.micro.MicroModel.predict_step`) is mathematically
that, but operationally far from it — every packet pays batch-of-one
2D matmul overhead twice per layer, a separate standardization pass,
fresh state objects, two separate head matmuls, and a dozen temporary
arrays.  This module lowers a trained model into the shape the paper
describes, once, at hybrid-simulation startup:

* each layer's ``[W_x; W_h]`` is fused into a single weight matrix so
  one GEMV per layer replaces two;
* the feature standardizer's ``(mu, sigma)`` is folded into layer 0's
  input weights and bias, so standardization disappears as a pass;
* the drop and latency heads are stacked into one ``(H, 2)`` matmul
  (per macro state for ``per_macro`` selective heads);
* all scratch and hidden-state buffers are preallocated and updated in
  place with ``out=`` ufuncs — zero per-packet allocation in steady
  state.

Weights are compiled once per :class:`CompiledRecurrentModel` and
shared (read-only) between any number of :class:`FusedInferenceEngine`
instances, each of which owns its scratch and hidden state — one
engine per (approximated cluster, direction).

Numerics: float64 is the default so fused outputs stay deterministic
and bit-comparable (to <= 1e-9) with the reference path; an opt-in
float32 mode halves the memory traffic for speed at reduced precision.
The reference ``predict_step`` stays as the oracle the fused path is
property-tested against.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

try:  # the clip ufunc itself; ``np.clip`` is a Python wrapper around it
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from repro.nn.linear import Linear
from repro.nn.lstm import LSTM
from repro.nn.selective import SelectiveLinear

# Bound once for the per-packet loops, which pass ``out`` positionally
# where they can: at ~0.3 us per ufunc call, attribute lookups and
# keyword parsing are a measurable share.
_dot, _add, _multiply, _minimum = np.dot, np.add, np.multiply, np.minimum
_tanh, _exp, _reciprocal = np.tanh, np.exp, np.reciprocal

#: Pre-activation clip used by the reference inference path
#: (``step_inference``); replicated exactly so outputs match.
_GATE_CLIP = 60.0

#: Logit floor below which the reference path short-circuits the
#: sigmoid to exactly 0.0; replicated for bit-compatibility.
_LOGIT_FLOOR = -500.0


def _frozen(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Contiguous read-only copy in the engine dtype."""
    out = np.array(array, dtype=dtype, order="C", copy=True)
    out.flags.writeable = False
    return out


class _FusedLstmLayer:
    """One LSTM layer's weights fused for single-GEMV stepping.

    ``weight`` is ``[W_x; W_h]`` stacked to ``(input + H, 4H)`` so the
    step computes ``z = [x | h] @ weight + bias``.  For layer 0 the
    feature standardizer is folded in: ``W_x' = W_x / sigma[:, None]``
    and ``bias' = bias - (mu / sigma) @ W_x``, which makes
    ``x_raw @ W_x' + bias'`` equal ``((x_raw - mu) / sigma) @ W_x + bias``.

    The gate columns are permuted from the training layout
    ``[i|f|g|o]`` to ``[i|f|o|g]`` so the three sigmoid gates form one
    contiguous block (the in-place sigmoid then skips the candidate
    block instead of wastefully covering it), and the sigmoid columns
    are *negated* so the engine computes ``sigmoid(z) = 1/(1+exp(z'))``
    straight from the GEMV output with no separate negation pass.
    Both transforms are numerically exact: a column permutation leaves
    every output element's dot product untouched, and IEEE-754
    negation distributes exactly over sums and products
    (``fl(-a + -b) == -fl(a + b)``).
    """

    __slots__ = ("weight", "bias", "weight_bias", "input_size", "hidden_size")

    def __init__(
        self,
        w_input: np.ndarray,
        w_recurrent: np.ndarray,
        bias: np.ndarray,
        dtype: np.dtype,
    ) -> None:
        self.input_size = w_input.shape[0]
        h = self.hidden_size = w_recurrent.shape[0]
        order = np.r_[0:2 * h, 3 * h:4 * h, 2 * h:3 * h]  # [i|f|g|o] -> [i|f|o|g]
        weight = np.vstack([w_input, w_recurrent])[:, order]
        bias = bias[order].copy()
        weight[:, : 3 * h] *= -1.0  # negate sigmoid gates: z' = -z, exactly
        bias[: 3 * h] *= -1.0
        self.weight = _frozen(weight, dtype)
        self.bias = _frozen(bias, dtype)
        #: float32 folds the bias in as a last weight row, read by a GEMV
        #: over ``[x | h | 1]``; float64 keeps the reference's bias add.
        self.weight_bias = (
            _frozen(np.vstack([weight, bias]), dtype) if dtype == np.float32 else None
        )


def _fold_standardizer(
    w_input: np.ndarray,
    bias: np.ndarray,
    mean: np.ndarray | None,
    std: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``(x - mean) / std`` into layer 0's input weights and bias."""
    if mean is None or std is None:
        return w_input, bias
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    folded_w = w_input / std[:, None]
    folded_b = bias - (mean / std) @ w_input
    return folded_w, folded_b


class CompiledRecurrentModel:
    """Immutable fused weights for one directional micro model.

    Built once via :func:`compile_inference`; spawn per-simulation
    hot-path executors with :meth:`engine` (each engine owns its
    hidden state and scratch, the weights are shared read-only).
    """

    def __init__(
        self,
        layers: list,
        head_weight: np.ndarray,
        head_bias: np.ndarray,
        per_macro: bool,
        dtype: np.dtype,
    ) -> None:
        self.layers = layers
        self.head_weight = head_weight
        self.head_bias = head_bias
        self.per_macro = per_macro
        self.dtype = dtype
        self.input_size = layers[0].input_size
        self.hidden_size = layers[0].hidden_size
        self.num_layers = len(layers)
        #: Every head in one ``(H+1, 2K)`` matrix (``K`` macro states,
        #: columns ``2k, 2k+1`` = head ``k``): the float32 readout is one
        #: GEMV or GEMM over all of them, then a pick of the pair.
        self.head_flat = head_weight
        if per_macro:
            k, rows, _ = head_weight.shape
            self.head_flat = _frozen(
                head_weight.transpose(1, 0, 2).reshape(rows, 2 * k), dtype
            )

    def buffers(self, *lanes: int) -> dict:
        """Zeroed state and scratch for :meth:`engine`, keyed as the
        engine reads them; with ``lanes``, each is ``(lanes, size)`` —
        row ``r`` is lane ``r`` of a batched engine.  A buffer that
        feeds a folded-bias GEMV ends in a constant 1.0."""
        out = {}
        for key, (size, trailing_one) in FusedInferenceEngine.layout(self).items():
            buffer = out[key] = np.zeros((*lanes, size), dtype=self.dtype)
            if trailing_one:
                buffer[..., -1] = 1.0
        return out

    def engine(self, buffers: dict | None = None) -> "FusedInferenceEngine":
        """A fresh hot-path executor (zeroed hidden state), stepping in
        ``buffers`` (one 1-D array per key of :meth:`buffers`) or in
        its own."""
        return FusedInferenceEngine(self, self.buffers() if buffers is None else buffers)


def compile_inference(
    trunk: LSTM,
    drop_head: Union[Linear, SelectiveLinear],
    latency_head: Union[Linear, SelectiveLinear],
    feature_mean: np.ndarray | None = None,
    feature_std: np.ndarray | None = None,
    dtype: Union[str, np.dtype] = np.float64,
) -> CompiledRecurrentModel:
    """Lower trained nn modules into a :class:`CompiledRecurrentModel`.

    Parameters
    ----------
    trunk:
        The recurrent trunk, an :class:`~repro.nn.lstm.LSTM`.
    drop_head, latency_head:
        The two prediction heads; both :class:`~repro.nn.linear.Linear`
        (shared heads) or both
        :class:`~repro.nn.selective.SelectiveLinear` (``per_macro``).
    feature_mean, feature_std:
        Standardizer statistics to fold into layer 0 (pass ``None`` for
        already-standardized inputs).
    dtype:
        ``float64`` (default, reference-exact) or ``float32`` (opt-in
        speed mode).
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"dtype must be float64 or float32, got {dtype}")
    if not isinstance(trunk, LSTM):
        raise TypeError(f"unsupported trunk type {type(trunk).__name__}")

    layers = []
    for k, raw in enumerate(trunk.layers):
        w_input = raw.w_input.value
        bias = raw.bias.value
        if k == 0:
            w_input, bias = _fold_standardizer(
                w_input, bias, feature_mean, feature_std
            )
        layers.append(_FusedLstmLayer(w_input, raw.w_recurrent.value, bias, dtype))

    per_macro = isinstance(drop_head, SelectiveLinear)
    if per_macro != isinstance(latency_head, SelectiveLinear):
        raise TypeError("drop and latency heads must be the same kind")
    if per_macro:
        # (K, H) per-head rows -> (K, H+1, 2) stacked [drop | latency],
        # bias folded in as the last weight row (the engines feed the
        # heads a hidden vector with a constant trailing 1.0).
        head_weight = np.stack(
            [drop_head.weight.value, latency_head.weight.value], axis=2
        )
        head_bias = np.stack([drop_head.bias.value, latency_head.bias.value], axis=1)
        head_weight = np.concatenate([head_weight, head_bias[:, None, :]], axis=1)
    else:
        # (H, 1) columns -> (H+1, 2) stacked [drop | latency] + bias row.
        head_weight = np.concatenate(
            [drop_head.weight.value, latency_head.weight.value], axis=1
        )
        head_bias = np.concatenate([drop_head.bias.value, latency_head.bias.value])
        head_weight = np.vstack([head_weight, head_bias])
    return CompiledRecurrentModel(
        layers=layers,
        head_weight=_frozen(head_weight, dtype),
        head_bias=_frozen(head_bias, dtype),
        per_macro=per_macro,
        dtype=dtype,
    )


class FusedInferenceEngine:
    """The per-simulation hot-path executor: one GEMV per LSTM layer
    over ``[x | h]``.

    All hidden states live in one contiguous *arena* laid out
    ``[features | h_0 | h_1 | ... | 1.0]`` so that layer ``k``'s GEMV
    input ``[h_{k-1} | h_k]`` is a zero-copy slice of it — nothing is
    copied between layers, and writing ``h_k`` in place simultaneously
    updates the recurrent input of layer ``k`` and the feed-forward
    input of layer ``k+1``.  The constant trailing 1.0 extends the top
    hidden state so the head GEMV adds its folded bias row for free.
    Per-layer scratch is allocated once: the pre-activations ``z``
    with persistent gate views, and one ``[g | c]`` buffer holding the
    candidate (reused for ``tanh(c)``) next to the cell state, so that
    ``i * g`` and ``f * c`` are one multiply against ``z``'s ``[i | f]``
    block.  Constants enter the ufuncs as arrays (the clip bounds, the
    sigmoid's 1.0): a Python scalar operand is converted on every call.
    After construction, a steady-state :meth:`step` allocates nothing.

    float32 folds each layer's bias into its GEMV over ``[x | h | 1]``:
    the top layer's is a slice of the arena (its trailing 1.0 follows
    ``h_top``), a lower layer's is a ``pack`` copy of ``[x | h]`` in
    front of a 1.0 — the arithmetic the batched engine runs on a row.

    The buffers come from :meth:`CompiledRecurrentModel.buffers`: the
    engine's own, or one row of a batched engine's matrices, which
    makes the engine that batched engine's lane (:mod:`repro.nn.batch`).

    Attributes
    ----------
    input:
        The ``(input_size,)`` buffer :meth:`step` reads the packet's
        raw features from.  It is the model's own GEMV input, so a
        caller that writes features here (the hybrid hot path does, via
        ``extract_into``) pays no copy; nothing but the caller ever
        writes to it.
    """

    __slots__ = (
        "compiled", "steps", "input", "_exact", "_state",
        "_head_out", "_head_w", "_pair", "_top", "_layers",
    )

    @staticmethod
    def layout(compiled: CompiledRecurrentModel) -> dict:
        """Buffer key -> ``(size, ends in a constant 1.0)``."""
        width = compiled.input_size + compiled.num_layers * compiled.hidden_size + 1
        layout = {"arena": (width, True)}
        for k, layer in enumerate(compiled.layers):
            n, h = layer.input_size, layer.hidden_size
            layout["gc", k] = (2 * h, False)
            layout["z", k] = (4 * h, False)
            if compiled.dtype == np.float32:
                layout["pack", k] = (n + h + 1, True)
        return layout

    def __init__(self, compiled: CompiledRecurrentModel, buffers: dict) -> None:
        dtype = compiled.dtype
        n0 = compiled.input_size
        hidden = compiled.hidden_size
        arena = buffers["arena"]
        self.compiled = compiled
        self.steps = 0
        self.input = arena[:n0]
        exact = self._exact = dtype == np.dtype(np.float64)
        self._head_out = np.empty(
            2 if exact else compiled.head_flat.shape[1], dtype=dtype
        )
        #: Stride from a macro index to its pair in the float32 readout.
        self._pair = 2 if compiled.per_macro else 0
        self._head_w = None
        if exact and compiled.per_macro:
            # Pre-split the per-macro head stack into a tuple of 2D
            # views: tuple indexing replaces a fresh ndarray view
            # allocation per packet in _heads.
            self._head_w = tuple(compiled.head_weight)
        self._top = arena[n0 + (compiled.num_layers - 1) * hidden :]  # [h_top | 1]
        self._layers = []
        state = []
        offset = 0
        for k, layer in enumerate(compiled.layers):
            n, h = layer.input_size, layer.hidden_size
            z, gc = buffers["z", k], buffers["gc", k]
            xh = arena[offset : offset + n + h]  # [x | h]
            state += [xh[n:], gc[h:]]  # this layer's h and c
            w, pack = layer.weight_bias, None
            if exact:
                w, x = layer.weight, xh
            elif k == compiled.num_layers - 1:
                x = arena[offset:]  # [x | h_top | 1]
            else:
                x = buffers["pack", k]
                pack = x[: n + h]
            self._layers.append(
                (
                    w,
                    layer.bias,
                    x,  # GEMV input
                    pack,  # float32 lower layer: where [x | h] is copied
                    xh,
                    xh[n:],  # this layer's h
                    z,
                    np.full(4 * h, -_GATE_CLIP, dtype=dtype),
                    # float32 bounds only the sigmoid block, from above
                    np.full(4 * h if exact else 3 * h, _GATE_CLIP, dtype=dtype),
                    z[: 2 * h],  # [i | f] gate views (compiled layout [i|f|o|g])
                    z[2 * h : 3 * h],  # o gate view
                    z[: 3 * h],  # sigmoid block
                    np.ones(3 * h, dtype=dtype),
                    z[3 * h :],  # g pre-activation view
                    gc,
                    gc[:h],  # g / tanh(c) scratch
                    gc[h:],  # cell state c
                )
            )
            offset += n
        assert offset + hidden + 1 == arena.shape[0]
        #: Views of the full recurrent state: every layer's h and c.
        self._state = tuple(state)

    def step(self, macro_index: int = 0) -> tuple[float, float]:
        """One packet: consume the raw (unstandardized) features in
        :attr:`input`, advance the state in place, return
        ``(drop_probability, latency_norm)``."""
        exact = self._exact
        # ``input`` (raw features; the standardizer is in w) heads the arena.
        for (
            w, b, x, pack, xh, h, z, lo, hi, zif, zo, zs, one, zg, gc, g, c
        ) in self._layers:
            if pack is not None:
                pack[...] = xh
            _dot(x, w, z)
            if exact:
                _add(z, b, z)
                # Reproduce the reference path's +-60 clip bit-exactly
                # (the sigmoid block holds *negated* pre-activations,
                # and symmetric clipping commutes with negation); one
                # clip is min-then-max, value for value.
                _clip(z, lo, hi, z)
            else:
                # float32 speed mode: exp overflows at ~88, so only the
                # sigmoid block's upper side needs guarding; everywhere
                # else saturation lands on the correct limit (sigmoid
                # -> 0/1, tanh -> +-1) without a clip.
                _minimum(zs, hi, out=zs)
            _tanh(zg, g)  # candidate, from the clipped pre-activation
            # In-place sigmoid over the contiguous [i|f|o] block; the
            # GEMV already produced the *negated* pre-activations.
            _exp(zs, zs)
            _add(zs, one, zs)
            _reciprocal(zs, zs)
            _multiply(zif, gc, gc)  # [i * g | f * c_prev]
            _add(c, g, c)  # c = f * c_prev + i * g
            _tanh(c, g)
            _multiply(zo, g, h)  # h = o * tanh(c), in place in the arena
        self.steps += 1
        return self._heads(self._top, macro_index)

    def predict(self, features: np.ndarray, macro_index: int = 0) -> tuple[float, float]:
        """:meth:`step` on a feature vector held elsewhere (one copy)."""
        self.input[...] = features
        return self.step(macro_index)

    def reset(self) -> None:
        """Zero the hidden state (fresh packet stream)."""
        for view in self._state:
            view.fill(0.0)
        self.steps = 0

    def capture_state(self, out: np.ndarray | None = None) -> np.ndarray:
        """Exact flat copy of the full recurrent state."""
        return np.concatenate(self._state, out=out)

    def state_bytes(self) -> bytes:
        """:meth:`capture_state`'s values as raw bytes (the exact memo's
        key and entry payload)."""
        out = b""
        for view in self._state:
            out += view.tobytes()
        return out

    def restore_state(self, flat: np.ndarray) -> None:
        """Write a :meth:`capture_state` copy back."""
        cursor = 0
        for view in self._state:
            view[...] = flat[cursor : cursor + view.shape[0]]
            cursor += view.shape[0]

    # ------------------------------------------------------------------
    def _heads(self, hidden: np.ndarray, macro_index: int) -> tuple[float, float]:
        """Stacked-head readout: one GEMV for both predictions.

        ``hidden`` is the top layer's state with a constant trailing
        1.0, so the bias row folded into ``head_weight`` is added by
        the same GEMV — no separate bias pass.  float32 is the batched
        readout at width 1: every head in one GEMV, and the sigmoid on
        numpy's float64 ``exp`` (``math.exp`` differs in the last ulp).
        """
        out = self._head_out
        head_w = self._head_w
        if not self._exact:
            _dot(hidden, self.compiled.head_flat, out)
            values = out.tolist()
            pick = macro_index * self._pair
            logit, latency_norm = values[pick], values[pick + 1]
            if logit <= _LOGIT_FLOOR:
                return 0.0, latency_norm
            return 1.0 / (1.0 + float(_exp(-logit))), latency_norm
        if head_w is not None:
            np.dot(hidden, head_w[macro_index], out=out)
        else:
            np.dot(hidden, self.compiled.head_weight, out=out)
        logit, latency_norm = out.tolist()
        drop_prob = 1.0 / (1.0 + math.exp(-logit)) if logit > _LOGIT_FLOOR else 0.0
        return drop_prob, latency_norm
