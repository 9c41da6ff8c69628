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
  one GEMV per layer replaces two (LSTM; the GRU candidate gate needs
  the recurrent term un-summed, so GRU keeps two GEMVs but loses every
  allocation);
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

from repro.nn.gru import GRU
from repro.nn.linear import Linear
from repro.nn.lstm import LSTM
from repro.nn.selective import SelectiveLinear

# Bound once for the per-packet loops, which pass ``out`` positionally
# where they can: at ~0.3 us per ufunc call, attribute lookups and
# keyword parsing are a measurable share.
_dot, _add, _multiply = np.dot, np.add, np.multiply
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

    __slots__ = ("weight", "bias", "input_size", "hidden_size")

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


class _FusedGruLayer:
    """One GRU layer's weights, standardizer/bias pre-folded.

    The candidate gate needs ``h @ U`` *before* the reset gating, so
    input and recurrent projections stay separate GEMVs; the layer
    still drops all temporaries (see :class:`_GruEngine`).  As in the
    LSTM layer, the sigmoid (``z``/``r``) columns of both projections
    and the bias are negated at compile time — exactly — so the engine
    skips the per-packet negation pass.  The bias is folded into
    ``w_input`` as a final row (the engine's input buffers carry a
    constant trailing 1.0), so no separate bias add runs per packet.
    """

    __slots__ = ("w_input", "w_recurrent", "input_size", "hidden_size")

    def __init__(
        self,
        w_input: np.ndarray,
        w_recurrent: np.ndarray,
        bias: np.ndarray,
        dtype: np.dtype,
    ) -> None:
        self.input_size = w_input.shape[0]
        h = self.hidden_size = w_recurrent.shape[0]
        w_input = w_input.copy()
        w_recurrent = w_recurrent.copy()
        bias = bias.copy()
        w_input[:, : 2 * h] *= -1.0  # negate z|r gates: z' = -z, exactly
        w_recurrent[:, : 2 * h] *= -1.0
        bias[: 2 * h] *= -1.0
        self.w_input = _frozen(np.vstack([w_input, bias]), dtype)
        self.w_recurrent = _frozen(w_recurrent, dtype)


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
        cell: str,
        layers: list,
        head_weight: np.ndarray,
        head_bias: np.ndarray,
        per_macro: bool,
        dtype: np.dtype,
    ) -> None:
        self.cell = cell
        self.layers = layers
        self.head_weight = head_weight
        self.head_bias = head_bias
        self.per_macro = per_macro
        self.dtype = dtype
        self.input_size = layers[0].input_size
        self.hidden_size = layers[0].hidden_size
        self.num_layers = len(layers)

    def engine(self) -> "FusedInferenceEngine":
        """A fresh hot-path executor (zeroed hidden state, own scratch)."""
        if self.cell == "lstm":
            return _LstmEngine(self)
        return _GruEngine(self)


def compile_inference(
    trunk: Union[LSTM, GRU],
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
        The recurrent trunk (:class:`~repro.nn.lstm.LSTM` or
        :class:`~repro.nn.gru.GRU`).
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
    if isinstance(trunk, LSTM):
        cell, layer_cls = "lstm", _FusedLstmLayer
    elif isinstance(trunk, GRU):
        cell, layer_cls = "gru", _FusedGruLayer
    else:
        raise TypeError(f"unsupported trunk type {type(trunk).__name__}")

    layers = []
    for k, raw in enumerate(trunk.layers):
        w_input = raw.w_input.value
        bias = raw.bias.value
        if k == 0:
            w_input, bias = _fold_standardizer(
                w_input, bias, feature_mean, feature_std
            )
        layers.append(layer_cls(w_input, raw.w_recurrent.value, bias, dtype))

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
        cell=cell,
        layers=layers,
        head_weight=_frozen(head_weight, dtype),
        head_bias=_frozen(head_bias, dtype),
        per_macro=per_macro,
        dtype=dtype,
    )


class FusedInferenceEngine:
    """Base of the per-simulation hot-path executors.

    Subclasses preallocate every buffer in ``__init__`` and implement
    :meth:`step` with in-place ``out=`` ufuncs only — after
    construction, a steady-state ``step`` call allocates nothing.

    Attributes
    ----------
    input:
        The ``(input_size,)`` buffer :meth:`step` reads the packet's
        raw features from.  It is the model's own GEMV input, so a
        caller that writes features here (the hybrid hot path does, via
        ``extract_into``) pays no copy; nothing but the caller ever
        writes to it.
    """

    __slots__ = ("compiled", "steps", "input", "_head_out", "_head_w")

    def __init__(self, compiled: CompiledRecurrentModel, input: np.ndarray) -> None:
        self.compiled = compiled
        self.steps = 0
        self.input = input
        self._head_out = np.empty(2, dtype=compiled.dtype)
        if compiled.per_macro:
            # Pre-split the per-macro head stack into a tuple of 2D
            # views: tuple indexing replaces a fresh ndarray view
            # allocation per packet in _heads.
            self._head_w = tuple(
                compiled.head_weight[k] for k in range(compiled.head_weight.shape[0])
            )
        else:
            self._head_w = None

    def step(self, macro_index: int = 0) -> tuple[float, float]:
        """One packet: consume the raw (unstandardized) features in
        :attr:`input`, advance the state in place, return
        ``(drop_probability, latency_norm)``."""
        raise NotImplementedError

    def predict(self, features: np.ndarray, macro_index: int = 0) -> tuple[float, float]:
        """:meth:`step` on a feature vector held elsewhere (one copy)."""
        self.input[...] = features
        return self.step(macro_index)

    def reset(self) -> None:
        """Zero the hidden state (fresh packet stream)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _heads(self, hidden: np.ndarray, macro_index: int) -> tuple[float, float]:
        """Stacked-head readout: one GEMV for both predictions.

        ``hidden`` is the top layer's state with a constant trailing
        1.0, so the bias row folded into ``head_weight`` is added by
        the same GEMV — no separate bias pass.
        """
        out = self._head_out
        head_w = self._head_w
        if head_w is not None:
            np.dot(hidden, head_w[macro_index], out=out)
        else:
            np.dot(hidden, self.compiled.head_weight, out=out)
        logit, latency_norm = out.tolist()
        drop_prob = 1.0 / (1.0 + math.exp(-logit)) if logit > _LOGIT_FLOOR else 0.0
        return drop_prob, latency_norm


class _LstmEngine(FusedInferenceEngine):
    """LSTM hot path: one GEMV per layer over ``[x | h]``.

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
    """

    __slots__ = ("_arena", "_top", "_layers", "_exact")

    def __init__(self, compiled: CompiledRecurrentModel) -> None:
        dtype = compiled.dtype
        self._exact = dtype == np.dtype(np.float64)
        n0 = compiled.input_size
        hidden = compiled.hidden_size
        arena = np.zeros(n0 + compiled.num_layers * hidden + 1, dtype=dtype)
        arena[-1] = 1.0
        super().__init__(compiled, arena[:n0])
        self._arena = arena
        self._top = arena[n0 + (compiled.num_layers - 1) * hidden :]  # [h_top | 1]
        self._layers = []
        offset = 0
        for layer in compiled.layers:
            n, h = layer.input_size, layer.hidden_size
            z = np.empty(4 * h, dtype=dtype)
            gc = np.zeros(2 * h, dtype=dtype)
            self._layers.append(
                (
                    layer.weight,
                    layer.bias,
                    arena[offset : offset + n + h],  # GEMV input [x | h]
                    arena[offset + n : offset + n + h],  # this layer's h
                    z,
                    np.full(4 * h, -_GATE_CLIP, dtype=dtype),
                    np.full(4 * h, _GATE_CLIP, dtype=dtype),
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

    def reset(self) -> None:
        self._arena.fill(0.0)
        self._arena[-1] = 1.0
        for record in self._layers:
            record[-1].fill(0.0)
        self.steps = 0

    def step(self, macro_index: int = 0) -> tuple[float, float]:
        exact = self._exact
        # ``input`` (raw features; the standardizer is in w) heads the arena.
        for (w, b, xh, h, z, lo, hi, zif, zo, zs, one, zg, gc, g, c) in self._layers:
            _dot(xh, w, z)
            _add(z, b, z)
            if exact:
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
                np.minimum(zs, _GATE_CLIP, out=zs)
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


class _GruEngine(FusedInferenceEngine):
    """GRU hot path: two GEMVs per layer (candidate gate needs the raw
    recurrent projection), everything else in place.

    Every input buffer (features and each layer's state) carries a
    constant trailing 1.0, so the bias row folded into ``w_input`` and
    the head bias both ride their GEMVs for free.  Buffer roles per
    layer: ``pre`` holds ``[x | 1] @ [W; b]`` then morphs in place into
    the ``z``/``r`` gates and candidate ``n``; ``hu`` holds ``h @ U``;
    ``s`` is the single extra scratch for ``z * h``.
    """

    __slots__ = ("_layers", "_top", "_exact")

    def __init__(self, compiled: CompiledRecurrentModel) -> None:
        dtype = compiled.dtype
        self._exact = dtype == np.dtype(np.float64)
        xin = np.zeros(compiled.input_size + 1, dtype=dtype)
        xin[-1] = 1.0
        super().__init__(compiled, xin[:-1])
        self._layers = []
        previous = xin
        for layer in compiled.layers:
            h = layer.hidden_size
            pre = np.empty(3 * h, dtype=dtype)
            hu = np.empty(3 * h, dtype=dtype)
            state = np.zeros(h + 1, dtype=dtype)
            state[-1] = 1.0
            self._layers.append(
                (
                    layer.w_input,
                    layer.w_recurrent,
                    previous,  # GEMV input [x | 1], the prior state buffer
                    pre,
                    pre[: 2 * h],  # z|r gate block
                    pre[:h],  # z gate view
                    pre[h : 2 * h],  # r gate view
                    pre[2 * h :],  # candidate block -> n
                    hu,
                    hu[: 2 * h],
                    hu[2 * h :],
                    np.empty(h, dtype=dtype),  # z * h scratch
                    state[:h],  # hidden state h
                )
            )
            previous = state
        self._top = previous

    def reset(self) -> None:
        for record in self._layers:
            record[-1].fill(0.0)
        self.steps = 0

    def step(self, macro_index: int = 0) -> tuple[float, float]:
        exact = self._exact
        for (w, u, xv, pre, gates, pz, pr, pn, hu, hu_gates, hu_n, s, h) in self._layers:
            _dot(xv, w, out=pre)  # [x | 1] @ [W; b]
            _dot(h, u, out=hu)
            _add(gates, hu_gates, out=gates)  # negated pre-activations
            np.minimum(gates, _GATE_CLIP, out=gates)  # exp overflow guard
            if exact:
                # Lower side only matters for bit-parity with the
                # reference clip; float32 lets exp underflow to 0
                # (sigmoid -> 1, the correct limit).
                np.maximum(gates, -_GATE_CLIP, out=gates)
            np.exp(gates, out=gates)
            _add(gates, 1.0, out=gates)
            np.reciprocal(gates, out=gates)
            _multiply(pr, hu_n, out=hu_n)  # r * (h @ U_n)
            _add(pn, hu_n, out=pn)
            np.tanh(pn, out=pn)  # candidate n
            _multiply(pz, h, out=s)  # z * h
            np.subtract(1.0, pz, out=pz)  # 1 - z
            _multiply(pz, pn, out=pn)  # (1 - z) * n
            _add(pn, s, out=h)  # h' = (1 - z) * n + z * h
        self.steps += 1
        return self._heads(self._top, macro_index)
