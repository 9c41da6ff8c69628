"""Batched fused inference: one stacked GEMM per layer across lanes.

The fused engine of :mod:`repro.nn.infer` made a single packet cheap;
this module makes *many concurrent packets* cheap.  Every approximated
cluster sharing one compiled model keeps its per-direction recurrent
state as a **lane** — one row of shared ``(n_lanes, width)`` state
matrices — so a float32 :meth:`BatchedFusedEngine.predict_batch` call
advances all pending lanes with one stacked matrix product per layer
instead of one GEMV chain per packet.  The weight matrices are then read once per
*batch* rather than once per *packet*, which is exactly where the
scalar engine's time goes (at 128 hidden units the weights are ~800 KB
per packet — memory bandwidth, not FLOPs).

A lane *is* a scalar :class:`~repro.nn.infer.FusedInferenceEngine`
whose buffers are views of its row of those matrices
(:meth:`~repro.nn.infer.CompiledRecurrentModel.buffers`), and its
``input`` — the head of its arena row — is where a caller writes the
packet's features.  That gives the width rule: a round narrower than
:data:`STACKED_MIN_WIDTH` is its lanes' scalar steps, one after
another (no gather, pack or scatter, over 1-D views built once), and
only float32 rounds of at least that width run the stacked
:meth:`~BatchedFusedEngine.predict_batch`, which gathers the features
along with the rest of each arena row.

Numerics contract (mirrors the scalar engine):

* **float64 has one arithmetic: the lane step.**  A GEMM is not
  row-wise bit-identical to the equivalent GEMVs on this BLAS (blocking
  reassociates the dot products), so a float64 round of any width is
  its lanes' scalar steps — bit-identical to independent scalar
  engines by construction.  Event-identity of batched float64 hybrid
  runs rests on this.
* **float32 below the crossover is the lane step too**, so a batched
  float32 run whose engines have fewer than :data:`STACKED_MIN_WIDTH`
  lanes is the inline float32 run, bit for bit.
* **float32 from the crossover uses real GEMMs** — the speed mode.
  Within-tolerance, not bit-identical, against the lane step.

Layered on top is a steady-state **memoization cache** (see
``PAPERS.md``: memoization and fast-forwarding for packet-level
simulation).  A key is the raw bytes of ``(macro_index, lane input,
lane state)``: equal bytes make an identical step, so a hit returns
byte-identical results by construction and memoized runs stay
event-identical with unmemoized ones.  Recurrent float orbits almost
never repeat *exactly*, so a memo pays only through its rare hits and
its miss must cost next to nothing: two ``tobytes``, a dict probe and
an insert around the step, with no array compare.  On a hit the cache
**fast-forwards**: the lane stays *virtual* at the hit's entry, whose
state bytes stand in for its state, and each further packet costs a
key and a dict probe — no state touch, no GEMM at all — until the
first miss restores the real state from the entry's bytes and resumes
computing.  The key table holds at most :data:`MEMO_MAX_ENTRIES`
entries and evicts the oldest first.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.nn.infer import _GATE_CLIP, _LOGIT_FLOOR, CompiledRecurrentModel

__all__ = [
    "BatchedFusedEngine",
    "MEMO_MAX_ENTRIES",
    "STACKED_MIN_WIDTH",
    "make_batched_engine",
]

#: Narrowest float32 round that runs the stacked product.  Below it the
#: gather, pack, scatter and 2-D head readout cost more than the weight
#: reads they share, so the round is its lanes' scalar steps (DESIGN.md
#: §9 tables: on the 1x32 and 2x128 models a stacked round of 2-3 lanes
#: runs at 0.4-0.9x the lane step, one of 8 lanes at 1.6-1.8x).
STACKED_MIN_WIDTH = 8

#: FIFO capacity of an engine's memo key table.  A virtual lane keeps
#: the entry it is at after that entry is evicted.
MEMO_MAX_ENTRIES = 8192


class BatchedFusedEngine:
    """Lane-batched LSTM hot-path executor.

    The lanes' arenas (row layout ``[features | h_0 | ... | 1.0]``)
    are one ``(n_lanes, width)`` matrix and their ``[g | c]`` cell
    blocks one ``(n_lanes, 2H)`` matrix per layer.  A float32 stacked
    step gathers the batch's rows into C-contiguous work blocks, runs
    the layer stack on 2D views, and scatters the rows back —
    gather/scatter is ~2 KB per packet against ~800 KB of weights saved
    per packet at batch width 64.

    Parameters
    ----------
    compiled:
        Shared read-only weights (one direction of one trained model).
    n_lanes:
        Number of independent recurrent streams (one per approximated
        cluster sharing these weights).  Also the maximum batch width.
    memo:
        Enable the steady-state cache.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; its hit/miss
        counters (``infer.memo_hits`` / ``infer.memo_misses``) read
        :attr:`memo_hits` / :attr:`memo_misses`.
    direction_label:
        Label for those counters.

    A caller that owns the features writes them to ``lanes[row].input``
    and steps:

    * :meth:`step_lane` — one lane, through the memo when enabled: the
      hybrid's per-packet step below the crossover;
    * :meth:`step_rows` — distinct lanes, through the memo: lane steps
      below :attr:`stacked_from`, the stacked product from it.

    :meth:`predict_rows` is :meth:`step_rows` on a list of feature
    vectors, and :meth:`predict_batch` the raw stacked step (no memo).

    Attributes
    ----------
    lanes:
        Lane ``r``'s :class:`~repro.nn.infer.FusedInferenceEngine`,
        stepping in row ``r`` of this engine's matrices.
    stacked_from:
        The narrowest round :meth:`step_rows` stacks:
        :data:`STACKED_MIN_WIDTH` in float32; never (``n_lanes + 1``)
        in float64 or when the engine has fewer lanes than that.
    """

    def __init__(
        self,
        compiled: CompiledRecurrentModel,
        n_lanes: int,
        memo: bool = False,
        metrics=None,
        direction_label: str = "all",
    ) -> None:
        if n_lanes <= 0:
            raise ValueError(f"n_lanes must be positive, got {n_lanes}")
        self.compiled = compiled
        self.n_lanes = n_lanes
        self.steps = 0
        dtype = self._dtype = compiled.dtype
        self._exact = dtype == np.dtype(np.float64)
        stacks = not self._exact and n_lanes >= STACKED_MIN_WIDTH
        self.stacked_from = STACKED_MIN_WIDTH if stacks else n_lanes + 1
        # One matrix per engine buffer; row ``r`` of each is lane ``r``'s.
        blocks = compiled.buffers(n_lanes)
        self.lanes = [
            compiled.engine({key: block[row] for key, block in blocks.items()})
            for row in range(n_lanes)
        ]
        self._all_rows = list(range(n_lanes))
        self._lane_index = np.arange(n_lanes)
        self._head_out = np.empty((n_lanes, compiled.head_flat.shape[1]), dtype=dtype)
        self._n0 = compiled.input_size
        self._arena = blocks["arena"]
        self._work = np.empty_like(self._arena)
        self._top_off = self._n0 + (compiled.num_layers - 1) * compiled.hidden_size
        self._layers = []
        offset = 0
        for k, layer in enumerate(compiled.layers):
            n, h = layer.input_size, layer.hidden_size
            gc = blocks["gc", k]
            self._layers.append(
                (
                    layer.weight_bias,
                    offset,  # xh block starts here, spans n + h
                    n + h,
                    offset + n,  # this layer's h block
                    h,
                    blocks["z", k],
                    gc,  # persistent [g | c] rows
                    np.empty_like(gc),  # gathered [g | c] work
                    blocks.get(("pack", k)),
                )
            )
            offset += n

        # -- memoization state ------------------------------------------
        self.memo_hits = 0
        self.memo_misses = 0
        self._memoize = memo
        #: Key -> entry in insertion order: FIFO eviction is O(1).
        self._memo: OrderedDict = OrderedDict()
        self._lane_entry: list = [None] * n_lanes
        self._lane_virtual = [False] * n_lanes
        if metrics is not None and metrics.handles_enabled() and memo:
            metrics.bind_counter(
                "infer.memo_hits", lambda: self.memo_hits, direction=direction_label
            )
            metrics.bind_counter(
                "infer.memo_misses", lambda: self.memo_misses, direction=direction_label
            )

    def reset(self) -> None:
        """Zero every lane (fresh packet streams) and drop the cache."""
        for lane in self.lanes:
            lane.reset()
        self.steps = 0
        self._memo.clear()
        self._lane_entry = [None] * self.n_lanes
        self._lane_virtual = [False] * self.n_lanes

    # ------------------------------------------------------------------
    def step_lane(self, row: int, macro_index: int):
        """Advance lane ``row`` on the features in its ``input``:
        memo-aware, and always the lane's own scalar step on a miss."""
        lane = self.lanes[row]
        if not self._memoize:
            self.steps += 1
            return lane.step(macro_index)
        key, hit = self._recall(row, macro_index)
        if hit is not None:
            return hit[1]
        self.steps += 1
        outcome = lane.step(macro_index)
        self._remember(row, key, outcome)
        return outcome

    def step_rows(self, macro_indices: Sequence[int], rows: Sequence[int]) -> list:
        """Advance distinct lanes on the features in their ``input``s.

        Without a cache this is the lane steps below
        :attr:`stacked_from` and the stacked product from it.  With
        one, each lane is looked up first; only misses are computed,
        under the same width rule, and every miss installs an entry.
        """
        if not self._memoize:
            return self._compute(macro_indices, rows)
        results: list = []
        missed: list = []
        recall = self._recall
        for i, row in enumerate(rows):
            key, hit = recall(row, macro_indices[i])
            if hit is None:
                missed.append((i, row, key))
                results.append(None)
            else:
                results.append(hit[1])
        if missed:
            computed = self._compute(
                [macro_indices[i] for i, _, _ in missed],
                [row for _, row, _ in missed],
            )
            for (i, row, key), outcome in zip(missed, computed):
                self._remember(row, key, outcome)
                results[i] = outcome
        return results

    def predict_rows(
        self,
        features_list: Sequence[np.ndarray],
        macro_indices: Sequence[int],
        rows: Sequence[int],
    ) -> list:
        """:meth:`step_rows` after copying each feature vector into its
        lane's input (raw, unstandardized features)."""
        lanes = self.lanes
        for features, row in zip(features_list, rows):
            lanes[row].input[...] = features
        return self.step_rows(macro_indices, rows)

    def predict_batch(
        self,
        features,
        macro_indices: Sequence[int],
        rows: Sequence[int],
    ) -> list:
        """Advance each listed lane one step, bypassing the memo (so
        not for lanes a memo is tracking).

        ``features`` is ``(B, F)`` raw (unstandardized) features,
        ``macro_indices`` and ``rows`` are length-B sequences; **rows
        must be distinct** (the batcher's one-packet-per-lane rounds
        guarantee this).  Returns ``[(drop_prob, latency_norm), ...]``
        in input order.  float64 steps the lanes one by one; float32
        runs one stacked product per layer at any width.
        """
        self._arena[np.asarray(rows, dtype=np.intp), : self._n0] = features
        if self._exact:
            return self._lane_steps(macro_indices, rows)
        return self._stacked(macro_indices, rows)

    def _compute(self, macro_indices, rows) -> list:
        """Step distinct lanes, uncached, under the width rule."""
        if len(rows) < self.stacked_from:
            return self._lane_steps(macro_indices, rows)
        return self._stacked(macro_indices, rows)

    def _lane_steps(self, macro_indices, rows) -> list:
        lanes = self.lanes
        self.steps += len(rows)
        return [lanes[row].step(macro) for macro, row in zip(macro_indices, rows)]

    def _stacked(self, macro_indices, rows) -> list:
        """The float32 stacked step over distinct lanes whose arena rows
        (features included) hold their inputs."""
        batch = len(rows)
        if batch == self.n_lanes and list(rows) == self._all_rows:
            # Full-batch fast path: every lane steps, so the layer
            # stack runs directly on the persistent matrices — no
            # gather/scatter copies at all.
            row_index = None
            work = self._arena
        else:
            row_index = np.asarray(rows, dtype=np.intp)
            work = self._work[:batch]
            np.take(self._arena, row_index, axis=0, out=work)
        for (wb, off, span, h_off, h, zbuf, gc, gcwork, packed) in self._layers:
            if row_index is None:
                gcw = gc
            else:
                gcw = gcwork[:batch]
                np.take(gc, row_index, axis=0, out=gcw)
            z = zbuf[:batch]
            zs = z[:, : 3 * h]
            # GEMM from a packed contiguous block with a trailing 1.0
            # column and the bias as a final weight row — the strided
            # arena view costs ~40% GEMM time on this BLAS, and the fold
            # drops the bias-add pass.
            pack = packed[:batch]
            pack[:, :span] = work[:, off : off + span]
            np.dot(pack, wb, out=z)
            np.minimum(zs, _GATE_CLIP, out=zs)
            g = gcw[:, :h]
            c = gcw[:, h:]
            np.tanh(z[:, 3 * h :], out=g)
            np.exp(zs, out=zs)
            np.add(zs, 1.0, out=zs)
            np.reciprocal(zs, out=zs)
            np.multiply(z[:, : 2 * h], gcw, out=gcw)  # [i * g | f * c]
            np.add(c, g, out=c)
            if row_index is not None:
                gc[row_index] = gcw
            np.tanh(c, out=g)
            np.multiply(z[:, 2 * h : 3 * h], g, out=work[:, h_off : h_off + h])
        if row_index is not None:
            self._arena[row_index] = work
        self.steps += batch
        return self._read_heads(work[:, self._top_off :], macro_indices, batch)

    def _read_heads(self, top: np.ndarray, macro_indices, batch: int) -> list:
        """Stacked-head readout for a float32 batch: one GEMM over every
        head for the whole batch, a pick of each row's pair and a
        vectorized sigmoid (K is tiny (4): the extra FLOPs are far
        cheaper than B BLAS dispatches)."""
        out = self._head_out[:batch]
        np.dot(top, self.compiled.head_flat, out=out)
        if self.compiled.per_macro:  # row i's pair is head macro_indices[i]
            out = out.reshape(batch, -1, 2)[self._lane_index[:batch], macro_indices]
        pairs = out.astype(np.float64)
        logits = pairs[:, 0]
        # Vectorized 1/(1+exp(-z)) with the reference logit floor; the
        # inner minimum keeps exp() out of overflow for floored rows.
        z = np.minimum(-logits, 709.0)
        np.exp(z, out=z)
        np.add(z, 1.0, out=z)
        np.reciprocal(z, out=z)
        z[logits <= _LOGIT_FLOOR] = 0.0
        return list(zip(z.tolist(), pairs[:, 1].tolist()))

    # ------------------------------------------------------------------
    # Memoization
    # ------------------------------------------------------------------
    def _recall(self, row: int, macro_index: int):
        """Look lane ``row``'s next step up: ``(key, entry)``.

        An entry is ``(state, outcome)``: the raw bytes of the state
        the step leaves and the step's ``(drop_prob, latency_norm)``.
        On a hit the lane is left virtual at the entry.  On a miss
        ``entry`` is None and the lane holds its real state, ready to
        step; :meth:`_remember` installs the result under ``key``.
        """
        lane = self.lanes[row]
        entry = self._lane_entry[row]
        if entry is None:
            # Cold lane: the one state read before a step.
            state = lane.state_bytes()
        else:
            # The lane is at ``state`` (virtually, or for real since the
            # step that produced it).
            state = entry[0]
        key = (macro_index, lane.input.tobytes(), state)
        hit = self._memo.get(key)
        if hit is not None:
            self._lane_entry[row] = hit
            self._lane_virtual[row] = True
            self.memo_hits += 1
            return key, hit
        if self._lane_virtual[row]:
            lane.restore_state(np.frombuffer(state, dtype=self._dtype))
            self._lane_virtual[row] = False
        self.memo_misses += 1
        return key, None

    def _remember(self, row: int, key: tuple, outcome) -> None:
        """Install lane ``row``'s computed step under ``key``."""
        new = (self.lanes[row].state_bytes(), outcome)
        memo = self._memo
        if len(memo) >= MEMO_MAX_ENTRIES:
            memo.popitem(last=False)  # FIFO eviction
        memo[key] = new
        self._lane_entry[row] = new


def make_batched_engine(
    compiled: CompiledRecurrentModel,
    n_lanes: int,
    memo: bool = False,
    metrics=None,
    direction_label: str = "all",
) -> BatchedFusedEngine:
    """Build the lane-batched executor for one compiled model."""
    return BatchedFusedEngine(
        compiled,
        n_lanes,
        memo=memo,
        metrics=metrics,
        direction_label=direction_label,
    )
