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
(:meth:`~repro.nn.infer.CompiledRecurrentModel.buffers`).  That gives
the width rule: a round of one packet is ``lane.step`` — no gather,
pack or scatter, over 1-D views built once — and only float32 rounds
of width >= 2 run the stacked :meth:`~BatchedFusedEngine.predict_batch`.

Numerics contract (mirrors the scalar engine):

* **float64 has one arithmetic: the lane step.**  A GEMM is not
  row-wise bit-identical to the equivalent GEMVs on this BLAS (blocking
  reassociates the dot products), so a float64 round of any width is
  its lanes' scalar steps, one after another — bit-identical to
  independent scalar engines by construction.  Event-identity of
  batched float64 hybrid runs rests on this.
* **float32 uses real GEMMs** — the speed mode.  Within-tolerance, not
  bit-identical, across widths.  At width 1 there is one arithmetic:
  the scalar float32 engine computes exactly what ``predict_batch``
  does on one row (bias folded into the GEMV over ``[x | h | 1]``, the
  flat head GEMV, numpy's float64 sigmoid), so the width rule changes
  no bit.

Layered on top is a steady-state **memoization cache** (see
``PAPERS.md``: memoization and fast-forwarding for packet-level
simulation).  Keys are quantized ``(macro_index, features, state)``
triples; by default a hit additionally requires *exact* equality of
the stored feature/state arrays, so a hit returns byte-identical
results and memoized runs stay event-identical with unmemoized ones.
(In practice recurrent float orbits almost never repeat *exactly* —
exact mode is the safe default, not the fast one; the speed comes from
``exact=False``, where a quantized-key match alone is accepted.)  On a
hit the cache **fast-forwards**: the lane's state becomes a pointer
into a successor chain of cache entries and each packet costs one
feature quantization and a dict probe — no state touch, no GEMM at
all — until the first miss restores the real matrices and resumes
computing.  A miss costs little more than the step: a lane that has an
entry is at that entry's state, so only a cold lane's state is captured
before a step, and each entry quantizes its state into a key once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from repro.nn.infer import _GATE_CLIP, _LOGIT_FLOOR, CompiledRecurrentModel

__all__ = ["BatchedFusedEngine", "MemoConfig", "make_batched_engine"]


class MemoConfig:
    """Steady-state memoization options (see module docstring).

    Parameters
    ----------
    feature_decimals, state_decimals:
        Quantization used to build hash keys: values are rounded to
        this many decimals before hashing.  Coarser keys mean more
        candidate hits; with ``exact`` on, a key collision is resolved
        by array comparison and only costs a miss.
    max_entries:
        FIFO capacity of the global key table.  Entries referenced by
        live successor chains stay reachable after eviction (the chain
        holds them directly); eviction only stops *new* lookups from
        finding them.
    exact:
        Require exact array equality on top of the quantized key
        (default).  Guarantees memoized results are bit-identical to
        recomputation.  Off trades that guarantee for a higher hit
        rate under near-periodic (not exactly converged) traffic; the
        fidelity gate (``repro validate``) is the guard rail then.
    """

    __slots__ = ("feature_decimals", "state_decimals", "max_entries", "exact")

    def __init__(
        self,
        feature_decimals: int = 6,
        state_decimals: int = 4,
        max_entries: int = 8192,
        exact: bool = True,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.feature_decimals = feature_decimals
        self.state_decimals = state_decimals
        self.max_entries = max_entries
        self.exact = exact


class _MemoEntry:
    """One cached transition: (state, features, macro) -> outcome.

    ``prev_state`` / ``state`` are exact flat copies of the lane state
    before and after the step; ``state_key`` is ``state`` quantized,
    computed the first time a lane at this entry misses its chain;
    ``successors`` maps ``(macro_index, feature_key)`` to the entry
    reached next — the fast-forward chain.
    """

    __slots__ = (
        "features",
        "prev_state",
        "state",
        "state_key",
        "drop_prob",
        "latency_norm",
        "successors",
    )

    def __init__(self, features, prev_state, state, drop_prob, latency_norm) -> None:
        self.features = features
        self.prev_state = prev_state
        self.state = state
        self.state_key = None
        self.drop_prob = drop_prob
        self.latency_norm = latency_norm
        self.successors: dict = {}


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
        Optional :class:`MemoConfig` enabling the steady-state cache.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; hit/miss counters
        (``infer.memo_hits`` / ``infer.memo_misses``) resolve once here.
    direction_label:
        Label for those counters.

    The public surface is three calls:

    * :meth:`predict_batch` — the raw step over distinct lanes: one
      stacked product per layer in float32, the lane steps in float64;
    * :meth:`predict_one` — single-lane step: the lane's own scalar
      engine, bit-identical to a width-1 batch;
    * :meth:`predict_rows` — what the batcher uses: memoization (when
      enabled) around ``predict_one`` at width 1 and ``predict_batch``
      from width 2.

    Attributes
    ----------
    lanes:
        Lane ``r``'s :class:`~repro.nn.infer.FusedInferenceEngine`,
        stepping in row ``r`` of this engine's matrices.
    """

    def __init__(
        self,
        compiled: CompiledRecurrentModel,
        n_lanes: int,
        memo: Optional[MemoConfig] = None,
        metrics=None,
        direction_label: str = "all",
    ) -> None:
        if n_lanes <= 0:
            raise ValueError(f"n_lanes must be positive, got {n_lanes}")
        self.compiled = compiled
        self.n_lanes = n_lanes
        self.steps = 0
        dtype = compiled.dtype
        self._exact = dtype == np.dtype(np.float64)
        # One matrix per engine buffer; row ``r`` of each is lane ``r``'s.
        blocks = compiled.buffers(n_lanes)
        self.lanes = [
            compiled.engine({key: block[row] for key, block in blocks.items()})
            for row in range(n_lanes)
        ]
        self._all_rows = list(range(n_lanes))
        self._lane_index = np.arange(n_lanes)
        self._head_out = np.empty((n_lanes, compiled.head_flat.shape[1]), dtype=dtype)
        # Feature packing buffer for stacked rounds (raw float64
        # extractor output; the dtype cast happens on copy into the
        # work arena, same as the scalar engine).
        self._fpack = np.empty((n_lanes, compiled.input_size), dtype=np.float64)
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
        self._memo_config = memo
        #: Key -> entry in insertion order: FIFO eviction is O(1) and,
        #: as in a dict, re-inserting a key keeps its place.
        self._memo: OrderedDict = OrderedDict()
        self._lane_entry: list = [None] * n_lanes
        self._lane_virtual = [False] * n_lanes
        self._m_hits = None
        self._m_misses = None
        if memo is not None:
            self._fscale = 10.0 ** memo.feature_decimals
            self._sscale = 10.0 ** memo.state_decimals
            self._qfeat = np.empty((n_lanes, compiled.input_size), dtype=np.float64)
            self._qrows = list(self._qfeat)
            # The engine dtype: ``state * scale`` is computed in it either
            # way, and rounding it there gives the same integers.
            self._qstate = np.empty_like(self.lanes[0].capture_state())
        if metrics is not None and metrics.handles_enabled() and memo is not None:
            self._m_hits = metrics.counter(
                "infer.memo_hits", direction=direction_label
            )
            self._m_misses = metrics.counter(
                "infer.memo_misses", direction=direction_label
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
    def predict_batch(
        self,
        features,
        macro_indices: Sequence[int],
        rows: Sequence[int],
    ) -> list:
        """Advance each listed lane one step.

        ``features`` is ``(B, F)`` raw (unstandardized) features,
        ``macro_indices`` and ``rows`` are length-B sequences; **rows
        must be distinct** (the batcher's one-packet-per-lane rounds
        guarantee this).  Returns ``[(drop_prob, latency_norm), ...]``
        in input order.  float64 steps the lanes one by one; float32
        runs one stacked product per layer.
        """
        if self._exact:
            return [
                self.predict_one(features[i], macro_indices[i], row)
                for i, row in enumerate(rows)
            ]
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
        work[:, : self._n0] = features
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

    def predict_one(self, features: np.ndarray, macro_index: int, row: int):
        """Single-lane step — a width-1 round: ``row``'s scalar engine."""
        self.steps += 1
        return self.lanes[row].predict(features, macro_index)

    def _step_rows(self, features_list, macro_indices, rows) -> list:
        """Step distinct lanes, uncached: the lane step at width 1, the
        stacked step from width 2."""
        batch = len(rows)
        if batch == 1:
            return [self.predict_one(features_list[0], macro_indices[0], rows[0])]
        pack = self._fpack[:batch]
        for i in range(batch):
            pack[i] = features_list[i]
        return self.predict_batch(pack, macro_indices, rows)

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
    def _quantize(self, values: np.ndarray, scale: float, buf: np.ndarray) -> bytes:
        np.multiply(values, scale, out=buf)
        np.rint(buf, out=buf)
        return buf.tobytes()

    def predict_rows(
        self,
        features_list: Sequence[np.ndarray],
        macro_indices: Sequence[int],
        rows: Sequence[int],
    ) -> list:
        """Memo-aware step over distinct lanes.

        Without a cache this is the lane step (width 1) or feature
        packing + the stacked batch.  With one, each lane first tries
        the fast-forward chain, then the global key table; only misses
        are computed, the same way, and every miss installs a new
        entry linked into its predecessor's chain.
        """
        if self._memo_config is None:
            return self._step_rows(features_list, macro_indices, rows)
        return self._predict_rows_memo(features_list, macro_indices, rows)

    def _predict_rows_memo(self, features_list, macro_indices, rows) -> list:
        exact = self._memo_config.exact
        batch = len(rows)
        # Feature quantization is the whole cost of a fast-forward hit,
        # so it runs vectorized over the packed block — three numpy
        # calls per *batch*, then one ``tobytes`` per lane — instead of
        # three calls per packet.
        pack = self._fpack[:batch]
        for i in range(batch):
            pack[i] = features_list[i]
        qblock = self._qfeat[:batch]
        np.multiply(pack, self._fscale, out=qblock)
        np.rint(qblock, out=qblock)
        qrows = self._qrows
        results: list = [None] * batch
        pending: list = []  # (i, row, fkey, key, prev_entry, prev_state, features)
        lanes = self.lanes
        memo = self._memo
        lane_entry = self._lane_entry
        lane_virtual = self._lane_virtual
        hits = 0
        for i, row in enumerate(rows):
            features = features_list[i]
            fkey = (macro_indices[i], qrows[i].tobytes())
            entry = lane_entry[row]
            if entry is None:
                # Cold lane: the one state capture before a step.
                state = lanes[row].capture_state()
                skey = self._quantize(state, self._sscale, self._qstate)
            else:
                nxt = entry.successors.get(fkey)
                if nxt is not None and (
                    not exact or np.array_equal(nxt.features, features)
                ):
                    # Fast-forward: stay virtual, never touch matrices.
                    results[i] = (nxt.drop_prob, nxt.latency_norm)
                    lane_entry[row] = nxt
                    lane_virtual[row] = True
                    hits += 1
                    continue
                # The lane is at ``entry.state`` (virtually, or for real
                # since the step that captured it).
                state = entry.state
                skey = entry.state_key
                if skey is None:
                    skey = entry.state_key = self._quantize(
                        state, self._sscale, self._qstate
                    )
            key = (fkey, skey)
            cand = memo.get(key)
            if cand is not None and (
                not exact
                or (
                    np.array_equal(cand.features, features)
                    and np.array_equal(cand.prev_state, state)
                )
            ):
                results[i] = (cand.drop_prob, cand.latency_norm)
                if entry is not None:
                    # Close the chain: the lane state at ``entry`` is
                    # (verifiably, in exact mode) ``cand.prev_state``,
                    # so future walks fast-forward straight through
                    # instead of re-paying quantize + lookup every time
                    # a cycle wraps past this transition.
                    entry.successors[fkey] = cand
                lane_entry[row] = cand
                lane_virtual[row] = True
                hits += 1
                continue
            # Miss: the lane computes from ``state``; the new entry
            # links to the predecessor (if any) and keeps ``state`` as
            # its exact pre-step copy.
            if lane_virtual[row]:
                lanes[row].restore_state(state)
                lane_virtual[row] = False
            pending.append((i, row, fkey, key, entry, state, features))
        if hits:
            self.memo_hits += hits
            if self._m_hits is not None:
                self._m_hits.inc(hits)
        if pending:
            self.memo_misses += len(pending)
            if self._m_misses is not None:
                self._m_misses.inc(len(pending))
            if len(pending) == 1:
                i, row, *_, features = pending[0]
                computed = [self.predict_one(features, macro_indices[i], row)]
            else:
                computed = self._step_rows(
                    [job[6] for job in pending],
                    [macro_indices[job[0]] for job in pending],
                    [job[1] for job in pending],
                )
            cap = self._memo_config.max_entries
            for job, outcome in zip(pending, computed):
                i, row, fkey, key, prev_entry, prev_state, features = job
                results[i] = outcome
                new = _MemoEntry(
                    features, prev_state, lanes[row].capture_state(), *outcome
                )
                if len(memo) >= cap:
                    # FIFO eviction; break the evictee's chain so dead
                    # entries cannot keep arbitrarily long tails alive.
                    memo.popitem(last=False)[1].successors.clear()
                memo[key] = new
                if prev_entry is not None:
                    prev_entry.successors[fkey] = new
                lane_entry[row] = new
        return results


def make_batched_engine(
    compiled: CompiledRecurrentModel,
    n_lanes: int,
    memo: Optional[MemoConfig] = None,
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
