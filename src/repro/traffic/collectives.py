"""AI-training collective workloads: gated AllReduce over live TCP.

The paper validates its approximation only under smooth Poisson
web/cache/Hadoop traffic; large-model training traffic is the opposite
— bursty, synchronized, and *self-clocked*: every rank's next send is
gated on receipt of the previous chunk, so congestion anywhere in the
ring stalls the whole iteration.  :class:`CollectiveWorkload` models
that structure directly on top of the repo's TCP flows:

* ranks are servers, partitioned into ``dp_groups`` data-parallel
  groups (deterministic name order);
* each iteration runs, per group: an optional **TP** phase (adjacent
  rank pairs exchange ``tp_bytes`` both ways), an optional **PP**
  phase (a gated chain send of ``pp_bytes`` from rank *i* to *i+1*),
  then the **DP AllReduce** of ``chunk_bytes`` chunks — ring
  (``2*(N-1)`` gated steps per rank) or tree (gated reduce-up then
  broadcast-down over a binary tree);
* a group barrier, then a compute gap ``compute_s * (1 + jitter * u)``
  with ``u`` drawn from the seeded ``collective.compute`` stream —
  drawn unconditionally so metrics/tracing cannot perturb the run.

Chunk flows launch through :meth:`TrafficGenerator.launch_flow`
directly, bypassing both ``flow_filter`` and ``flow_dispatch``:
collective traffic is latency-critical barrier traffic and must stay
on the packet path in every tier (eliding or fluid-diverting a gated
chunk would deadlock the ring).  Background mice for tail-latency
probes are simply the generator's ordinary Poisson arrivals at the
experiment's configured ``load``, running alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.des.entities import Entity
from repro.des.kernel import Simulator
from repro.traffic.apps import FlowRecord, TrafficGenerator

_ALGORITHMS = ("ring", "tree")

_CONFIG_KEYS = {
    "algorithm",
    "ranks",
    "dp_groups",
    "chunk_bytes",
    "rounds",
    "compute_s",
    "compute_jitter",
    "tp_bytes",
    "pp_bytes",
}


@dataclass(frozen=True)
class CollectiveConfig:
    """Shape of one training workload.

    Attributes
    ----------
    algorithm:
        AllReduce schedule: ``"ring"`` or ``"tree"``.
    ranks:
        Participating servers (first N in name order); ``None`` = all.
    dp_groups:
        Data-parallel groups the ranks are partitioned into; each group
        runs its own AllReduce.
    chunk_bytes:
        Bytes per gated AllReduce chunk send.
    rounds:
        Training iterations per group (the run may end mid-iteration
        when ``duration_s`` is shorter than the workload).
    compute_s, compute_jitter:
        Mean compute-phase gap between iterations and its uniform
        jitter fraction (seeded ``collective.compute`` stream).
    tp_bytes, pp_bytes:
        Per-iteration tensor-parallel pair-exchange and
        pipeline-parallel chain-send sizes (0 disables the phase).
    """

    algorithm: str = "ring"
    ranks: Optional[int] = None
    dp_groups: int = 1
    chunk_bytes: int = 262_144
    rounds: int = 1
    compute_s: float = 0.0
    compute_jitter: float = 0.0
    tp_bytes: int = 0
    pp_bytes: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {_ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.ranks is not None and self.ranks < 2:
            raise ValueError(f"ranks must be >= 2, got {self.ranks}")
        if self.dp_groups < 1:
            raise ValueError(f"dp_groups must be >= 1, got {self.dp_groups}")
        if self.chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {self.chunk_bytes}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.compute_s < 0:
            raise ValueError(f"compute_s must be >= 0, got {self.compute_s}")
        if self.compute_jitter < 0:
            raise ValueError(f"compute_jitter must be >= 0, got {self.compute_jitter}")
        if self.tp_bytes < 0 or self.pp_bytes < 0:
            raise ValueError("tp_bytes and pp_bytes must be >= 0")

    @classmethod
    def from_dict(cls, raw: object) -> "CollectiveConfig":
        if isinstance(raw, CollectiveConfig):
            return raw
        if not isinstance(raw, dict):
            raise TypeError(f"collective must be a dict, got {type(raw).__name__}")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown collective keys: {sorted(unknown)}")
        return cls(**raw)


class _GroupState:
    """Per-DP-group iteration state machine bookkeeping."""

    __slots__ = ("members", "rounds_done", "finished", "pending", "next_send", "received")

    def __init__(self, members: list[str]) -> None:
        self.members = members
        self.rounds_done = 0
        self.finished = False
        # Phase-local counters, reset by each phase driver.
        self.pending = 0
        self.next_send: list[int] = []
        self.received: list[int] = []


class CollectiveWorkload(Entity):
    """Drives gated collective phases over a traffic generator.

    Self-starting: construction schedules the first iteration at the
    current sim time, so pipeline drivers need no extra call.  All
    launches go through ``generator.launch_flow`` so flows share the
    generator's bookkeeping (FCTs, tracing, flow ids).
    """

    def __init__(
        self,
        sim: Simulator,
        generator: TrafficGenerator,
        config: CollectiveConfig,
    ) -> None:
        super().__init__(sim, "collective-workload")
        self.generator = generator
        self.config = config
        servers = sorted(node.name for node in generator.network.topology.servers())
        count = config.ranks if config.ranks is not None else len(servers)
        if count > len(servers):
            raise ValueError(
                f"collective needs {count} ranks but topology has "
                f"{len(servers)} servers"
            )
        if count < 2:
            raise ValueError(f"collective needs >= 2 ranks, got {count}")
        if config.dp_groups > count // 2:
            raise ValueError(
                f"{config.dp_groups} dp_groups over {count} ranks leaves "
                "groups of < 2 ranks"
            )
        ranks = servers[:count]
        # Contiguous partition; remainder ranks join the last group.
        group_size = count // config.dp_groups
        self._groups: list[_GroupState] = []
        for g in range(config.dp_groups):
            lo = g * group_size
            hi = count if g == config.dp_groups - 1 else lo + group_size
            self._groups.append(_GroupState(ranks[lo:hi]))
        self.ranks = ranks
        self._compute_rng = sim.rng.stream("collective.compute")
        self.flows_launched = 0
        self.bytes_launched = 0
        self.chunks_completed = 0
        for index in range(len(self._groups)):
            self.schedule(0.0, self._iteration_starter(index))

    # ------------------------------------------------------------------
    # Launch helper
    # ------------------------------------------------------------------
    def _send(
        self, src: str, dst: str, size_bytes: int, on_done: Callable[[FlowRecord], None]
    ) -> None:
        self.flows_launched += 1
        self.bytes_launched += size_bytes

        def complete(record: FlowRecord) -> None:
            self.chunks_completed += 1
            on_done(record)

        flow = self.generator.number_flow(src, dst, size_bytes)
        self.generator.launch_flow(flow, on_complete=complete)

    # ------------------------------------------------------------------
    # Iteration driver
    # ------------------------------------------------------------------
    def _iteration_starter(self, index: int) -> Callable[[], None]:
        def start() -> None:
            self._start_iteration(index)

        return start

    def _start_iteration(self, index: int) -> None:
        group = self._groups[index]
        if group.rounds_done >= self.config.rounds:
            group.finished = True
            return
        self._tp_phase(index)

    def _tp_phase(self, index: int) -> None:
        group = self._groups[index]
        members = group.members
        if self.config.tp_bytes <= 0 or len(members) < 2:
            self._pp_phase(index)
            return
        pairs = list(zip(members[0::2], members[1::2]))
        group.pending = 2 * len(pairs)

        def done(_record: FlowRecord) -> None:
            group.pending -= 1
            if group.pending == 0:
                self._pp_phase(index)

        for a, b in pairs:
            self._send(a, b, self.config.tp_bytes, done)
            self._send(b, a, self.config.tp_bytes, done)

    def _pp_phase(self, index: int) -> None:
        group = self._groups[index]
        members = group.members
        if self.config.pp_bytes <= 0 or len(members) < 2:
            self._allreduce_phase(index)
            return

        def send_stage(stage: int) -> None:
            if stage >= len(members) - 1:
                self._allreduce_phase(index)
                return
            self._send(
                members[stage],
                members[stage + 1],
                self.config.pp_bytes,
                lambda _record: send_stage(stage + 1),
            )

        send_stage(0)

    def _allreduce_phase(self, index: int) -> None:
        if self.config.algorithm == "tree":
            self._tree_allreduce(index)
        else:
            self._ring_allreduce(index)

    # ------------------------------------------------------------------
    # Ring AllReduce: each rank sends 2*(N-1) chunks to its right
    # neighbor; send s is gated on having received chunk s-1 from the
    # left neighbor (the self-clocking that makes collectives bursty).
    # ------------------------------------------------------------------
    def _ring_allreduce(self, index: int) -> None:
        group = self._groups[index]
        members = group.members
        n = len(members)
        steps = 2 * (n - 1)
        group.next_send = [0] * n
        group.received = [-1] * n  # high-water mark of chunks received
        group.pending = n  # ranks yet to receive their final chunk

        def try_launch(rank_idx: int) -> None:
            step = group.next_send[rank_idx]
            # Send ``step`` is gated on receipt of chunk ``step - 1``
            # from the left neighbor (step 0 is ungated).  Concurrent
            # flows on the same path can complete out of order, so the
            # gate uses a high-water mark and every receipt retries.
            if step >= steps or group.received[rank_idx] < step - 1:
                return
            group.next_send[rank_idx] = step + 1
            self._send(
                members[rank_idx],
                members[(rank_idx + 1) % n],
                self.config.chunk_bytes,
                lambda _record, r=rank_idx, s=step: completed(r, s),
            )

        def completed(sender_idx: int, step: int) -> None:
            receiver = (sender_idx + 1) % n
            if step > group.received[receiver]:
                group.received[receiver] = step
            if step == steps - 1:
                group.pending -= 1
                if group.pending == 0:
                    self._finish_iteration(index)
                return
            try_launch(receiver)

        for rank_idx in range(n):
            try_launch(rank_idx)

    # ------------------------------------------------------------------
    # Tree AllReduce: gated reduce-up over a binary tree (a node sends
    # to its parent only after all its children arrived), then gated
    # broadcast-down (a node fans out only after its parent's chunk
    # arrived).
    # ------------------------------------------------------------------
    def _tree_allreduce(self, index: int) -> None:
        group = self._groups[index]
        members = group.members
        n = len(members)
        children = {i: [c for c in (2 * i + 1, 2 * i + 2) if c < n] for i in range(n)}
        waiting = {i: len(children[i]) for i in range(n)}

        def reduce_up(node: int) -> None:
            if node == 0:
                broadcast_down(0)
                return
            parent = (node - 1) // 2
            self._send(
                members[node],
                members[parent],
                self.config.chunk_bytes,
                lambda _record, p=parent: arrived(p),
            )

        def arrived(node: int) -> None:
            waiting[node] -= 1
            if waiting[node] == 0:
                reduce_up(node)

        def broadcast_down(node: int) -> None:
            kids = children[node]
            if not kids:
                group.pending -= 1
                if group.pending == 0:
                    self._finish_iteration(index)
                return
            for kid in kids:
                self._send(
                    members[node],
                    members[kid],
                    self.config.chunk_bytes,
                    lambda _record, k=kid: broadcast_down(k),
                )

        # Leaves of the broadcast phase are what terminate the
        # iteration; count them up front.
        group.pending = sum(1 for i in range(n) if not children[i])
        for i in range(n):
            if waiting[i] == 0 and i != 0:
                reduce_up(i)
        if waiting[0] == 0:
            # Degenerate 1-2 rank trees: root has all inputs already.
            broadcast_down(0)

    # ------------------------------------------------------------------
    def _finish_iteration(self, index: int) -> None:
        group = self._groups[index]
        group.rounds_done += 1
        # Drawn unconditionally — even with compute_s == 0 — so the
        # stream's consumption (and every later draw) is independent of
        # configuration details that should not perturb the workload.
        jitter = self._compute_rng.random()
        gap = self.config.compute_s * (1.0 + self.config.compute_jitter * jitter)
        self.schedule(max(gap, 0.0), self._iteration_starter(index))

    # ------------------------------------------------------------------
    @property
    def rounds_completed(self) -> int:
        """Fully completed iterations across all groups."""
        return sum(group.rounds_done for group in self._groups)

    @property
    def finished(self) -> bool:
        """All groups ran all configured rounds."""
        return all(group.finished or group.rounds_done >= self.config.rounds
                   for group in self._groups)

    def summary(self) -> dict:
        """Manifest-ready workload accounting."""
        return {
            "algorithm": self.config.algorithm,
            "ranks": len(self.ranks),
            "dp_groups": len(self._groups),
            "rounds_requested": self.config.rounds * len(self._groups),
            "rounds_completed": self.rounds_completed,
            "flows_launched": self.flows_launched,
            "bytes_launched": self.bytes_launched,
            "chunks_completed": self.chunks_completed,
        }
