"""Partition-aggregate (query fan-out) workload.

The web-search traffic the paper's evaluation draws on is generated by
the partition-aggregate pattern (the DCTCP paper's subject): a root
server fans a small request out to many workers; each worker replies
with a response; the query completes when the *last* response arrives.
The synchronized responses are exactly the incast that drives the
minimum-window pathology of Section 2.1, which is why a realistic
generator for it belongs in the substrate.

:class:`PartitionAggregateGenerator` produces Poisson query arrivals:
per query, a uniformly chosen root opens request flows to ``fanout``
distinct workers; each completed request triggers the worker's
response flow; query completion time (QCT) is recorded when every
response finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.des.entities import Entity
from repro.des.kernel import Simulator
from repro.net.network import Network

#: Request size: a query/RPC header-and-keys message (2 KB).
DEFAULT_REQUEST_BYTES = 2_000


@dataclass
class QueryRecord:
    """Bookkeeping for one partition-aggregate query."""

    root: str
    workers: list[str]
    response_bytes: int
    start_time: float
    responses_done: int = 0
    completion_time: Optional[float] = None
    response_fcts: list[float] = field(default_factory=list)

    @property
    def qct(self) -> Optional[float]:
        """Query completion time (None while in flight)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.start_time

    @property
    def straggler_ratio(self) -> Optional[float]:
        """Slowest/median response FCT — the tail-at-scale signature."""
        if self.completion_time is None or len(self.response_fcts) < 2:
            return None
        ordered = sorted(self.response_fcts)
        median = ordered[len(ordered) // 2]
        return ordered[-1] / median if median > 0 else None


class PartitionAggregateGenerator(Entity):
    """Poisson partition-aggregate query generator.

    Parameters
    ----------
    sim, network:
        The simulation and network to load.
    queries_per_s:
        Query arrival rate.
    fanout:
        Workers per query (sampled uniformly, excluding the root).
    response_bytes:
        Per-worker response size.
    request_bytes:
        Per-worker request size.
    max_queries:
        Stop after this many queries (None = unbounded).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        queries_per_s: float,
        fanout: int,
        response_bytes: int,
        request_bytes: int = DEFAULT_REQUEST_BYTES,
        max_queries: Optional[int] = None,
    ) -> None:
        super().__init__(sim, "partition-aggregate")
        servers = [node.name for node in network.topology.servers()]
        if fanout < 1 or fanout > len(servers) - 1:
            raise ValueError(
                f"fanout must be in [1, {len(servers) - 1}], got {fanout}"
            )
        if queries_per_s <= 0:
            raise ValueError(f"queries_per_s must be positive, got {queries_per_s}")
        self.network = network
        self.servers = servers
        self.queries_per_s = queries_per_s
        self.fanout = fanout
        self.response_bytes = response_bytes
        self.request_bytes = request_bytes
        self.max_queries = max_queries

        self.queries: list[QueryRecord] = []
        self.queries_completed = 0
        self._rng = sim.rng.stream("partition_aggregate")
        self._started = False

    def start(self) -> None:
        """Arm the first query arrival (idempotent)."""
        if not self._started:
            self._started = True
            self._schedule_next()

    def _schedule_next(self) -> None:
        if self.max_queries is not None and len(self.queries) >= self.max_queries:
            return
        gap = float(self._rng.exponential(1.0 / self.queries_per_s))
        self.schedule(gap, self._launch_query)

    def _launch_query(self) -> None:
        root = self.servers[self._rng.integers(len(self.servers))]
        candidates = [s for s in self.servers if s != root]
        picks = self._rng.choice(len(candidates), size=self.fanout, replace=False)
        workers = [candidates[i] for i in picks]
        record = QueryRecord(
            root=root,
            workers=workers,
            response_bytes=self.response_bytes,
            start_time=self.now,
        )
        self.queries.append(record)
        self._schedule_next()
        root_host = self.network.host(root)
        for worker in workers:
            worker_host = self.network.host(worker)

            def on_request_done(
                _fct: float, worker_host=worker_host, record=record
            ) -> None:
                self._send_response(worker_host, record)

            sender = root_host.open_flow(
                worker_host, self.request_bytes, on_complete=on_request_done
            )
            sender.start()

    def _send_response(self, worker_host, record: QueryRecord) -> None:
        root_host = self.network.host(record.root)

        def on_response_done(fct: float, record=record) -> None:
            record.responses_done += 1
            record.response_fcts.append(fct)
            if record.responses_done == len(record.workers):
                record.completion_time = self.now
                self.queries_completed += 1

        sender = worker_host.open_flow(
            root_host, record.response_bytes, on_complete=on_response_done
        )
        sender.start()

    # ------------------------------------------------------------------
    def completed_qcts(self) -> list[float]:
        """QCTs of all completed queries."""
        return [q.qct for q in self.queries if q.qct is not None]
