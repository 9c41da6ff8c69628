"""Hybrid simulation assembly: one full cluster + N-1 approximations.

Section 5: "In our prototype, a single cluster and all core switches
are implemented in full fidelity.  Approximated clusters run full TCP
stacks because it is more efficient to implement them than try to
learn the TCP state machine."  This module builds exactly that
configuration:

* the full-fidelity cluster keeps its real switches;
* every other cluster's ToR and Cluster switches are excluded from the
  network, and every port that pointed at them is rewired to that
  cluster's :class:`~repro.core.cluster_model.ApproximatedCluster`;
* all hosts everywhere are real (full TCP stacks);
* all core switches are real;
* optionally, flows whose endpoints both avoid the full-fidelity
  cluster are elided from the schedule (Section 6.2's second source of
  speedup — they "do not directly affect the measurements of the fully
  simulated cluster").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from repro.core.cluster_model import ApproximatedCluster
from repro.core.region import Region
from repro.core.training import TrainedClusterModel
from repro.des.kernel import Simulator
from repro.net.failures import FailureInjector
from repro.net.network import Network, NetworkConfig
from repro.topology.graph import Topology
from repro.topology.routing import make_routing

#: Key under which the rest-of-network model appears in
#: :attr:`HybridSimulation.models` when single-black-box mode is on.
BLACK_BOX_KEY = -1


#: The additive hot-path counters: summable over clusters and workers.
HOT_PATH_TOTALS = (
    "model_packets",
    "model_drops",
    "inference_seconds",
    "batched_rounds",
    "batched_packets",
    "batch_flushes",
    "scalar_fallbacks",
    "memo_hits",
    "memo_misses",
)


def hot_path_summary(
    totals: Mapping[str, float], wallclock_s: Optional[float] = None
) -> dict[str, float]:
    """The manifest's hot-path block from additive totals.

    Stable schema: every key is present (zeroed) even when batching is
    off or no model ran, so manifests and sweeps can always compare
    them across configurations.  With ``wallclock_s`` (the run's total
    wall-clock) the inference share and packet throughput are included.
    Every ratio is guarded against zero packets / zero wall-clock
    (degenerate but reachable: an empty workload, a crashed attempt) so
    manifests never carry ``inf``/``NaN`` — both are invalid JSON.
    """
    counters = {key: float(totals.get(key, 0.0)) for key in HOT_PATH_TOTALS}
    packets = counters["model_packets"]
    inference = counters["inference_seconds"]
    memo_total = counters["memo_hits"] + counters["memo_misses"]
    counters["inference_seconds_per_packet"] = inference / packets if packets else 0.0
    counters["memo_hit_rate"] = counters["memo_hits"] / memo_total if memo_total else 0.0
    if wallclock_s is not None:
        positive = wallclock_s > 0
        counters["inference_share"] = inference / wallclock_s if positive else 0.0
        counters["model_packets_per_sec"] = packets / wallclock_s if positive else 0.0
    return counters


class ShardableHybrid:
    """Ownership seam between :class:`HybridSimulation` and PDES shards.

    A hybrid world is assembled against one of these: it answers *which
    nodes this process owns* and *how to reach the rest*.  The default
    instance owns everything, so the single-process hybrid is exactly a
    one-worker shard — :mod:`repro.pdes.hybrid_shard` builds the same
    :class:`HybridSimulation`, just with a partial ownership set, stub
    receivers for remote ports, and decision-time proxies for remote
    model egress.

    Parameters
    ----------
    owned_nodes:
        Node names this shard owns, or ``None`` to own the whole
        topology.  Approximated clusters must be atomic: a cluster's
        fabric names and hosts all owned or all remote (the model's
        recurrent state cannot be split).
    remote_receiver:
        ``(sim, name) -> receiver`` factory for ports whose peer is
        remote (a :class:`~repro.pdes.stub.RemoteStub` in the PDES
        worker; it stamps deliveries with the assembly's clock).
    remote_entity:
        ``name -> entity`` factory for model egress targets that are
        remote (a :class:`~repro.pdes.stub.RemoteEntityProxy`).
    """

    def __init__(
        self,
        owned_nodes=None,
        remote_receiver=None,
        remote_entity=None,
    ) -> None:
        self.owned_nodes = (
            frozenset(owned_nodes) if owned_nodes is not None else None
        )
        self._remote_receiver = remote_receiver
        self._remote_entity = remote_entity

    @property
    def is_sharded(self) -> bool:
        """True when this shard owns only part of the topology."""
        return self.owned_nodes is not None

    def owns(self, name: str) -> bool:
        """Does this shard own ``name``?"""
        return self.owned_nodes is None or name in self.owned_nodes

    def remote_receiver(self, sim: Simulator, name: str):
        """Receiver standing in for the remote node ``name``."""
        if self._remote_receiver is None:
            raise ValueError(
                f"node {name!r} is not owned by this shard and no "
                "remote_receiver factory was provided"
            )
        return self._remote_receiver(sim, name)

    def remote_entity(self, name: str):
        """Egress target standing in for the remote node ``name``."""
        if self._remote_entity is None:
            raise ValueError(
                f"model egress target {name!r} is not owned by this shard "
                "and no remote_entity factory was provided"
            )
        return self._remote_entity(name)


@dataclass(frozen=True)
class HybridConfig:
    """Options of a hybrid assembly.

    Attributes
    ----------
    full_cluster:
        Index of the cluster kept at full fidelity (the observation
        region; data center symmetry makes the choice arbitrary).
    elide_remote_traffic:
        Skip flows between two approximated clusters entirely.
    macro_bucket_s:
        Macro classifier bucket for the runtime classifiers.
    single_black_box:
        Section 7's limit case: instead of one model per approximated
        cluster, replace *everything* outside the full cluster — core
        layer included — with one rest-of-network model.  The trained
        bundle should then come from a rest-of-network trace
        (``Region.rest_of_network``), not a single-cluster trace.
    use_fused_inference:
        Run approximated clusters on the fused, allocation-free
        inference engine (:mod:`repro.nn.infer`).  Default on; off
        falls back to the reference ``predict_step`` oracle path.
    inference_dtype:
        Engine precision — ``"float64"`` (default, reference-exact to
        <= 1e-9) or ``"float32"`` (opt-in speed mode).
    batch_window_s:
        Event-horizon inference batching window (see
        :mod:`repro.core.batcher`): packets arriving at any
        approximated cluster within the window are flushed as one
        stacked GEMM round.  Clamped to the causality bound
        (``MIN_REGION_LATENCY_S``); ``0`` (default) disables batching.
        Requires ``use_fused_inference``.
    memoize_inference:
        Steady-state memoization on the batched engines (see
        :class:`~repro.nn.batch.MemoConfig`): repeated
        (features, hidden state, macro) transitions replay from a
        cache instead of running the model.  Only takes effect with a
        positive ``batch_window_s``.
    memo_exact:
        Require exact array equality on cache hits (default): memoized
        runs stay bit-identical to unmemoized ones.  Off allows
        quantized-key hits — much higher hit rates under near-periodic
        traffic, gated by ``repro validate`` instead of exactness.
    memo_feature_decimals, memo_state_decimals:
        Quantization (decimal places) of the cache keys.
    memo_max_entries:
        FIFO capacity of each engine's cache.
    """

    full_cluster: int = 0
    elide_remote_traffic: bool = True
    macro_bucket_s: float = 0.001
    single_black_box: bool = False
    use_fused_inference: bool = True
    inference_dtype: str = "float64"
    batch_window_s: float = 0.0
    memoize_inference: bool = False
    memo_exact: bool = True
    memo_feature_decimals: int = 6
    memo_state_decimals: int = 4
    memo_max_entries: int = 8192


class HybridSimulation:
    """A network where most cluster fabrics are ML models.

    Parameters
    ----------
    sim:
        Simulator to build into.
    topology:
        The full Clos topology (all clusters, as if fully simulated).
    trained:
        The reusable cluster model (trained on a small topology) — the
        paper's configuration, where data center symmetry lets one
        model stand in for every cluster.  Alternatively a mapping
        ``cluster index -> model`` assigns independently trained models
        per cluster (the Section 7 "trained independently" question);
        it must cover every approximated cluster.  ``None`` means no
        cluster is approximated: the assembly is the full packet-level
        simulation (same network, routing, failures, taps).
    net_config:
        Queue/TCP parameters — should match what training used.
    config:
        Hybrid options.
    invariants:
        Optional :class:`~repro.validate.InvariantChecker`; handed to
        every approximated cluster so model deliveries are checked for
        causality, FCFS monotonicity, and latency bounds.  (Attach it
        to the kernel separately via ``attach_simulator`` to also
        observe scheduling calls.)
    tracer:
        Optional :class:`~repro.obs.trace.FlightRecorder`; handed to
        every approximated cluster (``model.decide``/``model.drop``
        records) and to the inference batcher (``batch.round``).  Wire
        the same recorder into the traffic generator to get end-to-end
        flow timelines.

    Attributes
    ----------
    network:
        The underlying :class:`~repro.net.network.Network` with
        approximated fabrics excluded.
    models:
        cluster index -> :class:`ApproximatedCluster`.
    fabric_models:
        replaced switch name -> the model standing in for it
        (how a PDES worker routes a remote packet addressed to e.g.
        ``agg-c3-0``).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        trained: Union[
            TrainedClusterModel, Mapping[int, TrainedClusterModel], None
        ] = None,
        net_config: Optional[NetworkConfig] = None,
        config: Optional[HybridConfig] = None,
        metrics=None,
        invariants=None,
        shard: Optional[ShardableHybrid] = None,
        tracer=None,
        routing_config=None,
        failures=(),
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.trained = trained
        self.config = config or HybridConfig()
        #: Optional :class:`~repro.obs.trace.FlightRecorder` shared by
        #: the models and the batcher (same handle contract as metrics).
        self.tracer = tracer
        #: Ownership seam (see :class:`ShardableHybrid`); the default
        #: owns everything — the single-process path *is* the 1-worker
        #: shard.
        self.shard = shard or ShardableHybrid()
        #: Optional :class:`~repro.obs.MetricsRegistry`; handed to every
        #: approximated cluster (per-packet instrument handles resolve
        #: there, at construction) and installed on the kernel so the
        #: event loop is span-profiled under the same registry.
        self.metrics = metrics
        if metrics is not None:
            sim.metrics = metrics
        net_config = net_config or NetworkConfig()

        cluster_ids = topology.cluster_ids()
        if self.config.full_cluster not in cluster_ids:
            raise ValueError(
                f"full_cluster={self.config.full_cluster} not in topology clusters {cluster_ids}"
            )
        self.full_cluster = self.config.full_cluster
        self.approx_clusters = (
            [c for c in cluster_ids if c != self.full_cluster]
            if trained is not None
            else []
        )

        routing = make_routing(topology, routing_config)
        self.models: dict[int, ApproximatedCluster] = {}
        self.fabric_models: dict[str, ApproximatedCluster] = {}
        excluded: set[str] = set()
        per_cluster_models = isinstance(trained, Mapping)

        def make_model(region, bundle, stream: str) -> ApproximatedCluster:
            return ApproximatedCluster(
                sim=sim,
                topology=topology,
                routing=routing,
                region=region,
                trained=bundle,
                resolve_entity=self._resolve_entity,
                rng=sim.rng.stream(stream),
                macro_bucket_s=self.config.macro_bucket_s,
                use_fused=self.config.use_fused_inference,
                inference_dtype=self.config.inference_dtype,
                metrics=metrics,
                invariants=invariants,
                tracer=tracer,
            )

        if self.config.single_black_box and trained is not None:
            if self.shard.is_sharded:
                raise ValueError(
                    "single_black_box mode cannot be sharded: the one "
                    "rest-of-network model has nowhere to split"
                )
            if per_cluster_models:
                raise ValueError(
                    "single_black_box mode takes one rest-of-network model, "
                    "not a per-cluster mapping"
                )
            region = Region.rest_of_network(topology, self.full_cluster)
            model = make_model(region, trained, "approx-blackbox.drops")
            self.models[BLACK_BOX_KEY] = model
            excluded.update(region.switches)
            self.fabric_models.update(dict.fromkeys(region.switches, model))
        else:
            if per_cluster_models:
                missing = [c for c in self.approx_clusters if c not in trained]
                if missing:
                    raise ValueError(
                        f"per-cluster model mapping is missing clusters {missing}"
                    )
            for cluster in self.approx_clusters:
                region = Region.cluster(topology, cluster)
                fabric = region.switches
                excluded.update(fabric)
                # Cluster atomicity: the shard owns all of a cluster's
                # fabric names or none of them (the model's recurrent
                # state lives in exactly one worker).
                owned_fabric = [name for name in fabric if self.shard.owns(name)]
                if owned_fabric and len(owned_fabric) != len(fabric):
                    raise ValueError(
                        f"shard splits approximated cluster {cluster}: owns "
                        f"{sorted(owned_fabric)} but not the rest of {sorted(fabric)}"
                    )
                if not owned_fabric:
                    # Remote cluster: its model lives in another worker;
                    # any local port pointing at its fabric gets a
                    # remote receiver (the worker's stub).
                    continue
                model = make_model(
                    region,
                    trained[cluster] if per_cluster_models else trained,
                    f"approx-cluster-{cluster}.drops",
                )
                self.models[cluster] = model
                self.fabric_models.update(dict.fromkeys(fabric, model))
        overrides: dict[str, object] = dict(self.fabric_models)

        if self.shard.is_sharded:
            # Exclude every remote real node, then wire the ports of
            # owned nodes that point across the shard boundary to the
            # shard's remote receivers (stubs that re-add link delay).
            for node in topology.nodes:
                if not self.shard.owns(node.name):
                    excluded.add(node.name)
            for link in topology.links:
                for owner, peer in ((link.a, link.b), (link.b, link.a)):
                    if owner in excluded:
                        continue
                    if peer in excluded and peer not in overrides:
                        overrides[peer] = self.shard.remote_receiver(sim, peer)

        self.network = Network(
            sim,
            topology,
            config=net_config,
            routing=routing,
            excluded_nodes=excluded,
            receiver_overrides=overrides,
        )
        #: Deterministic link failure/recovery schedule (no-op when the
        #: experiment declares none).  Table rebuilds cover the whole
        #: routing object, so model path features and the fluid tier
        #: see failures too.
        self.failure_injector = FailureInjector(sim, routing, failures, tracer=tracer)
        if invariants is not None:
            invariants.watch_network(self.network)
        self._cluster_of = {
            node.name: node.cluster for node in topology.servers()
        }

        #: The shared :class:`~repro.core.batcher.InferenceBatcher`
        #: (``None`` when ``batch_window_s == 0``).
        self.batcher = None
        self._batch_engines: list = []
        if self.config.batch_window_s > 0:
            self._enable_batching(metrics)

    # ------------------------------------------------------------------
    def _enable_batching(self, metrics) -> None:
        """Wire every approximated cluster into one shared batcher.

        Clusters sharing a compiled direction model (the paper's
        reusable-model configuration — and the common case) become
        lanes of one :class:`~repro.nn.batch.BatchedFusedEngine`, so a
        flush round advances all of them with a single stacked GEMM.
        Independently trained per-cluster models simply form more
        groups with fewer lanes each.
        """
        from repro.core.batcher import InferenceBatcher
        from repro.nn.batch import MemoConfig, make_batched_engine

        config = self.config
        if not config.use_fused_inference:
            raise ValueError(
                "batch_window_s requires use_fused_inference=True "
                "(the reference predict_step path has no batched form)"
            )
        memo = None
        if config.memoize_inference:
            memo = MemoConfig(
                feature_decimals=config.memo_feature_decimals,
                state_decimals=config.memo_state_decimals,
                max_entries=config.memo_max_entries,
                exact=config.memo_exact,
            )
        # Group (cluster, direction) pairs by compiled weight identity.
        # Iteration over self.models is insertion-ordered, making lane
        # assignment (and therefore the whole run) deterministic.
        groups: dict[int, list] = {}
        for model in self.models.values():
            compiled = model.trained.compiled(config.inference_dtype)
            for direction, compiled_dir in compiled.directions.items():
                groups.setdefault(id(compiled_dir), []).append(
                    (model, direction, compiled_dir)
                )
        self._batch_engines = []
        for members in groups.values():
            compiled_dir = members[0][2]
            direction = members[0][1]
            engine = make_batched_engine(
                compiled_dir,
                n_lanes=len(members),
                memo=memo,
                metrics=metrics,
                direction_label=direction.name.lower(),
            )
            self._batch_engines.append(engine)
            for row, (model, member_direction, _) in enumerate(members):
                model.set_batch_engine(member_direction, engine, row)
        self.batcher = InferenceBatcher(
            self.sim, config.batch_window_s, metrics=metrics, tracer=self.tracer
        )
        for model in self.models.values():
            model.enable_batching(self.batcher)

    def flush_inference(self) -> None:
        """Flush any held packets (no-op without batching).

        Must run before anything reads model state — end of run,
        observability sampling, conservation checks.
        """
        if self.batcher is not None:
            self.batcher.flush()

    # ------------------------------------------------------------------
    def _resolve_entity(self, name: str) -> object:
        """Late-bound entity lookup for model egress deliveries.

        Local hosts and switches resolve directly; anything else is a
        remote egress target and resolves through the shard seam (a
        decision-time proxy in PDES workers; an error in the default
        full-ownership shard, where every target must be local).
        """
        host = self.network.hosts.get(name)
        if host is not None:
            return host
        switch = self.network.switches.get(name)
        if switch is not None:
            return switch
        return self.shard.remote_entity(name)

    # ------------------------------------------------------------------
    def flow_filter(self, src: str, dst: str) -> bool:
        """Keep a flow iff it touches the full-fidelity cluster.

        With ``elide_remote_traffic`` disabled, everything is kept
        (approximated clusters then also carry background traffic).
        """
        if not self.config.elide_remote_traffic:
            return True
        return (
            self._cluster_of[src] == self.full_cluster
            or self._cluster_of[dst] == self.full_cluster
        )

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def model_packets_handled(self) -> int:
        """Packets processed by all approximated clusters."""
        return sum(m.packets_handled for m in self.models.values())

    def model_drops(self) -> int:
        """Packets dropped by model decisions."""
        return sum(m.packets_dropped for m in self.models.values())

    def inference_seconds(self) -> float:
        """Wall-clock spent inside model inference, all clusters."""
        return sum(m.inference_seconds for m in self.models.values())

    def hot_path_counters(self, wallclock_s: Optional[float] = None) -> dict[str, float]:
        """Hot-path health snapshot for the approximated clusters
        (see :func:`hot_path_summary` for the schema)."""
        totals = {
            "model_packets": self.model_packets_handled(),
            "model_drops": self.model_drops(),
            "inference_seconds": self.inference_seconds(),
        }
        batcher = self.batcher
        if batcher is not None:
            totals.update(
                batched_rounds=batcher.batched_rounds,
                batched_packets=batcher.batched_packets,
                batch_flushes=batcher.flushes,
                scalar_fallbacks=batcher.scalar_fallbacks,
                memo_hits=sum(e.memo_hits for e in self._batch_engines),
                memo_misses=sum(e.memo_misses for e in self._batch_engines),
            )
        return hot_path_summary(totals, wallclock_s)

    def observed_rtt_samples(self) -> list[float]:
        """RTTs observed by the full-fidelity cluster's hosts.

        The paper draws its accuracy comparison (Figure 4) from the
        fully simulated region.  A PDES shard that owns none of the
        full cluster's hosts has no monitor and reports no samples.
        """
        monitor = self.network.rtt_monitors.get(self.full_cluster)
        if monitor is None:
            return []
        return monitor.values.tolist()
