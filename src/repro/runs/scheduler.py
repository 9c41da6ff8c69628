"""Multiprocess sweep scheduler with retries, timeouts, and backoff.

Dispatches a :class:`~repro.runs.spec.ScenarioSpec`'s expanded run list
over a ``concurrent.futures.ProcessPoolExecutor``.  Three properties
matter more than raw parallelism:

* **Exactly-once training.**  Runs are grouped by model fingerprint;
  while a missing fingerprint is being trained by one in-flight run,
  runs needing the same model are held back.  The first run trains and
  stores, the rest load cache hits — a sweep never trains the same
  model twice, no matter the worker count.
* **Failure containment.**  A failing run is retried up to
  ``retries`` times with exponential backoff, then recorded as
  ``failed`` in its durable manifest; the rest of the sweep proceeds.
* **Timeout enforcement.**  A run past its deadline cannot be
  interrupted cooperatively (it is CPU-bound numpy), so the pool's
  worker processes are terminated and the executor rebuilt; innocent
  in-flight runs are requeued without consuming an attempt.

``workers=0`` runs everything inline in the calling process (no
timeout enforcement) — handy for benchmarks and debugging.
"""

from __future__ import annotations

import json
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.core.hybrid import hot_path_summary
from repro.obs import MetricsRegistry
from repro.runs.executor import execute_run
from repro.runs.fingerprint import model_fingerprint
from repro.runs.manifest import RunManifest, summarize_statuses
from repro.runs.registry import ModelRegistry
from repro.runs.spec import MODEL_STAGES, RunRequest, ScenarioSpec

SWEEP_SUMMARY_NAME = "sweep.json"


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of one sweep submission.

    ``retries`` counts *additional* attempts after the first failure,
    so a run executes at most ``retries + 1`` times.  ``timeout_s``
    bounds one attempt's wall-clock (``None`` disables; requires
    ``workers >= 1``).
    """

    workers: int = 1
    timeout_s: Optional[float] = None
    retries: int = 1
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    poll_s: float = 0.05

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = inline)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.timeout_s is not None and self.workers == 0:
            raise ValueError("timeout_s requires workers >= 1 (inline runs cannot be killed)")


@dataclass
class _RunState:
    request: RunRequest
    fingerprint: Optional[str]
    attempts: int = 0
    ready_at: float = 0.0
    manifest: Optional[dict[str, Any]] = field(default=None)

    @property
    def done(self) -> bool:
        return self.manifest is not None


class SweepScheduler:
    """Executes one spec's sweep and returns its manifests in order."""

    def __init__(
        self,
        spec: ScenarioSpec,
        out_dir: str | Path,
        registry_root: Optional[str | Path] = None,
        config: Optional[SchedulerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.config = config or SchedulerConfig()
        #: Scheduler-side observability (dispatch latency, retry and
        #: timeout counts).  Workers keep their own per-run registries;
        #: this one watches the orchestration.  Disabled by default —
        #: every span/counter then resolves to a shared no-op.
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        if registry_root is None and any(stage in MODEL_STAGES for stage in spec.stages):
            registry_root = self.out_dir / "models"
        self.registry_root = Path(registry_root) if registry_root is not None else None
        self._registry = (
            ModelRegistry(self.registry_root) if self.registry_root is not None else None
        )

    # ------------------------------------------------------------------
    def submit(self) -> list[RunManifest]:
        """Expand, dispatch, and block until every run is terminal."""
        with self.metrics.span("sweep.submit"):
            requests = self.spec.expand()
            self.out_dir.mkdir(parents=True, exist_ok=True)
            states = [
                _RunState(request=request, fingerprint=self._fingerprint_of(request))
                for request in requests
            ]
            self._write_summary(states, started_at=time.time(), finished_at=None)
            if self.config.workers == 0:
                self._run_inline(states)
            else:
                self._run_pool(states)
            self._write_summary(states, started_at=None, finished_at=time.time())
        return [RunManifest.from_dict(state.manifest) for state in states]

    # ------------------------------------------------------------------
    def _fingerprint_of(self, request: RunRequest) -> Optional[str]:
        if not request.needs_model:
            return None
        assert request.training is not None and request.micro is not None
        return model_fingerprint(request.training, request.micro)

    def _registry_arg(self) -> Optional[str]:
        return str(self.registry_root) if self.registry_root is not None else None

    def _backoff(self, attempts: int) -> float:
        return self.config.backoff_s * (self.config.backoff_factor ** max(attempts - 1, 0))

    # ------------------------------------------------------------------
    def _run_inline(self, states: list[_RunState]) -> None:
        for state in states:
            while not state.done:
                state.attempts += 1
                self.metrics.counter("sweep.runs_dispatched").inc()
                with self.metrics.span("sweep.run_inline"):
                    manifest = execute_run(
                        state.request, str(self.out_dir), self._registry_arg(), state.attempts
                    )
                if manifest["status"] == "completed" or state.attempts > self.config.retries:
                    state.manifest = manifest
                    self.metrics.counter(
                        "sweep.runs_settled", status=manifest["status"]
                    ).inc()
                else:
                    self.metrics.counter("sweep.runs_retried").inc()
                    time.sleep(self._backoff(state.attempts))

    # ------------------------------------------------------------------
    def _run_pool(self, states: list[_RunState]) -> None:
        pending: deque[_RunState] = deque(states)
        inflight: dict[Future, tuple[_RunState, Optional[float]]] = {}
        training_inflight: set[str] = set()
        executor = ProcessPoolExecutor(max_workers=self.config.workers)
        try:
            while pending or inflight:
                now = time.monotonic()
                self._dispatch(executor, pending, inflight, training_inflight, now)
                if not inflight:
                    time.sleep(self.config.poll_s)
                    continue
                done, _ = wait(
                    list(inflight), timeout=self.config.poll_s, return_when=FIRST_COMPLETED
                )
                for future in done:
                    state, _deadline = inflight.pop(future)
                    if state.fingerprint is not None:
                        training_inflight.discard(state.fingerprint)
                    self._absorb(future, state, pending)
                executor = self._reap_timeouts(
                    executor, pending, inflight, training_inflight
                )
        except BaseException:
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        # Drained: join the pool's workers and management thread here
        # rather than leave them to the interpreter's exit hook.
        executor.shutdown(wait=True)

    def _dispatch(
        self,
        executor: ProcessPoolExecutor,
        pending: deque[_RunState],
        inflight: dict[Future, tuple[_RunState, Optional[float]]],
        training_inflight: set[str],
        now: float,
    ) -> None:
        """Submit ready runs into free worker slots (fingerprint-aware)."""
        free = self.config.workers - len(inflight)
        if free <= 0:
            return
        held: list[_RunState] = []
        with self.metrics.span("sweep.dispatch"):
            while pending and free > 0:
                state = pending.popleft()
                if state.ready_at > now:
                    held.append(state)
                    continue
                fingerprint = state.fingerprint
                if fingerprint is not None and self._registry is not None:
                    if not self._registry.contains(fingerprint):
                        if fingerprint in training_inflight:
                            held.append(state)  # the trainer run will unlock us
                            self.metrics.counter("sweep.runs_held_for_model").inc()
                            continue
                        training_inflight.add(fingerprint)
                state.attempts += 1
                deadline = (
                    now + self.config.timeout_s if self.config.timeout_s is not None else None
                )
                future = executor.submit(
                    execute_run,
                    state.request,
                    str(self.out_dir),
                    self._registry_arg(),
                    state.attempts,
                )
                self.metrics.counter("sweep.runs_dispatched").inc()
                inflight[future] = (state, deadline)
                free -= 1
        pending.extendleft(reversed(held))

    def _absorb(
        self, future: Future, state: _RunState, pending: deque[_RunState]
    ) -> None:
        """Fold one finished future into the run's state (retry or settle)."""
        try:
            manifest = future.result()
        except Exception as error:  # worker died before producing a manifest
            manifest = self._parent_side_manifest(
                state,
                status="failed",
                error={
                    "type": type(error).__name__,
                    "message": str(error),
                    "traceback": f"worker process failed before reporting: {error}",
                },
            )
        if manifest["status"] == "completed" or state.attempts > self.config.retries:
            state.manifest = manifest
            self.metrics.counter("sweep.runs_settled", status=manifest["status"]).inc()
        else:
            self.metrics.counter("sweep.runs_retried").inc()
            state.ready_at = time.monotonic() + self._backoff(state.attempts)
            pending.append(state)

    def _reap_timeouts(
        self,
        executor: ProcessPoolExecutor,
        pending: deque[_RunState],
        inflight: dict[Future, tuple[_RunState, Optional[float]]],
        training_inflight: set[str],
    ) -> ProcessPoolExecutor:
        """Kill the pool if any run blew its deadline; requeue the rest."""
        now = time.monotonic()
        expired = [
            future
            for future, (_state, deadline) in inflight.items()
            if deadline is not None and now > deadline and not future.done()
        ]
        if not expired:
            return executor
        self.metrics.counter("sweep.timeouts").inc(len(expired))
        for future, (state, deadline) in list(inflight.items()):
            if state.fingerprint is not None:
                training_inflight.discard(state.fingerprint)
            if future in expired:
                manifest = self._parent_side_manifest(
                    state,
                    status="timeout",
                    error={
                        "type": "TimeoutError",
                        "message": (
                            f"attempt {state.attempts} exceeded "
                            f"{self.config.timeout_s:.3f}s; worker terminated"
                        ),
                        "traceback": "",
                    },
                )
                if state.attempts > self.config.retries:
                    state.manifest = manifest
                else:
                    state.ready_at = now + self._backoff(state.attempts)
                    pending.append(state)
            else:
                # Innocent bystander: its worker dies with the pool, so
                # give the attempt back and rerun it.
                state.attempts -= 1
                pending.appendleft(state)
        inflight.clear()
        self._kill_executor(executor)
        return ProcessPoolExecutor(max_workers=self.config.workers)

    @staticmethod
    def _kill_executor(executor: ProcessPoolExecutor) -> None:
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            process.terminate()
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join(timeout=5)

    # ------------------------------------------------------------------
    def _parent_side_manifest(
        self, state: _RunState, status: str, error: dict[str, str]
    ) -> dict[str, Any]:
        """Settle a run whose worker could not write its own outcome.

        Builds on the ``running`` manifest the worker persisted at
        start (if any), so config/seed provenance is kept.
        """
        from repro.runs.fingerprint import experiment_hash, experiment_payload

        request = state.request
        run_dir = self.out_dir / request.run_id
        try:
            manifest = RunManifest.load(run_dir)
        except (OSError, json.JSONDecodeError, TypeError, KeyError):
            manifest = RunManifest(
                run_id=request.run_id,
                spec_name=request.spec_name,
                stage=request.stage,
                status=status,
                attempts=state.attempts,
                axes=dict(request.axes),
                seed_master=request.seed_master,
                seed_derived=request.seed_derived,
                config=experiment_payload(request.experiment),
                config_hash=experiment_hash(request.experiment),
                started_at=time.time(),
            )
        manifest.status = status
        manifest.attempts = state.attempts
        manifest.error = error
        manifest.finished_at = time.time()
        if manifest.started_at is not None:
            manifest.wallclock_seconds = manifest.finished_at - manifest.started_at
        if manifest.hot_path_counters is None:
            manifest.hot_path_counters = hot_path_summary({})
        manifest.save(run_dir)
        return manifest.to_dict()

    # ------------------------------------------------------------------
    def _write_summary(
        self,
        states: list[_RunState],
        started_at: Optional[float],
        finished_at: Optional[float],
    ) -> None:
        path = self.out_dir / SWEEP_SUMMARY_NAME
        existing: dict[str, Any] = {}
        if path.exists():
            try:
                existing = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                existing = {}
        statuses = {
            state.request.run_id: (state.manifest or {}).get("status", "pending")
            for state in states
        }
        summary = {
            "spec": self.spec.to_dict(),
            "run_ids": [state.request.run_id for state in states],
            "statuses": statuses,
            "status_counts": summarize_statuses(
                RunManifest.from_dict(state.manifest) for state in states if state.done
            ),
            "registry": self._registry_arg(),
            "started_at": started_at or existing.get("started_at"),
            "finished_at": finished_at,
        }
        path.write_text(json.dumps(summary, indent=2, sort_keys=True))
