"""Measure one workload in this process: trials, checks, metrics.

An untraced run times trials for ``seconds`` and reports the end-to-end
metrics.  Each trial draws its own traffic (:func:`trial_seed`): a
scenario here starts ~100 heavy-tailed flows, so the mix of work — and
with it the cost per event — moves with the draw, and a run that
reports the median over several draws is steadier than one that times
the same draw repeatedly.

A traced run reports the per-layer metrics on the first trial's draw:
the reference runs on the same scenario and seed, one untraced trial
(counters, whole-run numbers), the same trial again under the tracer
(whose signature must not change) and the micro-probes.  No end-to-end
number ever comes from a traced trial.
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from benchmarks.ledger import adapter, probes, tracer
from benchmarks.ledger.metrics import END_TO_END, PER_LAYER
from benchmarks.ledger.workloads import Workload, at_duration, on_engine

CACHE_DIR = Path(__file__).resolve().parent / "out"
WARMUP_SIM_S = 0.001
TRIAL_TIMEOUT_S = 120
MIN_COVERAGE = 0.95


@dataclass(frozen=True)
class Profile:
    """How much work a run does; ``quick`` is the harness's own test."""

    sim_s: Optional[float]  # None: the workload's own duration
    min_trials: int
    train_batches: int
    probe_rep_s: float


PROFILES = {
    "full": Profile(None, 2, adapter.TRAIN_BATCHES, probes.MIN_REP_S),
    "quick": Profile(WARMUP_SIM_S, 1, 20, 0.01),
}


def trial_seed(seed: int, index: int) -> int:
    """The traffic seed of the ``index``-th trial of a run with ``--seed``."""
    return seed * 1000 + index


class TrialTimeout(Exception):
    pass


@contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise TrialTimeout(f"trial exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _cpu_seconds() -> float:
    """User+system CPU of this process and the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


@dataclass
class Trial:
    wall_s: float
    cpu_s: float
    outcome: adapter.Outcome

    def end_to_end(self) -> dict:
        events = self.outcome.events
        return {
            "event_us": self.outcome.loop_s / events * 1e6,
            "cpu_event_us": self.cpu_s / events * 1e6,
            "setup_s": self.wall_s - self.outcome.loop_s,
        }


@dataclass
class Report:
    """One run's result: the operations tally, metrics and details."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    #: Per-trial end-to-end samples, for the ledger's quartiles.
    samples: dict = field(default_factory=dict)
    signature: str = ""
    failures: list = field(default_factory=list)

    def operation(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(name)
            print(f"FAILED {name}", file=sys.stderr)

    def result_line(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


class Runner:
    def __init__(self, workload: Workload, seed: int, profile: Profile) -> None:
        if profile.sim_s is not None:
            workload = at_duration(workload, profile.sim_s)
        self.workload = workload
        self.seed = seed
        self.profile = profile
        CACHE_DIR.mkdir(exist_ok=True)
        self.model_dir, self.model_info = adapter.ensure_model(
            CACHE_DIR, profile.train_batches
        )

    def trial(
        self, workload: Workload, report: Optional[Report], index: int = 0, run=None
    ) -> Optional[Trial]:
        """One timed call of ``workload``; an operation when ``report`` is given.

        ``run`` wraps the call (the tracer); a trial that raises or runs
        past the deadline fails and contributes no timing.
        """
        seed = trial_seed(self.seed, index)
        call = lambda: adapter.execute(workload, seed, self.model_dir)  # noqa: E731
        gc.collect()
        try:
            with _deadline(TRIAL_TIMEOUT_S):
                cpu_before = _cpu_seconds()
                start = time.perf_counter()
                raw = call() if run is None else run(call)
                wall = time.perf_counter() - start
                cpu = _cpu_seconds() - cpu_before
            trial = Trial(wall, cpu, adapter.summarize(workload, raw))
        except Exception:
            traceback.print_exc()
            trial = None
        if report is not None:
            report.operation(f"trial:{workload.engine}", trial is not None)
        return trial

    def checks(self, report: Report, trials: list) -> None:
        """The output checks of the engine and scenario, one operation each."""
        report.signature = trials[0].outcome.signature
        for name in trials[0].outcome.checks:
            report.operation(name, all(t.outcome.checks[name] for t in trials))

    def warm_up(self) -> None:
        self.trial(at_duration(self.workload, WARMUP_SIM_S), None)

    def on_other_engine(self, engine: Optional[str], report: Report) -> Optional[Trial]:
        """The reference or twin run: same scenario and seed, untimed."""
        if engine is None:
            return None
        return self.trial(on_engine(self.workload, engine), report)

    # ------------------------------------------------------------------
    def untraced(self, seconds: float) -> Report:
        report = Report()
        self.warm_up()
        trials = []
        attempts = 0
        started = time.perf_counter()
        while (
            attempts < self.profile.min_trials
            or time.perf_counter() - started < seconds
        ):
            trial = self.trial(self.workload, report, index=attempts)
            attempts += 1
            if trial is not None:
                trials.append(trial)
        if not trials:
            return report
        self.checks(report, trials)
        samples = [t.end_to_end() for t in trials]
        report.samples = {
            name: [sample[name] for sample in samples] for name in samples[0]
        }
        values = {
            name: statistics.median(series) for name, series in report.samples.items()
        }
        values["peak_rss_mb"] = _peak_rss_mb()
        report.metrics = {
            m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END
        }
        return report

    def traced(self) -> Report:
        report = Report()
        workload = self.workload
        self.warm_up()
        reference = self.on_other_engine(workload.reference, report)
        twin = self.on_other_engine(workload.twin, report)
        plain = self.trial(workload, report)
        if report.failed:
            return report
        # Workers of the sharded engine are other processes: its second
        # trial runs untraced, its trace metrics stay 0 and its layer
        # numbers are the pdes.* counters.
        traceable = workload.engine != "sharded"
        layers = {name: {"self_s": 0.0, "calls": 0} for name in tracer.LAYERS}
        traced_wall = 0.0

        def under_tracer(call):
            nonlocal layers, traced_wall
            raw, traced_wall, layers = tracer.trace_call(call, adapter.PACKAGE_ROOT)
            return raw

        again = self.trial(workload, report, run=under_tracer if traceable else None)
        if again is None:
            return report
        report.operation(
            "same_signature_again", again.outcome.signature == plain.outcome.signature
        )
        coverage = overhead = 0.0
        if traceable:
            named = sum(
                layer["self_s"] for name, layer in layers.items() if name != tracer.OTHER
            )
            coverage = named / traced_wall
            overhead = traced_wall / plain.wall_s
            report.operation("trace_coverage", coverage >= MIN_COVERAGE)
        self.checks(report, [plain, again])

        values = {
            **plain.outcome.counters,
            **_layer_metrics(layers),
            "trace.coverage": coverage,
            "trace.overhead_ratio": overhead,
            **_whole_run_metrics(plain, reference, twin),
            **probes.run_probes(self.model_dir, self.profile.probe_rep_s),
        }
        report.metrics = {
            m.name: {"value": float(values[m.name]), "unit": m.unit} for m in PER_LAYER
        }
        return report


def _layer_metrics(layers: dict) -> dict:
    total = sum(layer["self_s"] for layer in layers.values())
    values = {}
    for name, layer in layers.items():
        values[f"{name}.self_s"] = layer["self_s"]
        values[f"{name}.share"] = layer["self_s"] / total if total else 0.0
        values[f"{name}.calls"] = layer["calls"]
    return values


def _whole_run_metrics(plain: Trial, reference: Optional[Trial], twin: Optional[Trial]) -> dict:
    """The untraced trial as a whole, against its reference and twin runs."""
    outcome = plain.outcome
    values = {
        "run.wall_s": plain.wall_s,
        "run.cpu_s": plain.cpu_s,
        "run.sim_us_per_s": outcome.sim_s * 1e6 / outcome.loop_s,
        "validate.fct_n": len(outcome.fcts),
        "validate.rtt_n": len(outcome.rtts),
        # Without a reference the workload is the reference.
        "vs_des.wall_ratio": 1.0,
        "validate.fct_ks": 0.0,
        "validate.rtt_ks": 0.0,
        "pdes.loop_vs_hybrid": 0.0,
        "pdes.outcome_identical": 0.0,
        "pdes.vs_hybrid_fct_ks": 0.0,
    }
    if reference is not None:
        values["vs_des.wall_ratio"] = plain.wall_s / reference.wall_s
        values["validate.fct_ks"] = adapter.ks(reference.outcome.fcts, outcome.fcts)
        values["validate.rtt_ks"] = adapter.ks(reference.outcome.rtts, outcome.rtts)
    if twin is not None:
        values["pdes.loop_vs_hybrid"] = outcome.loop_s / twin.outcome.loop_s
        values["pdes.outcome_identical"] = float(
            outcome.outcome_signature == twin.outcome.outcome_signature
        )
        values["pdes.vs_hybrid_fct_ks"] = adapter.ks(twin.outcome.fcts, outcome.fcts)
    return values
