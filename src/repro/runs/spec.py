"""Declarative experiment scenarios and their deterministic expansion.

A :class:`ScenarioSpec` is the JSON/TOML-loadable description of one
sweep: a base :class:`~repro.core.pipeline.ExperimentConfig`, a
pipeline stage (``simulate`` / ``train`` / ``hybrid`` / ``cascade``
/ ``evaluate`` / ``validate``), and sweep axes.  :meth:`ScenarioSpec.expand` turns it into an ordered
list of :class:`RunRequest` objects — the unit the scheduler dispatches
to worker processes and the manifest layer records.

Seeds are *derived* per run: the spec's master seed plus the run's axis
assignment are hashed into a 31-bit seed, so every point of a sweep
gets an independent-but-reproducible workload stream (same spec + same
master seed => identical derived seeds, always).  Manifests record both
the master and the derived seed.

Stages that need a trained cluster model (``train``, ``hybrid``,
``evaluate``, ``validate``) carry a *training* configuration alongside
the evaluation one.  The training configuration is deliberately **not** reseeded per
run: keeping it constant across the sweep is what makes every run map
to the same model fingerprint, so the registry trains once and serves
cache hits to the rest of the sweep (the paper's Figure 3 economics).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.core.micro import MicroModelConfig
from repro.core.pipeline import ExperimentConfig
from repro.net.network import NetworkConfig
from repro.net.tcp.config import TcpConfig
from repro.runs.executor import stage_configs
from repro.topology.clos import ClosParams

#: Pipeline stages a spec can request.
STAGES = (
    "simulate",
    "train",
    "hybrid",
    "pdes-hybrid",
    "cascade",
    "evaluate",
    "validate",
)

#: Stages that need a trained cluster model (and hence a registry).
MODEL_STAGES = ("train", "hybrid", "pdes-hybrid", "cascade", "evaluate", "validate")

#: Sweep axes and where each one applies.
EXPERIMENT_AXES = ("load", "seed", "duration_s", "matrix", "intra_cluster_fraction")
TOPOLOGY_AXES = ("clusters",)
MICRO_AXES = ("alpha",)
SWEEP_AXES = EXPERIMENT_AXES + TOPOLOGY_AXES + MICRO_AXES

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_SPEC_KEYS = frozenset(
    {
        "name",
        "stage",
        "experiment",
        "training",
        "micro",
        "hybrid",
        "sweep",
        "inject",
        "traffic",
        "routing",
        "failures",
    }
)
_INJECT_KEYS = frozenset({"fail_attempts", "hang_s"})
_TRAFFIC_KEYS = frozenset({"collective"})


#: Keys of a spec's ``experiment`` / ``training`` table: the
#: :class:`ExperimentConfig` fields, plus ``clusters`` (``clos.clusters``).
EXPERIMENT_KEYS = frozenset(f.name for f in fields(ExperimentConfig)) | {"clusters"}


def _build(cls, kwargs: Mapping[str, Any], context: str):
    try:
        return cls(**kwargs)
    except TypeError as error:
        raise ValueError(f"{context}: bad {cls.__name__} parameters: {error}") from None


def experiment_from_dict(
    raw: Mapping[str, Any], *, context: str = "experiment"
) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a spec dictionary.

    ``clusters`` is accepted as a shorthand for ``clos.clusters``; the
    ``clos`` and ``net`` (with its ``tcp``) sub-tables are built as the
    nested configs they hold.
    """
    raw = dict(raw)
    unknown = set(raw) - EXPERIMENT_KEYS
    if unknown:
        raise ValueError(
            f"{context}: unknown experiment keys {sorted(unknown)}; "
            f"allowed: {sorted(EXPERIMENT_KEYS)}"
        )
    clos_kwargs = dict(raw.pop("clos", {}))
    if "clusters" in raw:
        clos_kwargs["clusters"] = raw.pop("clusters")
    net_kwargs = dict(raw.pop("net", {}))
    net_kwargs["tcp"] = _build(TcpConfig, net_kwargs.get("tcp", {}), context)
    return ExperimentConfig(
        clos=_build(ClosParams, clos_kwargs, context),
        net=_build(NetworkConfig, net_kwargs, context),
        **raw,
    )


def _experiment_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    """The spec table :func:`experiment_from_dict` reads back as ``config``."""
    out = asdict(config)
    out["failures"] = [
        {"time": f.time, "link": [f.a, f.b], "action": f.action}
        for f in config.failures
    ]
    return out


def derive_seed(name: str, master_seed: int, axes: dict[str, Any]) -> int:
    """Stable 31-bit per-run seed from the spec identity and axis point.

    Depends only on (spec name, master seed, axis assignment) — not on
    the run's position in the expansion — so inserting a sweep value
    does not reseed the existing points.
    """
    payload = json.dumps(
        {"axes": axes, "name": name, "seed": master_seed},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


@dataclass(frozen=True)
class RunRequest:
    """One fully resolved run of a sweep (picklable; crosses processes)."""

    run_id: str
    index: int
    spec_name: str
    stage: str
    axes: dict[str, Any]
    seed_master: int
    seed_derived: int
    experiment: ExperimentConfig
    training: Optional[ExperimentConfig] = None
    micro: Optional[MicroModelConfig] = None
    hybrid: dict[str, Any] = field(default_factory=dict)
    inject: dict[str, Any] = field(default_factory=dict)

    @property
    def needs_model(self) -> bool:
        """True when this run requires a trained cluster model."""
        return self.stage in MODEL_STAGES


@dataclass
class ScenarioSpec:
    """A declarative sweep over experiment configurations.

    Attributes
    ----------
    name:
        Sweep identity; run ids are ``<name>-<index:04d>``.
    stage:
        Which pipeline stage each run executes.
    experiment:
        Base evaluation-run configuration (seed here is the *master*
        seed from which per-run seeds are derived).
    training:
        Training-run configuration for model stages (defaults to the
        paper's two-cluster setup).  Constant across the sweep unless
        an axis explicitly targets it (``alpha``).
    micro:
        Micro-model architecture/training hyper-parameters.
    hybrid:
        The stage's options: fields of
        :class:`~repro.core.hybrid.HybridConfig` (``hybrid``; plus
        :class:`~repro.pdes.HybridShardConfig` for ``pdes-hybrid``),
        :class:`~repro.cascade.CascadeConfig` (``cascade``) or
        :class:`~repro.validate.ValidateConfig` (``validate``), and
        ``trace`` / ``trace_capacity`` on the traced stages; no block
        on ``simulate`` / ``train`` / ``evaluate``.  The configs are
        built once at load (:func:`~repro.runs.executor.stage_configs`),
        so a bad key fails here, not in a worker.
    sweep:
        Axis name -> list of values; runs are the Cartesian product,
        expanded with axes in sorted-name order and values in the
        given order.
    inject:
        Test hooks keyed by run index (as int): ``fail_attempts`` makes
        the worker raise on the first N attempts; ``hang_s`` makes it
        sleep before executing (timeout exercise).
    """

    name: str
    stage: str = "simulate"
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    training: Optional[ExperimentConfig] = None
    micro: Optional[MicroModelConfig] = None
    hybrid: dict[str, Any] = field(default_factory=dict)
    sweep: dict[str, list] = field(default_factory=dict)
    inject: dict[int, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"spec name {self.name!r} must match {_NAME_RE.pattern} "
                "(it becomes a directory prefix)"
            )
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {self.stage!r}")
        for axis, values in self.sweep.items():
            if axis not in SWEEP_AXES:
                raise ValueError(
                    f"unknown sweep axis {axis!r}; allowed: {sorted(SWEEP_AXES)}"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"sweep axis {axis!r} needs a non-empty list of values")
        if "alpha" in self.sweep and self.stage not in MODEL_STAGES:
            raise ValueError(
                f"sweep axis 'alpha' requires a model stage {MODEL_STAGES}"
            )
        if self.stage in MODEL_STAGES:
            if self.training is None:
                self.training = ExperimentConfig(
                    clos=ClosParams(clusters=2), seed=self.experiment.seed
                )
            if self.micro is None:
                self.micro = MicroModelConfig()
        stage_configs(self.stage, self.hybrid)
        for index, hooks in self.inject.items():
            unknown = set(hooks) - _INJECT_KEYS
            if unknown:
                raise ValueError(
                    f"inject[{index}]: unknown hooks {sorted(unknown)}; "
                    f"allowed: {sorted(_INJECT_KEYS)}"
                )

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        """Validate and build a spec from parsed JSON/TOML."""
        raw = dict(raw)
        unknown = set(raw) - _SPEC_KEYS
        if unknown:
            raise ValueError(
                f"unknown spec keys {sorted(unknown)}; allowed: {sorted(_SPEC_KEYS)}"
            )
        if "name" not in raw:
            raise ValueError("spec needs a 'name'")
        name = raw["name"]
        # Scenario-pack keys (`traffic.collective`, `routing`,
        # `failures`) live at the spec's top level for readability but
        # are experiment parameters: they fold into the evaluation
        # config, where every stage (full DES, hybrid, cascade,
        # validate, PDES) picks them up uniformly.
        experiment_raw = dict(raw.get("experiment", {}))
        for scenario_key in ("routing", "failures"):
            if scenario_key in raw:
                if scenario_key in experiment_raw:
                    raise ValueError(
                        f"{scenario_key!r} given both at top level and "
                        "inside 'experiment'; pick one"
                    )
                experiment_raw[scenario_key] = raw[scenario_key]
        traffic = raw.get("traffic", {})
        if traffic:
            unknown = set(traffic) - _TRAFFIC_KEYS
            if unknown:
                raise ValueError(
                    f"unknown traffic keys {sorted(unknown)}; "
                    f"allowed: {sorted(_TRAFFIC_KEYS)}"
                )
            if "collective" in traffic:
                if "collective" in experiment_raw:
                    raise ValueError(
                        "'collective' given both in 'traffic' and inside "
                        "'experiment'; pick one"
                    )
                experiment_raw["collective"] = traffic["collective"]
        experiment = experiment_from_dict(experiment_raw)
        training = None
        if "training" in raw:
            training = experiment_from_dict(raw["training"], context="training")
        micro = None
        if "micro" in raw:
            micro = _build(MicroModelConfig, raw["micro"], "micro")
        inject = {int(k): dict(v) for k, v in raw.get("inject", {}).items()}
        return cls(
            name=name,
            stage=raw.get("stage", "simulate"),
            experiment=experiment,
            training=training,
            micro=micro,
            hybrid=dict(raw.get("hybrid", {})),
            sweep={k: list(v) for k, v in raw.get("sweep", {}).items()},
            inject=inject,
        )

    def to_dict(self) -> dict:
        """JSON-serializable echo of the spec (for sweep.json);
        :meth:`from_dict` reads it back as an equal spec."""
        out: dict[str, Any] = {
            "name": self.name,
            "stage": self.stage,
            "experiment": _experiment_to_dict(self.experiment),
            "sweep": {k: list(v) for k, v in self.sweep.items()},
        }
        if self.training is not None:
            out["training"] = _experiment_to_dict(self.training)
        if self.micro is not None:
            out["micro"] = asdict(self.micro)
        if self.hybrid:
            out["hybrid"] = dict(self.hybrid)
        if self.inject:
            out["inject"] = {str(k): dict(v) for k, v in self.inject.items()}
        return out

    # ------------------------------------------------------------------
    def expand(self) -> list[RunRequest]:
        """The deterministic run list (sorted axes, given value order)."""
        axes = sorted(self.sweep)
        points: list[dict[str, Any]]
        if axes:
            points = [
                dict(zip(axes, combo))
                for combo in itertools.product(*(self.sweep[axis] for axis in axes))
            ]
        else:
            points = [{}]
        requests: list[RunRequest] = []
        for index, assignment in enumerate(points):
            experiment = self.experiment
            micro = self.micro
            exp_updates = {
                axis: value
                for axis, value in assignment.items()
                if axis in EXPERIMENT_AXES
            }
            if "clusters" in assignment:
                experiment = replace(
                    experiment, clos=replace(experiment.clos, clusters=assignment["clusters"])
                )
            master_seed = int(exp_updates.get("seed", experiment.seed))
            derived = derive_seed(self.name, master_seed, assignment)
            exp_updates["seed"] = derived
            experiment = replace(experiment, **exp_updates)
            if "alpha" in assignment:
                assert micro is not None  # enforced in __post_init__
                micro = replace(micro, alpha=assignment["alpha"])
            requests.append(
                RunRequest(
                    run_id=f"{self.name}-{index:04d}",
                    index=index,
                    spec_name=self.name,
                    stage=self.stage,
                    axes=assignment,
                    seed_master=master_seed,
                    seed_derived=derived,
                    experiment=experiment,
                    training=self.training,
                    micro=micro,
                    hybrid=dict(self.hybrid),
                    inject=dict(self.inject.get(index, {})),
                )
            )
        return requests


def load_spec(path: str | Path) -> ScenarioSpec:
    """Load a :class:`ScenarioSpec` from a ``.json`` or ``.toml`` file."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        raw = json.loads(path.read_text())
    elif suffix == ".toml":
        import tomllib

        with path.open("rb") as handle:
            raw = tomllib.load(handle)
    else:
        raise ValueError(f"spec file must end in .json or .toml, got {path.name!r}")
    if not isinstance(raw, dict):
        raise ValueError(f"spec file {path} must contain a table/object at top level")
    return ScenarioSpec.from_dict(raw)
