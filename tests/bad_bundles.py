"""Model bundles that must be refused before a run starts.

Each writer saves a variant of a good bundle into ``directory`` and
returns the regex the refusal's message must match: the bundle and the
file for a corrupt archive, both widths for a bundle whose model takes
fewer features than the simulator extracts.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.features import FEATURE_COUNT
from repro.core.micro import MicroModel
from repro.core.training import DirectionModel, TrainedClusterModel
from repro.nn.data import Standardizer


def truncated_bundle(trained: TrainedClusterModel, directory: Path) -> str:
    """``trained`` with its ``ingress.npz`` cut to half its size."""
    trained.save(directory)
    archive = directory / "ingress.npz"
    data = archive.read_bytes()
    archive.write_bytes(data[: len(data) // 2])
    return rf"cannot load model bundle {re.escape(str(directory))}: ingress\.npz"


def narrow_bundle(trained: TrainedClusterModel, directory: Path) -> str:
    """A well-formed bundle whose models take two features too few."""
    config = replace(trained.config, input_size=FEATURE_COUNT - 2)
    standardizer = Standardizer.from_state_dict(
        {"mean": np.zeros(config.input_size), "std": np.ones(config.input_size)}
    )
    directions = {
        direction: DirectionModel(
            model=MicroModel(config, np.random.default_rng(0)),
            feature_standardizer=standardizer,
            latency_mean=bundle.latency_mean,
            latency_std=bundle.latency_std,
        )
        for direction, bundle in trained.directions.items()
    }
    TrainedClusterModel(
        config=config, calibration=trained.calibration, directions=directions
    ).save(directory)
    return rf"takes {FEATURE_COUNT - 2} features .* extracts {FEATURE_COUNT}"


BAD_BUNDLES = {"truncated": truncated_bundle, "narrow": narrow_bundle}
