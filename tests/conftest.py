import time

import numpy as np
import pytest

from oracles import make_scene
from scenesynth.fixtures import generate_map_fixture
from scenesynth.synthesis import GenerationConfig, generate_dataset


@pytest.fixture(scope="session")
def corridors_map():
    return generate_map_fixture("corridors", "MIA")


@pytest.fixture(scope="session")
def demo_scene(corridors_map):
    cfg = GenerationConfig(seed=5, n_scenes=1, output_dir="unused")
    rng = np.random.default_rng([5, 0, 0])
    return make_scene(corridors_map, rng, cfg, "000000", "5/0/0")


@pytest.fixture(scope="session")
def dataset_1k(tmp_path_factory):
    """One-thousand-scene single-worker run shared by the acceptance and
    analysis tests: its records, the wall time of the `generate_dataset`
    call, the config and the maps."""
    out = tmp_path_factory.mktemp("dataset_1k")
    maps = [
        generate_map_fixture("corridors", "MIA"),
        generate_map_fixture("corridors", "PIT"),
    ]
    cfg = GenerationConfig(seed=20260808, n_scenes=1000, output_dir=str(out))
    t0 = time.perf_counter()
    records = generate_dataset(maps, cfg, workers=1)
    return records, time.perf_counter() - t0, cfg, maps
