"""Shared fixtures.

A full lab (world + datasets + pipeline) costs several seconds, so
integration-level tests share one session-scoped instance; unit tests
that only need a world use the smaller ``tiny_world``.
"""

from __future__ import annotations

import random

import pytest

from repro.lab import Lab
from repro.world.build import WorldParams, build_world

#: Seed used by all shared fixtures; individual tests may build their own.
SHARED_SEED = 1


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json snapshots from current outputs",
    )


@pytest.fixture(scope="session")
def update_golden(request) -> bool:
    """True when the run should rewrite golden snapshots."""
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def lab() -> Lab:
    """One shared medium world with datasets and pipeline output."""
    return Lab.create(scale=0.005, seed=SHARED_SEED)


@pytest.fixture(scope="session")
def golden_lab() -> Lab:
    """The small fixed world every golden snapshot is computed from.

    Deliberately distinct from the shared ``lab`` so golden files pin
    a world no other fixture mutates assumptions about.
    """
    return Lab.create(scale=0.002, seed=3, background_as_count=400)


@pytest.fixture(scope="session")
def world(lab):
    return lab.world


@pytest.fixture(scope="session")
def tiny_world():
    """A small, quickly built world for structural unit tests."""
    return build_world(WorldParams(seed=3, scale=0.002, background_as_count=400))


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture(scope="session")
def beacon_hits(tiny_world):
    """One month of per-hit beacon events from the tiny world.

    The deterministic event list the stream/serve tests ingest; small
    enough (~32k events) to drain in well under a second.
    """
    from repro.cdn.beacon import BeaconConfig, BeaconGenerator

    config = BeaconConfig(month="2017-01", demand_hits=6000, base_hits=2.0)
    return list(BeaconGenerator(tiny_world, config).iter_hits())
