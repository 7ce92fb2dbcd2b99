"""Shared fixtures: miniature facility pipelines reused across test modules.

Session-scoped where construction is expensive; tests must not mutate these
(fixtures that need mutation build their own copies).
"""

import os

# Tests must not depend on the caller's environment: drop every ambient
# REPRO_* setting (cache dir, kernel backend, sanitizer) before ``repro`` is
# imported, since ``repro/__init__`` reads REPRO_SANITIZE at import time.
# Tests that need one set it themselves with ``monkeypatch.setenv``.
for _name in [n for n in os.environ if n.startswith("REPRO_")]:
    del os.environ[_name]

import numpy as np
import pytest

from repro.data import per_user_split, trace_to_interactions
from repro.facility import (
    build_gage_catalog,
    build_ooi_catalog,
    build_user_population,
    generate_trace,
)
from repro.facility.affinity import AffinityModel
from repro.facility.gage import GAGEConfig
from repro.facility.ooi import OOIConfig
from repro.kg import KnowledgeSources, build_ckg


@pytest.fixture(scope="session")
def ooi_catalog():
    return build_ooi_catalog(OOIConfig(num_sites=30), seed=11)


@pytest.fixture(scope="session")
def gage_catalog():
    return build_gage_catalog(GAGEConfig(num_stations=120, num_cities=60), seed=11)


@pytest.fixture(scope="session")
def affinity():
    return AffinityModel(p_region=0.35, p_dtype=0.5, site_concentration=10.0)


@pytest.fixture(scope="session")
def ooi_population(ooi_catalog):
    return build_user_population(ooi_catalog, num_users=60, num_orgs=12, num_cities=12, seed=13)


@pytest.fixture(scope="session")
def ooi_trace(ooi_catalog, ooi_population, affinity):
    return generate_trace(
        ooi_catalog, ooi_population, affinity, seed=17, queries_per_user_mean=40.0
    )


@pytest.fixture(scope="session")
def ooi_interactions(ooi_trace):
    return trace_to_interactions(ooi_trace, min_user_interactions=3)


@pytest.fixture(scope="session")
def ooi_split(ooi_interactions):
    return per_user_split(ooi_interactions, train_fraction=0.8, seed=19)


@pytest.fixture(scope="session")
def ooi_ckg(ooi_catalog, ooi_population, ooi_split):
    return build_ckg(
        ooi_catalog,
        ooi_population,
        ooi_split.train.user_ids,
        ooi_split.train.item_ids,
        sources=KnowledgeSources.all_sources(),
        seed=23,
    )


@pytest.fixture(scope="session")
def ooi_ckg_best(ooi_catalog, ooi_population, ooi_split):
    return build_ckg(
        ooi_catalog,
        ooi_population,
        ooi_split.train.user_ids,
        ooi_split.train.item_ids,
        sources=KnowledgeSources.best(),
        seed=23,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
