from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

import clustercert as cc

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
# A deeper run of the same properties: pytest --hypothesis-profile=thorough
settings.register_profile("thorough", settings.get_profile("suite"), max_examples=1000)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def clear_memos():
    """Start every test with an empty ``clustering.exact_structure`` memo.

    Analysis records and scale views live on their space and go with it; the
    exact search's module-level ``lru_cache`` is the one memo left that
    outlives a test, kept because the benchmark tracer reads its cache
    statistics. Without this a test could read a search run by an earlier
    one on an equal space and never reach the code it patches. A test that
    must search the same space twice from scratch builds a fresh, equal space
    and calls the returned function in between.
    """
    clear = cc.clustering.exact_structure.cache_clear
    clear()
    return clear

# Three points with distances 0.5, 2, 4: one pair of every edge class at r=1.
S3_LABELS = ["p0", "p1", "p2"]
S3_MATRIX = [["0", "0.5", "2"], ["0.5", "0", "4"], ["2", "4", "0"]]


@pytest.fixture
def s3():
    return cc.build_space(S3_LABELS, S3_MATRIX)


@pytest.fixture
def s3_params():
    return cc.ScaleParams(r=Fraction(1), k=2)


@pytest.fixture
def tight9():
    return cc.tight_instance(cc.TightInstanceSpec(k=2, m=3, m0=3, r=Fraction(1)))


@pytest.fixture
def tight9_params():
    return cc.ScaleParams(r=Fraction(1), k=2)
