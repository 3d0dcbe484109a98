"""Shared sampled fixtures.

Sampling the corpus is the expensive part of most tests, so the grids
are built once per session and shared read-only.
"""

import numpy as np
import pytest

import gnlab.extremal as ex
import gnlab.funcspace as fs
import gnlab.gn as gn


@pytest.fixture(scope="session")
def bump_4097():
    return fs.sample(fs.BumpChi(), (0.0, 1.0), 4097, 3)


@pytest.fixture(scope="session")
def bump_65537():
    return fs.sample(fs.BumpChi(), (0.0, 1.0), 2 ** 16 + 1, 3)


@pytest.fixture(scope="session")
def corpus_2049():
    return [(name, fs.sample(f, (0.0, 1.0), 2049, 3))
            for name, f in fs.standard_corpus()]


@pytest.fixture(scope="session")
def corpus_65537():
    return [(name, fs.sample(f, (0.0, 1.0), 2 ** 16 + 1, 3))
            for name, f in fs.standard_corpus()]


@pytest.fixture(scope="session")
def criterion_3_search():
    """Criterion 3's ratio4 search at SearchConfig()'s defaults and the
    10k random batch it must beat, shared by the acceptance gate and the
    bounds module."""
    return (ex.estimate_constant("ratio4", ex.SearchConfig()),
            ex.random_ratio_batch("ratio4", count=10_000, seed=0))


@pytest.fixture(scope="session")
def l12():
    return gn.l12_params()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
