"""The closed-form chi-square tail and cut that discovery decides with,
against SciPy's regularized incomplete gamma as the reference."""

import numpy as np
import pytest
from scipy.special import gammaincc, gammainccinv

from test_ci_test import sparse_dag

from cama.discovery import (
    _chi2_cut,
    _chi2_tail,
    _g_squared_batch,
    _independent,
    _pack,
    chi2_sf,
    cpdag_from_ci,
    discover_cpdag,
)
from cama.graph import serialize_graph
from cama.model import KnowledgePoint
from cama.oracle import random_true_dag, sample_incidence

DOFS = [*range(1, 301), 500, 1000, 5000]
ALPHAS = [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.5, 0.9, 0.99]


def reference_cut(dof: int, alpha: float) -> float:
    return 2.0 * gammainccinv(dof / 2.0, alpha)


def test_cuts_match_scipy():
    worst = max(
        (abs(_chi2_cut(dof, alpha) / reference_cut(dof, alpha) - 1.0), dof, alpha)
        for dof in DOFS
        for alpha in ALPHAS
    )
    assert worst[0] < 1e-12, worst


def test_tails_match_scipy():
    # from far below to far above each cut, wherever the tail is >= 1e-12
    worst = (0.0,)
    for dof in DOFS:
        for alpha in (1e-12, 0.5, 0.99):
            for x in reference_cut(dof, alpha) * np.geomspace(0.01, 10.0, 31):
                want = gammaincc(dof / 2.0, x / 2.0)
                if want >= 1e-12:
                    worst = max(worst, (abs(_chi2_tail(x, dof) / want - 1.0), dof, x))
    assert worst[0] < 5e-12, worst


def test_tail_edges():
    assert chi2_sf(5.0, 0) == 1.0
    assert chi2_sf(5.0, -3) == 1.0
    assert chi2_sf(0.0, 4) == 1.0
    assert chi2_sf(np.inf, 4) == 0.0
    assert chi2_sf(1e6, 3) == 0.0
    # whole numbers stored as floats are whole numbers
    assert chi2_sf(3.0, 2.0) == chi2_sf(3.0, 2)
    for dof in (2.5, np.nan, np.inf, np.array([1, 1.5])):
        with pytest.raises(ValueError, match="whole numbers"):
            chi2_sf(3.0, dof)


def test_tail_shapes():
    assert isinstance(chi2_sf(3.84, 1), float)
    assert chi2_sf(np.empty(0), 1).shape == (0,)
    got = chi2_sf(np.array([[1.0], [4.0]]), np.array([1, 2, 3]))
    want = gammaincc(np.array([1, 2, 3]) / 2.0, np.array([[1.0], [4.0]]) / 2.0)
    assert got.shape == (2, 3)
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_independent_decides_as_scipy_around_each_cut():
    # statistics on, just off and far off each cut; on a statistic whose
    # reference p-value lies within 1e-10 of alpha either decision is right,
    # and no statistic outside the 1e-6 band is that near
    offsets = np.array([0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 2e-6, 1e-4, 0.1, 0.9])
    for dof in [*range(1, 65), 128, 256, 1000]:
        for alpha in (1e-12, 1e-6, 0.01, 0.05, 0.5, 0.99):
            cut = reference_cut(dof, alpha)
            statistic = np.concatenate([cut * (1 + offsets), cut * (1 - offsets), [0.0, 1e5]])
            dofs = np.full(len(statistic), dof)
            p_value = gammaincc(dof / 2.0, statistic / 2.0)
            clear = np.abs(p_value / alpha - 1.0) > 1e-10
            assert clear[np.abs(statistic / cut - 1.0) > 1e-6].all(), (dof, alpha)
            got = _independent(statistic, dofs, alpha)
            assert np.array_equal(got[clear], (p_value > alpha)[clear]), (dof, alpha)


def scipy_decide(z, alpha):
    """The batch decision discover_cpdag takes, its p-values from SciPy."""
    packed = _pack(z.cells)

    def decide(x, y, s):
        statistic, dof = _g_squared_batch(z, packed, x, y, s)
        p_value = np.where(dof > 0, gammaincc(np.maximum(dof, 1) / 2.0, statistic / 2.0), 1.0)
        return p_value > alpha

    return decide


def discovery_cases():
    """(name, matrix, alpha, max_cond_size) of 48 dense and sparse samples."""
    for seed in range(32):
        k = 6 + seed % 5 * 6
        dag = random_true_dag(k, 2 / (k - 1), seed=300 + seed)
        rows = (500, 2000, 8000)[seed % 3]
        alpha = (0.01, 0.05, 0.2)[seed % 3]
        yield f"dense-{seed}", sample_incidence(dag, rows, seed=seed), alpha, (1, 3, 8)[seed // 3 % 3]
    for seed in range(16):
        k = 30 + seed % 4 * 15
        z = sample_incidence(sparse_dag(k, seed=400 + seed), 3000, seed=seed)
        yield f"sparse-{seed}", z, (0.01, 0.05)[seed % 2], 3


@pytest.mark.parametrize("name, z, alpha, max_cond_size", list(discovery_cases()))
def test_discovery_bytes_match_scipy_decision(name, z, alpha, max_cond_size):
    points = tuple(KnowledgePoint(key=key) for key in z.col_keys)
    reference = cpdag_from_ci(z.cols, scipy_decide(z, alpha), points, max_cond_size=max_cond_size)
    got = discover_cpdag(z, alpha=alpha, max_cond_size=max_cond_size)
    assert serialize_graph(got) == serialize_graph(reference)
