"""Shared builders and independent reference implementations."""

import numpy as np
import pytest
from hypothesis import settings

from netkalman.model import BlockDims, SystemModel, fixture

# No deadline: the machines these tests run on vary in speed from run to
# run.  Derandomized, so a failure reproduces and the suite is stable.
settings.register_profile("netkalman", deadline=None, derandomize=True)
settings.load_profile("netkalman")


@pytest.fixture(scope="session")
def case1():
    return fixture("case1_stable")[0]


@pytest.fixture(scope="session")
def case2():
    return fixture("case2_unstable")[0]


@pytest.fixture(scope="session")
def toy():
    return fixture("toy_identity")[0]


def random_psd(rng, n, floor=1e-3):
    G = rng.standard_normal((n, n))
    return G @ G.T + floor * np.eye(n)


def random_instance(rng, max_n=3, max_m=2):
    """Random (P, C, V, dims) with block-diagonal C."""
    n1 = int(rng.integers(1, max_n + 1))
    n2 = int(rng.integers(1, max_n + 1))
    m1 = int(rng.integers(1, max_m + 1))
    m2 = int(rng.integers(1, max_m + 1))
    dims = BlockDims(n1, n2, m1, m2)
    P = random_psd(rng, dims.n)
    V = random_psd(rng, dims.m, floor=0.1)
    C = np.zeros((dims.m, dims.n))
    C[:m1, :n1] = rng.standard_normal((m1, n1))
    C[m1:, n1:] = rng.standard_normal((m2, n2))
    return P, C, V, dims


def random_model(rng, max_n=3, max_m=2, spectral_radius=None, full_row_rank=False):
    """Random SystemModel; optionally rescale A to a target spectral radius."""
    while True:
        n1 = int(rng.integers(1, max_n + 1))
        n2 = int(rng.integers(1, max_n + 1))
        m1 = int(rng.integers(1, max_m + 1))
        m2 = int(rng.integers(1, max_m + 1))
        if not full_row_rank or (m1 <= n1 and m2 <= n2):
            break
    A = rng.standard_normal((n1 + n2, n1 + n2))
    if spectral_radius is not None:
        rho = max(abs(np.linalg.eigvals(A)))
        A = A * (spectral_radius / rho)
    C1 = rng.standard_normal((m1, n1))
    C2 = rng.standard_normal((m2, n2))
    if full_row_rank:
        # Reject nearly rank-deficient draws.
        while np.linalg.svd(C1, compute_uv=False)[-1] < 0.1:
            C1 = rng.standard_normal((m1, n1))
        while np.linalg.svd(C2, compute_uv=False)[-1] < 0.1:
            C2 = rng.standard_normal((m2, n2))
    n = n1 + n2
    m = m1 + m2
    return SystemModel(
        n1=n1,
        n2=n2,
        A=A,
        C1=C1,
        C2=C2,
        W=random_psd(rng, n, floor=0.2),
        V=random_psd(rng, m, floor=0.2),
        Sigma0=random_psd(rng, n, floor=0.2),
    )


def textbook_riccati_priors(model, T):
    """Full-information Kalman prior covariances, in the textbook form.

    Uses the gain-free algebraic update ``P - P C^T S^{-1} C P`` so it is
    an independent reference for the filter's Joseph-form path.
    """
    C = model.C
    P = np.array(model.Sigma0)
    priors = []
    for _ in range(T):
        P = model.A @ P @ model.A.T + model.W
        priors.append(P.copy())
        S = model.V + C @ P @ C.T
        P = P - P @ C.T @ np.linalg.solve(S, C @ P)
    return priors
