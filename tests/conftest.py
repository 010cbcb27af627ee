"""Shared builders and independent reference implementations."""

import numpy as np
import pytest
from hypothesis import settings

from netkalman.filtering import covariance_step
from netkalman.model import ALL_OUTCOMES, BlockDims, SystemModel, fixture

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


@pytest.fixture(scope="session")
def hidden_mode():
    return hidden_mode_model()


def hidden_mode_model():
    """A model whose critical delay probability lies inside (0, 1).

    Subsystem 1 (states 0 and 1) has the unstable mode a = 1.25, which
    its own sensor C1 does not see; the mode drives subsystem 2, whose
    sensor does.  Subsystem 1 can track it only while the cross
    measurement reaches it on time, so the bound sequence diverges for
    lambda1 above roughly 1 / a**2 and stays bounded below.
    """
    A = np.array([[1.25, 0.0, 0.0], [0.0, 0.5, 0.0], [1.0, 0.1, 0.4]])
    return SystemModel(
        n1=2,
        n2=1,
        A=A,
        C1=np.array([[0.0, 1.0]]),
        C2=np.array([[1.0]]),
        W=np.eye(3),
        V=np.eye(2),
        Sigma0=np.eye(3),
    )


def unseen_mode_model(a):
    """A mode ``a`` that no sensor sees (C1 = 0), beside a measured stable one.

    Its prior variance grows as ``a**2 P + 1`` at every delay probability:
    linearly for the random walk a = 1, whose masked norm minima are all
    exactly 1, and geometrically for a = 3, whose covariances overflow
    after about 320 steps (the hidden-mode setting of Sinopoli et al.,
    IEEE TAC 2004).
    """
    return SystemModel(n1=1, n2=1, A=np.diag([float(a), 0.5]), C1=np.zeros((1, 1)),
                       C2=np.eye(1), W=np.eye(2), V=np.eye(2), Sigma0=np.eye(2))


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


def exact_prior_means(model, delays, T):
    """Exact expected prediction covariances ``E[P_prior_t]``, t = 1..T, as (T, n, n).

    Enumerates the delay histories: :func:`covariance_step` advances a
    stack with one layer per history prefix, branching each layer only
    into the outcomes of positive probability, and each layer weighs the
    product of its outcome probabilities.  The stack grows by up to 4x a
    step, so this is for short horizons (T = 9 takes about 2 s on a
    4-state model).
    """
    live = [(oc.gamma1, oc.gamma2, p) for oc in ALL_OUTCOMES
            if (p := delays.outcome_probability(oc)) > 0.0]
    gamma1, gamma2, p = (np.array(v) for v in zip(*live))
    P_post = np.array(model.Sigma0, dtype=float)[None]
    weights = np.ones(1)
    means = []
    for _ in range(T):
        # Every branch of a layer shares its prediction, so the layer
        # weights give the mean before the stack branches.
        P_prior, P_post, _ = covariance_step(model, np.repeat(P_post, len(p), axis=0),
                                             np.tile(gamma1, len(weights)),
                                             np.tile(gamma2, len(weights)))
        means.append(np.tensordot(weights, P_prior[::len(p)], axes=1))
        weights = np.outer(weights, p).ravel()
    return np.array(means)
