"""Unitary invariance of the Bombieri-Weyl norm, the condition number and
chi1 (property tests over random Haar unitaries, systems and points).

With hU(z) = h(Uz) for a unitary U: ||hU|| = ||h||, mu(hU, U* z) = mu(h, z)
and chi1(hU, U* z) = chi1(h, z).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certitrack.bw import bw_norm, unitary_compose
from certitrack.linalg import random_unitary
from certitrack.newton import condition_mu
from certitrack.polysys import unit_point
from certitrack.start_systems import random_system_on_sphere
from certitrack.tracker import chi1

# Deterministic examples and no example database, so runs repeat exactly.
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)
DEGREES = st.sampled_from([(2,), (2, 2), (1, 2, 2), (3, 2), (2, 2, 2)])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _draw(degrees, seed):
    rng = np.random.default_rng(seed)
    h = random_system_on_sphere(degrees, rng)
    U = random_unitary(len(degrees) + 1, rng)
    z = unit_point(rng.standard_normal(h.n_vars) + 1j * rng.standard_normal(h.n_vars))
    return h, unitary_compose(h, U), U.conj().T @ z, z


@SETTINGS
@given(DEGREES, SEEDS)
def test_bw_norm(degrees, seed):
    h, hU, _, _ = _draw(degrees, seed)
    assert bw_norm(hU) == pytest.approx(bw_norm(h), rel=1e-10)


@SETTINGS
@given(DEGREES, SEEDS)
def test_condition_mu(degrees, seed):
    h, hU, w, z = _draw(degrees, seed)
    assert condition_mu(hU, w) == pytest.approx(condition_mu(h, z), rel=1e-10)


@SETTINGS
@given(DEGREES, SEEDS)
def test_chi1(degrees, seed):
    h, hU, w, z = _draw(degrees, seed)
    assert chi1(hU, w) == pytest.approx(chi1(h, z), rel=1e-10)
