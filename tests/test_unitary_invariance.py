"""Unitary invariance of the Bombieri-Weyl norm, the condition number and
chi1, and unitary equivariance of tracked endpoints (property tests over
random Haar unitaries, systems and points).

With hU(z) = h(Uz) for a unitary U: ||hU|| = ||h||, mu(hU, U* z) = mu(h, z)
and the step's chi1 at (hU, U* z) on the homotopy from hU to fU is its chi1
at (h, z) on the homotopy from h to f; the path from (gU, U* r) to fU ends
as the path from (g, r) to f does, at U* times its endpoint.
"""

import numpy as np
import pytest
from hypothesis import event, given, note, settings
from hypothesis import strategies as st

from certitrack.bw import bw_norm, riemann_distance, unitary_compose
from certitrack.linalg import random_unitary
from certitrack.newton import condition_mu, refine
from certitrack.polysys import unit_point
from certitrack.start_systems import random_system_on_sphere, total_degree_start
from certitrack.tracker import TrackerOptions, _StepBuffers, make_linear_homotopy, track_path

# Deterministic examples and no example database, so runs repeat exactly.
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)
DEGREES = st.sampled_from([(2,), (2, 2), (1, 2, 2), (3, 2), (2, 2, 2)])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _draw(degrees, seed):
    rng = np.random.default_rng(seed)
    h = random_system_on_sphere(degrees, rng)
    U = random_unitary(len(degrees) + 1, rng)
    z = unit_point(rng.standard_normal(h.n_vars) + 1j * rng.standard_normal(h.n_vars))
    return h, unitary_compose(h, U), U.conj().T @ z, z, U


@SETTINGS
@given(DEGREES, SEEDS)
def test_bw_norm(degrees, seed):
    h, hU, *_ = _draw(degrees, seed)
    assert bw_norm(hU) == pytest.approx(bw_norm(h), rel=1e-10)


@SETTINGS
@given(DEGREES, SEEDS)
def test_condition_mu(degrees, seed):
    h, hU, w, z, _ = _draw(degrees, seed)
    assert condition_mu(hU, w) == pytest.approx(condition_mu(h, z), rel=1e-10)


@SETTINGS
@given(DEGREES, SEEDS)
def test_chi1(degrees, seed):
    h, hU, w, z, U = _draw(degrees, seed)
    f = random_system_on_sphere(degrees, np.random.default_rng([seed, 1]))
    hom, homU = make_linear_homotopy(h, f), make_linear_homotopy(hU, unitary_compose(f, U))
    # The step's chi1 from z at the middle of the path from h to f.
    s = hom.T / 2
    assert _StepBuffers(homU).chi(s, w)[0] == pytest.approx(_StepBuffers(hom).chi(s, z)[0], rel=1e-10)


@SETTINGS
@given(DEGREES, SEEDS)
def test_tracked_endpoint_equivariance(degrees, seed):
    rng = np.random.default_rng(seed)
    f = random_system_on_sphere(degrees, rng)
    start = total_degree_start(degrees, rng)
    r = start.roots[rng.integers(len(start.roots))]
    U = random_unitary(f.n_vars, rng)
    opts = TrackerOptions(record_trace=False)
    plain = track_path(start.g, f, r, opts)
    moved = track_path(unitary_compose(start.g, U), unitary_compose(f, U), U.conj().T @ r, opts)
    # Rounding differs between the two paths, so their step counts may too.
    note(f"steps: {plain.num_steps} untransformed, {moved.num_steps} transformed")
    event("equal step counts" if plain.num_steps == moved.num_steps else "step counts differ")
    assert moved.status == plain.status
    if plain.success:
        e, eU = refine(f, plain.endpoint), refine(unitary_compose(f, U), moved.endpoint)
        assert riemann_distance(eU, U.conj().T @ e) <= 1e-10
