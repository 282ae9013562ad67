"""Adversarial inputs for the laws of `noncomm.checks`.

`HypothesisDraw` answers the methods of `NumpyDraw` from hypothesis's
`st.data()`, so a law runs unchanged on values hypothesis picks and shrinks.
Among them are the edges a fixed draw rarely meets: spectra whose gaps are
0, or 0.5-2x CLUSTER_TOL, and states whose mass on a subspace or subset is
down to 4 * P_FLOOR (`states_with_mass_on`, `measures_with_mass_on`).
"""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from noncomm.algebra import (CLUSTER_TOL, Observable, PhaseSpace, Projection, characteristic_projection,
                             diagonal_context, full_context)
from noncomm.checks import NumpyDraw
from noncomm.measurement import trial_generator
from noncomm.states import P_FLOOR, State, classical_state

# the mass of the answer conditioned on: down to 4 * P_FLOOR, up to 1 - 4 * P_FLOOR
MASSES = st.floats(4 * P_FLOOR, 1e-6) | st.floats(1e-6, 1.0 - 4 * P_FLOOR)
# consecutive eigenvalue gaps: exact degeneracy, merged or split near CLUSTER_TOL, well apart
GAPS = st.just(0.0) | st.floats(0.5 * CLUSTER_TOL, 2.0 * CLUSTER_TOL) | st.floats(0.1, 2.0)


@st.composite
def states_with_mass_on(draw, d=None):
    """A full-algebra density matrix at d (drawn from 2..6 when None) and a
    projection of random rank whose yes-probability is a drawn mass, with
    coherences between P and 1 - P: each mixed vector is
    sqrt(m) a + sqrt(1 - m) b, a and b unit vectors in the ranges of P and
    1 - P."""
    d = d or draw(st.integers(2, 6))
    rank = draw(st.integers(1, d - 1))
    mass = draw(MASSES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ctx = full_context(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rho = np.zeros((d, d), dtype=complex)
    for w in rng.dirichlet(np.ones(draw(st.integers(1, d)))):
        a, b = (basis @ (rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1]))
                for basis in (q[:, :rank], q[:, rank:]))
        v = np.sqrt(mass) * a / np.linalg.norm(a) + np.sqrt(1.0 - mass) * b / np.linalg.norm(b)
        rho += w * np.outer(v, v.conj())
    return State(ctx, rho), Projection(ctx, q[:, :rank] @ q[:, :rank].conj().T)


@st.composite
def measures_with_mass_on(draw, n=None):
    """A Dirichlet measure on n points (drawn from 2..33 when None) and the
    indicator of a proper subset carrying a drawn mass."""
    n = n or draw(st.integers(2, 33))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = rng.dirichlet(np.full(n, draw(st.sampled_from((0.1, 1.0, 10.0)))))
    members = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    inside = np.isin(np.arange(n), members)
    assume(mu[inside].sum() > 0 and mu[~inside].sum() > 0)
    mass = draw(MASSES)
    mu = np.where(inside, mu * mass / mu[inside].sum(), mu * (1.0 - mass) / mu[~inside].sum())
    space = PhaseSpace(tuple(f"x{i}" for i in range(n)))
    ctx = diagonal_context(space)
    return classical_state(ctx, mu), characteristic_projection(ctx, space.subset(members))


class HypothesisDraw(NumpyDraw):
    """A law's inputs drawn by hypothesis: the numbers come from strategies
    (numbers from [-4, 4] in place of standard-normal ones), and `hermitian`
    and `density` are replaced by their adversarial forms; the rest of
    `NumpyDraw` builds on these numbers unchanged."""

    def __init__(self, data):
        self.data = data

    def _draw(self, elements, size, dtype):
        return self.data.draw(elements if size is None else hnp.arrays(dtype, size, elements=elements))

    def integers(self, lo, hi, size=None):
        return self._draw(st.integers(lo, hi - 1), size, np.int64)

    def normal(self, size=None):
        """A number from [-4, 4]; an array is one such number per entry."""
        return self._draw(st.floats(-4.0, 4.0), size, float)

    def random(self, size=None):
        return self._draw(st.floats(0.0, 1.0, exclude_max=True), size, float)

    def permutation(self, n):
        return np.array(self.data.draw(st.permutations(range(n))))

    def phase_space(self, n):
        """Between 2 and 2n points."""
        return super().phase_space(self.data.draw(st.integers(2, 2 * n)))

    def trial_stream(self, seed):
        return trial_generator(seed, self.data.draw(st.integers(0, 2**32 - 1)))

    def hermitian(self, ctx):
        """Eigenvalues spaced by `GAPS`, in a drawn unitary basis (in a drawn
        order on a diagonal algebra)."""
        n = ctx.dim
        gaps = self.data.draw(st.lists(GAPS, min_size=n - 1, max_size=n - 1))
        eig = self.normal() + np.cumsum([0.0, *gaps])
        if ctx.is_diagonal:
            return Observable(ctx, eig[self.permutation(n)])
        q, _ = np.linalg.qr(self._matrix((n, n)))
        m = (q * eig) @ q.conj().T
        return Observable(ctx, (m + m.conj().T) / 2.0)

    def density(self, ctx):
        cases = measures_with_mass_on(ctx.dim) if ctx.is_diagonal else states_with_mass_on(ctx.dim)
        state, _ = self.data.draw(cases)
        return state
