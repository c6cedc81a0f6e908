"""Whole-grid sampling: the references that the block-by-block code matches.

The package samples a field at the RK4 evaluation points one
``darboux.step_blocks`` block at a time.  These forms sample the whole
grid at once, with the same arithmetic, so the tests can hold the
blocked results to them bit for bit.
"""

import numpy as np

import isothermic.darboux as db
from isothermic.curves import cubic_stencil, stencil_sum


def cubic_interp(values, grid, s):
    """Piecewise-cubic Lagrange interpolation of grid samples at points s."""
    return stencil_sum(values, *cubic_stencil(grid, s))


def half_step_samples(grid, substeps, *values):
    """Samples at every RK4 evaluation point of the whole grid, plus the step.

    With ``substeps`` steps per grid cell the evaluation points are the
    (sub)step nodes and their midpoints.  Grid nodes keep their exact
    samples; every other point is cubic interpolation.
    """
    h = grid.h / substeps
    points = grid.s0 + 0.5 * h * np.arange(2 * (grid.num - 1) * substeps + 1)
    idx, w = cubic_stencil(grid, points)
    sampled = []
    for v in values:
        v_all = stencil_sum(v, idx, w)
        v_all[:: 2 * substeps] = v
        sampled.append(v_all)
    return h, sampled


def connection_samples(section, m, t, substeps=1):
    """A(s, t) along a section at every node and half step, and the step."""
    m = np.broadcast_to(np.asarray(m, dtype=float), (section.grid.num,))
    h, (xi_all, xip_all, m_all) = half_step_samples(
        section.grid, substeps, section.xi, section.derivative(), m
    )
    return db.connection_matrix(xi_all, xip_all, m_all, t), h
