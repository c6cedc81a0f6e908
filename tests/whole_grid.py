"""Whole-grid sampling: the references that the block-by-block code matches.

The package samples a field at the RK4 evaluation points one
``darboux.step_blocks`` block at a time.  Grid nodes keep their exact
samples; a point at the fraction r / (2 substeps) of a grid cell is the
4-point sum of the cell's cubic Lagrange stencil, with one set of
weights per fraction: (-1, 9, 9, -1) / 16 at an inner cell's midpoint,
and clamped stencils in the first and last cells.  ``half_step_samples``
forms the same sums over the whole grid at once, with the same
arithmetic, so the tests can hold the blocked results to it bit for
bit.  ``cubic_stencil`` and ``stencil_sum`` interpolate at arbitrary
points, one stencil per point: the independent reference that the
fixed weights are held to.
"""

import numpy as np

import isothermic.darboux as db


def lagrange_weights(u):
    """The cubic Lagrange basis on the nodes 0, 1, 2, 3 at u, stacked on axis 0."""
    u0, u1, u2, u3 = u, u - 1.0, u - 2.0, u - 3.0
    return np.stack(
        [u1 * u2 * u3 / -6.0, u0 * u2 * u3 / 2.0, u0 * u1 * u3 / -2.0, u0 * u1 * u2 / 6.0]
    )


def cubic_stencil(grid, s):
    """Nodes and weights of piecewise-cubic interpolation at points s, each (4, K).

    Row i holds the i-th node of the 4-node stencil around each query
    point, clamped at the boundary, and its Lagrange weight; with smooth
    data, ``stencil_sum`` over them is O(h^4) accurate.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = (s - grid.s0) / grid.h
    base = np.clip(np.floor(t).astype(int) - 1, 0, grid.num - 4)
    return base[None, :] + np.arange(4)[:, None], lagrange_weights(t - base)


def stencil_sum(values, idx, w):
    """Sum over the stencil of the weights w times values[idx]."""
    gathered = np.asarray(values, dtype=float)[idx]  # (4, K, ...)
    w = w.reshape(w.shape + (1,) * (gathered.ndim - 2))
    return np.sum(w * gathered, axis=0)


def cubic_interp(values, grid, s):
    """Piecewise-cubic Lagrange interpolation of grid samples at points s."""
    return stencil_sum(values, *cubic_stencil(grid, s))


def _four_point(v, start, stop, w):
    """w[0] v[start:stop] + .. + w[3] v[start + 3 : stop + 3], left to right."""
    w0, w1, w2, w3 = w
    a, b, c, d = (v[start + l : stop + l] for l in range(4))
    return w0 * a + w1 * b + w2 * c + w3 * d


def half_step_samples(grid, substeps, *values):
    """Samples at every RK4 evaluation point of the whole grid, plus the step.

    With ``substeps`` steps per grid cell the evaluation points are the
    (sub)step nodes and their midpoints.  Grid nodes keep their exact
    samples; the first cell, the inner cells and the last cell are
    filled fraction by fraction with their fixed 4-point weights.
    """
    h = grid.h / substeps
    per_cell, cells = 2 * substeps, grid.num - 1
    sampled = []
    for v in values:
        v = np.asarray(v, dtype=float)
        v_all = np.empty((per_cell * cells + 1, *v.shape[1:]))
        v_all[::per_cell] = v
        for r in range(1, per_cell):
            first, inner, last = (lagrange_weights(shift + r / per_cell) for shift in (0, 1, 2))
            inner_points = slice(per_cell + r, per_cell * (cells - 1), per_cell)
            v_all[r] = _four_point(v, 0, 1, first)[0]
            v_all[inner_points] = _four_point(v, 0, cells - 2, inner)
            v_all[per_cell * (cells - 1) + r] = _four_point(v, cells - 3, cells - 2, last)[0]
        sampled.append(v_all)
    return h, sampled


def connection_samples(section, m, t, substeps=1):
    """A(s, t) along a section at every node and half step, and the step."""
    m = np.broadcast_to(np.asarray(m, dtype=float), (section.grid.num,))
    h, (xi_all, xip_all, m_all) = half_step_samples(
        section.grid, substeps, section.xi, section.derivative(), m
    )
    return db.connection_matrix(xi_all, xip_all, m_all, t), h
