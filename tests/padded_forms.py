"""Lifts and chart projection as sums over padded vectors: the references.

The package writes the n + 2 columns of a Euclidean lift directly and
projects a section to the chart on its n affine columns only.  These
forms pad R^n vectors with two zeros and add the chart's frame vectors,
and divide the whole vector by its weight, so the tests can hold the
direct forms to them bit for bit.
"""

import numpy as np

import isothermic.minkowski as mk
from isothermic.curves import PolarizedCurve
from isothermic.errors import PointAtInfinityError


def embed(x):
    """Pad R^n vectors with two trailing zeros into R^{n+1,1}."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.zeros(x.shape[:-1] + (2,))], axis=-1)


def euclidean_lift(x):
    """o + x + (x, x)/2 q."""
    x = np.asarray(x, dtype=float)
    frame = mk.canonical_frame(x.shape[-1])
    xx = np.sum(x * x, axis=-1)[..., None]
    return frame.o + embed(x) + 0.5 * xx * frame.q


def lift_derivative(x, xprime):
    """x' + (x . x') q."""
    x = np.asarray(x, dtype=float)
    xprime = np.asarray(xprime, dtype=float)
    q = mk.canonical_frame(x.shape[-1]).q
    xdx = np.sum(x * xprime, axis=-1)[..., None]
    return embed(xprime) + xdx * q


def affine_point(xi):
    """xi / w with w = -(xi, q), cut to the n affine columns."""
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[-1] - 2
    w = -mk.inner(xi, mk.canonical_frame(n).q)
    scale = np.linalg.norm(xi, axis=-1)
    if not np.all(np.abs(w) > mk.INFINITY_TOL * np.maximum(scale, 1e-300)):
        raise PointAtInfinityError("null line pairs to zero with the chart's infinity")
    return (xi / w[..., None])[..., :n]


def to_curve(section, m):
    """The section's chart projection, the quotient rule on all n + 2 columns."""
    n = section.n
    frame = mk.canonical_frame(n)
    pts = affine_point(section.xi)
    w = -mk.inner(section.xi, frame.q)
    xiprime = section.derivative()
    wprime = -mk.inner(xiprime, frame.q)
    scaled = xiprime / w[:, None] - (wprime / w**2)[:, None] * section.xi
    m = np.broadcast_to(np.asarray(m, dtype=float), (section.grid.num,)).copy()
    return PolarizedCurve(n=n, grid=section.grid, x=pts, xprime=scaled[:, :n], m=m)
