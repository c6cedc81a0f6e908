"""Linear algebra of R^{n+1,1} and the projective light cone model of S^n.

The conformal n-sphere is the projectivised light cone of the Minkowski
space R^{n+1,1} with inner product

    (y, y) = y_1^2 + ... + y_{n+1}^2 - y_{n+2}^2.

Points of R^n embed as null lines through the Euclidean lift

    x  |->  o + x + (x, x)/2 q

for the canonical null frame o = (0,..,0,1/2,1/2), q = (0,..,0,-1,1),
which satisfies (o,o) = (q,q) = 0 and (o,q) = -1.  Vectors are plain
ndarrays of shape (..., n+2) with the R^n factor in the leading n
coordinates; every function broadcasts over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonComplementaryLinesError, PointAtInfinityError

# Relative threshold below which a pairing with the point at infinity is
# treated as vanishing, i.e. the null line has no finite representative.
INFINITY_TOL = 1e-8

# Relative threshold for "is this vector on the light cone".
LIGHTCONE_TOL = 1e-9


def metric_diagonal(n: int) -> np.ndarray:
    """Diagonal of the R^{n+1,1} inner product as a length n+2 array."""
    if n < 1:
        raise DimensionError(f"ambient dimension must be >= 1, got n = {n}")
    g = np.ones(n + 2)
    g[-1] = -1.0
    return g


def metric_matrix(n: int) -> np.ndarray:
    return np.diag(metric_diagonal(n))


def inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minkowski inner product, broadcasting over leading axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != v.shape[-1]:
        raise DimensionError(f"incompatible vector lengths {u.shape[-1]} and {v.shape[-1]}")
    g = metric_diagonal(u.shape[-1] - 2)
    return (u * v) @ g


def norm2(u: np.ndarray) -> np.ndarray:
    return inner(u, u)


def is_lightlike(u: np.ndarray, tol: float = LIGHTCONE_TOL) -> np.ndarray:
    scale = np.maximum(np.sum(np.asarray(u) ** 2, axis=-1), 1e-300)
    return np.abs(norm2(u)) <= tol * scale


@dataclass(frozen=True)
class Frame:
    """A pair of null vectors (o, q) with (o, q) = -1 fixing an affine chart.

    q spans the point at infinity of the chart and doubles as the space
    form vector: the Euclidean lifts are exactly the null vectors y with
    (y, q) = -1.
    """

    o: np.ndarray
    q: np.ndarray

    @property
    def n(self) -> int:
        return self.o.shape[-1] - 2


def canonical_frame(n: int) -> Frame:
    o = np.zeros(n + 2)
    o[-2] = 0.5
    o[-1] = 0.5
    q = np.zeros(n + 2)
    q[-2] = -1.0
    q[-1] = 1.0
    return Frame(o=o, q=q)


def embed(x: np.ndarray) -> np.ndarray:
    """Pad R^n vectors with two trailing zeros into R^{n+1,1}."""
    x = np.asarray(x, dtype=float)
    pad = np.zeros(x.shape[:-1] + (2,))
    return np.concatenate([x, pad], axis=-1)


def euclidean_lift(x: np.ndarray) -> np.ndarray:
    """Null lift o + x + (x,x)/2 q of affine points, normalized to (y, q) = -1."""
    x = np.asarray(x, dtype=float)
    frame = canonical_frame(x.shape[-1])
    xx = np.sum(x * x, axis=-1)[..., None]
    return frame.o + embed(x) + 0.5 * xx * frame.q


def lift_derivative(x: np.ndarray, xprime: np.ndarray) -> np.ndarray:
    """Derivative of the Euclidean lift along a curve: x' + (x . x') q."""
    x = np.asarray(x, dtype=float)
    xprime = np.asarray(xprime, dtype=float)
    q = canonical_frame(x.shape[-1]).q
    xdx = np.sum(x * xprime, axis=-1)[..., None]
    return embed(xprime) + xdx * q


def affine_point(xi: np.ndarray) -> np.ndarray:
    """Affine points of R^n represented by null vectors, canonical chart.

    A null line whose pairing (xi, q) with the chart's infinity vanishes
    (relative to |xi|, below INFINITY_TOL) raises PointAtInfinityError.
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[-1] - 2
    w = -inner(xi, canonical_frame(n).q)
    scale = np.linalg.norm(xi, axis=-1)
    if not np.all(np.abs(w) > INFINITY_TOL * np.maximum(scale, 1e-300)):
        raise PointAtInfinityError("null line pairs to zero with the chart's infinity")
    return (xi / w[..., None])[..., :n]


def wedge_matrix(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Dense matrix of xi ^ eta, skew w.r.t. the Minkowski form."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    g = metric_diagonal(xi.shape[-1] - 2)
    return np.einsum("...i,...j->...ij", eta, xi * g) - np.einsum(
        "...i,...j->...ij", xi, eta * g
    )


def orthogonal_inverse(t: np.ndarray) -> np.ndarray:
    """G T^t G, the inverse of T in O(n+1,1), batched over leading axes."""
    g = metric_diagonal(np.shape(t)[-1] - 2)
    return g[:, None] * np.swapaxes(t, -1, -2) * g


def line_projection(v: np.ndarray, xi: np.ndarray, xihat: np.ndarray) -> np.ndarray:
    """Project v onto <xi> along <xihat> + <xi, xihat>^perp.

    Requires the two null lines to be complementary, (xi, xihat) != 0.
    """
    denom = inner(xi, xihat)
    check_complementary(xi, xihat, denom)
    return (inner(v, xihat) / denom)[..., None] * xi


def projection_matrix(xi: np.ndarray, xihat: np.ndarray) -> np.ndarray:
    """Dense matrix of ``line_projection(. , xi, xihat)``."""
    xi = np.asarray(xi, dtype=float)
    xihat = np.asarray(xihat, dtype=float)
    denom = inner(xi, xihat)
    check_complementary(xi, xihat, denom)
    g = metric_diagonal(xi.shape[-1] - 2)
    return np.einsum("...i,...j->...ij", xi, xihat * g) / denom[..., None, None]


def check_complementary(xi: np.ndarray, xihat: np.ndarray, denom: np.ndarray) -> None:
    """Raise NonComplementaryLinesError where ``denom`` = (xi, xihat) vanishes."""
    scale = np.linalg.norm(xi, axis=-1) * np.linalg.norm(xihat, axis=-1)
    if np.any(np.abs(denom) <= 1e-13 * np.maximum(scale, 1e-300)):
        raise NonComplementaryLinesError("null lines do not span an R^{1,1}")


def orthonormal_complement(o2: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Orthonormal basis of <o2, q2>^perp, a spacelike R^n, as rows.

    The pair must be complementary null lines.  Gram-Schmidt is run on
    the coordinate basis after projecting out the <o2, q2> components.
    """
    d = o2.shape[-1]
    n = d - 2
    basis = []
    for k in range(d):
        v = np.zeros(d)
        v[k] = 1.0
        v = v - line_projection(v, o2, q2) - line_projection(v, q2, o2)
        for b in basis:
            v = v - inner(v, b) * b
        nv2 = inner(v, v)
        # The complement is positive definite, so tiny norms mean dependence.
        if nv2 > 1e-10:
            basis.append(v / np.sqrt(nv2))
        if len(basis) == n:
            break
    if len(basis) != n:
        raise NonComplementaryLinesError("could not build a spacelike complement basis")
    return np.stack(basis)


def chart_coordinates(points: np.ndarray, frame: Frame, basis: np.ndarray) -> np.ndarray:
    """Affine coordinates of null vectors in an arbitrary chart.

    ``basis`` holds the rows of an orthonormal basis of <o, q>^perp, as
    ``chart_avoiding`` returns it.  For the canonical frame and the
    coordinate basis this reproduces ``affine_point``.
    """
    w = -inner(points, frame.q)
    scale = np.linalg.norm(points, axis=-1)
    if np.any(np.abs(w) <= INFINITY_TOL * np.maximum(scale, 1e-300)):
        raise PointAtInfinityError("a point has no finite representative in this chart")
    normalized = points / w[..., None]
    g = metric_diagonal(frame.n)
    return np.einsum("...i,ki->...k", normalized * g, basis)


def chart_avoiding(points: np.ndarray) -> tuple[Frame, np.ndarray]:
    """A chart in which none of the given null vectors sits at infinity.

    Tries the canonical frame first, then charts centered at
    deterministic pseudo-random affine points.  Returns the frame and an
    orthonormal basis of its spacelike complement.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, points.shape[-1])
    n = pts.shape[-1] - 2
    canonical = canonical_frame(n)

    def margin(frame: Frame) -> float:
        w = np.abs(inner(pts, frame.q))
        return float(np.min(w / np.maximum(np.linalg.norm(pts, axis=-1), 1e-300)))

    if margin(canonical) > 10 * INFINITY_TOL:
        return canonical, orthonormal_complement(canonical.o, canonical.q)
    rng = np.random.default_rng(0)
    for _ in range(64):
        center = rng.normal(size=n) * (1.0 + rng.exponential())
        q2 = euclidean_lift(center)
        # (q_canonical, q2) = -1, so the canonical q completes the frame.
        frame = Frame(o=canonical.q.copy(), q=q2)
        if margin(frame) > 1e-3:
            return frame, orthonormal_complement(frame.o, frame.q)
    raise PointAtInfinityError("no chart found avoiding all given points")


def projective_gap(u: np.ndarray, v: np.ndarray) -> float:
    """Worst distance between two sections seen as projective points.

    Rows are normalized in the Euclidean sense and sign-aligned, so the
    value is 0 exactly when every pair spans the same line.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    un = u / np.maximum(np.linalg.norm(u, axis=-1, keepdims=True), 1e-300)
    vn = v / np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-300)
    sign = np.where(np.sum(un * vn, axis=-1, keepdims=True) < 0.0, -1.0, 1.0)
    return float(np.max(np.linalg.norm(un - sign * vn, axis=-1)))
