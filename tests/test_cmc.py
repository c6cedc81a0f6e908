"""Mixed-area mean curvature and conserved-quantity tests.

The CMC characterization runs through three layers of structure:
    - mixed-area elements of an edge pair, with the induced 2-vector
      pairing (a wedge b, c wedge d) = (a,c)(b,d) - (a,d)(b,c)
    - the Koenigs dual with weights nu = sqrt(m (x',x')), certified by
      verify_koenigs, which also recovers each mu
    - the linear conserved quantity p(t) = z t + q with z = n + H x,
      whose residual report certifies constant mean curvature H
Round cylinders (H = +-1/(2 radius)) and flat strips (H = 0) are the
closed-form fixtures.
"""

import numpy as np
import pytest

import isothermic.minkowski as mk
from isothermic import cmc
from isothermic.errors import (
    DimensionError,
    GeometryError,
    NonConjugateError,
)
from isothermic.fixtures import cmc_round_cylinder, flat_strip, perturb_curve
from isothermic.surface import SemiDiscreteSurface, surface_christoffel


def _lift_fields(surface):
    return [surface.lift(k) for k in range(surface.num_layers)]


def test_wedge_pairing_identity():
    rng = np.random.default_rng(3)
    g = mk.metric_matrix(3)
    a, b, c, d = rng.normal(size=(4, 6, 5))
    lhs = cmc.element_pairing(mk.wedge_matrix(a, b), mk.wedge_matrix(c, d))

    def ip(u, v):
        return np.einsum("ka,ab,kb->k", u, g, v)

    rhs = ip(a, c) * ip(b, d) - ip(a, d) * ip(b, c)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_element_pairing_is_the_trace_form(n):
    rng = np.random.default_rng(60 + n)
    a, b, c, d = rng.normal(size=(4, 7, n + 2))
    big_a = mk.wedge_matrix(a, b) + mk.wedge_matrix(c, d)
    big_b = mk.wedge_matrix(a, d) - 2.0 * mk.wedge_matrix(b, c)
    g = np.diag([1.0] * (n + 1) + [-1.0])
    dense = 0.5 * np.trace(g @ np.swapaxes(big_a, 1, 2) @ g @ big_b, axis1=1, axis2=2)
    np.testing.assert_allclose(
        cmc.element_pairing(big_a, big_b), dense, rtol=1e-14, atol=1e-14 * np.max(np.abs(dense))
    )


def test_wedge_element_is_metric_skew():
    rng = np.random.default_rng(4)
    g = mk.metric_matrix(2)
    a, b = rng.normal(size=(2, 8, 4))
    elem = mk.wedge_matrix(a, b) @ g
    assert np.max(np.abs(elem + elem.transpose(0, 2, 1))) < 1e-12


def test_mixed_area_symmetric_in_the_two_nets():
    fix = cmc_round_cylinder()
    surface = fix.surface
    x = _lift_fields(surface)
    z, _ = cmc.koenigs_dual(surface)
    one = cmc.mixed_area(x[0], x[1], z[0], z[1])
    two = cmc.mixed_area(z[0], z[1], x[0], x[1])
    assert np.max(np.abs(one.values - two.values)) < 1e-12


def test_koenigs_dual_kills_mixed_area():
    fix = cmc_round_cylinder()
    surface = fix.surface
    residual = cmc.is_christoffel_pair_mixed_area(
        _lift_fields(surface),
        cmc.lifted_christoffel_dual(surface),
    )
    assert residual < 1e-12


def test_affine_dual_lift_is_not_the_mixed_area_partner():
    # lifting the affine Christoffel dual does NOT produce the
    # mixed-area dual; the residual must stay visibly nonzero
    fix = cmc_round_cylinder()
    surface = fix.surface
    dual, _ = surface_christoffel(surface)
    residual = cmc.is_christoffel_pair_mixed_area(
        _lift_fields(surface),
        _lift_fields(dual),
    )
    assert residual > 1e-3


def test_koenigs_certificate_cylinder():
    fix = cmc_round_cylinder()
    surface = fix.surface
    fields, nu = cmc.koenigs_dual(surface)
    report = cmc.verify_koenigs(_lift_fields(surface), fields, nu)
    assert report.max_residual < 1e-10
    for mu in report.recovered_mu:
        assert abs(mu - fix.mu) < 1e-8
    assert abs(fix.mu + 16.0) < 1e-12


def test_koenigs_certificate_strip():
    fix = flat_strip()
    surface = fix.surface
    fields, nu = cmc.koenigs_dual(surface)
    report = cmc.verify_koenigs(_lift_fields(surface), fields, nu)
    assert report.max_residual < 1e-10
    assert abs(report.recovered_mu[0] + 4.0) < 1e-10


def test_koenigs_rejects_negative_weights():
    fix = cmc_round_cylinder(orientation="outward")
    with pytest.raises(GeometryError):
        cmc.koenigs_dual(fix.surface)


def test_conserved_quantity_validation():
    fix = cmc_round_cylinder()
    surface = fix.surface
    d = surface.n + 2
    z = [surface.lift(k).xi.copy() for k in range(surface.num_layers)]
    q = np.zeros(d)
    with pytest.raises(DimensionError):
        cmc.conserved_quantity_residual(surface, cmc.ConservedQuantity(z=z[:2], q=q))
    with pytest.raises(DimensionError):
        cmc.conserved_quantity_residual(
            surface, cmc.ConservedQuantity(z=[v[:, :3] for v in z], q=q)
        )


def test_tangent_congruence_rejects_non_unit_normals():
    fix = cmc_round_cylinder()
    bad = [1.01 * n for n in fix.normals]
    with pytest.raises(GeometryError):
        cmc.tangent_congruence(fix.surface, bad)


def test_mean_curvature_cylinder_inward():
    fix = cmc_round_cylinder(radius=1.0)
    h = cmc.mean_curvature(fix.surface, fix.congruence())
    assert h.shape == (len(fix.surface.mu), fix.surface.grid.num)
    assert np.max(np.abs(h - 0.5)) < 1e-10


def test_mean_curvature_cylinder_outward():
    fix = cmc_round_cylinder(radius=2.0, orientation="outward")
    h = cmc.mean_curvature(fix.surface, fix.congruence())
    assert np.max(np.abs(h + 0.25)) < 1e-10


def test_mean_curvature_strip_is_minimal():
    fix = flat_strip()
    h = cmc.mean_curvature(fix.surface, fix.congruence())
    assert np.max(np.abs(h)) < 1e-12


def test_mean_curvature_flags_broken_conjugacy():
    fix = cmc_round_cylinder()
    noisy = perturb_curve(fix.surface.curves[1], scale=1e-3, seed=2)
    bad = SemiDiscreteSurface(
        curves=[fix.surface.curves[0], noisy, fix.surface.curves[2]],
        mu=list(fix.surface.mu),
    )
    with pytest.raises(NonConjugateError):
        cmc.mean_curvature(bad, cmc.tangent_congruence(bad, fix.normals))


def test_linear_conserved_quantity_cylinder():
    fix = cmc_round_cylinder()
    cert = cmc.cmc_linear_cq(fix.surface, fix.congruence(), fix.h)
    assert cert.report.max_residual < 1e-10
    assert abs(cert.h_recovered - 0.5) < 1e-10
    assert abs(cert.c - 1.0) < 1e-10
    assert cert.c_spread < 1e-12
    assert cert.z_norm_spread < 1e-12


def test_linear_conserved_quantity_strip():
    fix = flat_strip()
    cert = cmc.cmc_linear_cq(fix.surface, fix.congruence(), fix.h)
    assert cert.report.max_residual < 1e-10
    assert abs(cert.h_recovered) < 1e-12
    assert cert.z_norm_spread < 1e-10


def test_conserved_quantity_accepts_sampled_constant_q():
    fix = cmc_round_cylinder()
    cert = cmc.cmc_linear_cq(fix.surface, fix.congruence(), fix.h)
    q_field = np.broadcast_to(cert.cq.q, (fix.surface.grid.num, fix.surface.n + 2))
    cq = cmc.ConservedQuantity(z=cert.cq.z, q=q_field.copy())
    report = cmc.conserved_quantity_residual(fix.surface, cq)
    assert report.q_constancy == 0.0
    assert report.max_residual < 1e-10
