"""Constant mean curvature via mixed areas and conserved quantities.

A stack of parallel circles in R^3 is a semi-discrete cylinder.  Its
mixed-area mean curvature H = -A(x,n)/A(x,x) is constant, and the
linear polynomial p(t) = z t + q with z = n + H x is conserved: q is
constant, z is orthogonal to the lift, and z satisfies one smooth and
one edge equation.  The Koenigs dual provides the underlying duality
certificate.  A flat strip shows the minimal case H = 0.
"""

import numpy as np

from isothermic import cmc, fileio
from isothermic.fixtures import cmc_round_cylinder, flat_strip


def describe(fix, title):
    surface = fix.surface
    congruence = fix.congruence()
    h = cmc.mean_curvature(surface, congruence)
    print(f"{title}:")
    print(f"  H = {np.median(h):+.9f} (closed form {fix.h:+g}), spread {np.max(h) - np.min(h):.2e}")

    cert = cmc.cmc_linear_cq(surface, congruence, fix.h)
    report = cert.report
    print(f"  conserved quantity q = c q0 with c = {cert.c:+.9f} (spread {cert.c_spread:.2e})")
    print(f"    q constancy    {report.q_constancy:.2e}")
    print(f"    orthogonality  {report.orthogonality:.2e}")
    print(f"    edge equation  {max(report.edge):.2e}")
    print(f"    smooth equation {max(report.smooth):.2e}")
    print(f"  |z|^2 = 1 drift: {cert.z_norm_spread:.2e}")

    fields, nu = cmc.koenigs_dual(surface)
    x_fields = [
        cmc.SampledField(values=surface.lift(k).xi, prime=surface.lift(k).xiprime)
        for k in range(surface.num_layers)
    ]
    kreport = cmc.verify_koenigs(x_fields, fields, nu, surface.grid)
    print(f"  koenigs duality residual: {kreport.max_residual:.2e}, "
          f"recovered mu {np.round(kreport.recovered_mu, 9)}")


def main():
    cylinder = cmc_round_cylinder(radius=1.0, delta=0.5, layers=3)
    describe(cylinder, "round cylinder (radius 1, inward normals)")
    describe(flat_strip(), "flat strip")

    fileio.export_obj("cylinder.obj", cylinder.surface)
    print("wrote cylinder.obj")


if __name__ == "__main__":
    main()
