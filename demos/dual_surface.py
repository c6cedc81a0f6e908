"""A layered isothermic surface, its certificates, and its dual.

Stacking Darboux transforms of one curve gives a semi-discrete
isothermic surface.  This script builds a three-layer example, runs
the per-edge certificates, computes the Christoffel dual surface (edge
positions must integrate consistently with the smooth dual equation),
applies the whole-surface Darboux and Calapso transforms, and exports
an OBJ mesh.
"""

import numpy as np

from isothermic import fileio
from isothermic.darboux import is_darboux_pair
from isothermic.fixtures import unit_circle
from isothermic.surface import (
    build_surface,
    calapso_trivialization_residuals,
    check_isothermic,
    moutard_lift,
    surface_calapso,
    surface_christoffel,
    surface_darboux,
)


def main():
    seed = unit_circle()
    surface = build_surface(
        seed, [(-2.0, np.array([2.0, 0.0])), (1.0, np.array([0.3, -0.4]))]
    )
    report = check_isothermic(surface)
    for i, edge in enumerate(report.edges):
        print(
            f"edge {i}: mu = {edge.mu:+.9f} (declared {edge.declared_mu:+g}), "
            f"spread {edge.spread:.2e}, reality {edge.reality:.2e}"
        )

    lift = moutard_lift(surface)
    print(f"moutard signs {lift.signs}, "
          f"pairing residual {max(lift.pairing_residual):.2e}, "
          f"mixed-area residual {max(lift.area_residual):.2e}")

    dual, consistency = surface_christoffel(surface)
    print(f"dual surface edge/smooth consistency: {max(consistency):.3e}")
    worst = max(edge.residual for edge in check_isothermic(dual).edges)
    print(f"dual surface isothermicity residual: {worst:.3e}")

    hat = surface_darboux(surface, -3.0, np.array([0.0, 3.0]))
    fits = [
        is_darboux_pair(surface.curves[i], hat.curves[i]).mu
        for i in range(surface.num_layers)
    ]
    print(f"vertical Darboux parameters: {np.round(fits, 9)}")

    moved = surface_calapso(surface, 0.4)
    print(f"calapso shifts edge parameters {surface.mu} -> {moved.mu}")
    print(f"frame chaining constancy: {max(calapso_trivialization_residuals(surface, 0.4)):.3e}")

    fileio.export_obj("surface.obj", surface)
    print("wrote surface.obj")


if __name__ == "__main__":
    main()
