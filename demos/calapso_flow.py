"""The Calapso transformation and how it moves Darboux parameters.

T^t is the trivializing frame of the flat connection family; it is a
second-kind transform that fixes the polarization and shifts every
Darboux parameter: if xhat is a mu-transform of x, then T^mu carries
the pair to a constant line, and for generic tau the transformed pair
(T^tau x, T^tau xhat) is Darboux with parameter mu - tau.
"""

import numpy as np

import isothermic.minkowski as mk
from isothermic.darboux import integrate_parallel_section, integrate_riccati, is_darboux_pair
from isothermic.fixtures import unit_circle
from isothermic.transforms import (
    calapso_curve,
    calapso_darboux_permute,
    integrate_calapso,
    transported_section_drift,
    verify_calapso_composition,
    verify_calapso_intertwine,
)


def main():
    curve = unit_circle()
    mu, tau = -2.0, 0.7
    start = np.array([2.0, 0.0])

    frames = integrate_calapso(curve, tau)
    g = mk.metric_matrix(curve.n)
    gram = np.einsum("kia,ij,kjb->kab", frames.T, g, frames.T)
    print(f"frame metric drift over the run: {np.max(np.abs(gram - g)):.3e}")

    moved = calapso_curve(curve, tau)
    print(f"polarization carried unchanged: {np.max(np.abs(moved.m - curve.m)):.3e}")

    # T^mu straightens the mu-section to a constant line
    section = integrate_parallel_section(curve, mu, start)
    frames_mu = integrate_calapso(curve, mu)
    print(f"transported mu-section constancy: {transported_section_drift(frames_mu, section):.3e}")

    print(f"composition T^(s+t) vs T^s T^t: {verify_calapso_composition(curve, 0.4, 0.3):.3e}")

    hat = integrate_riccati(curve, mu, start)
    print(f"intertwine with the Darboux pair: {verify_calapso_intertwine(curve, hat, mu, 0.5):.3e}")

    new_base, new_hat = calapso_darboux_permute(curve, hat, mu, tau)
    fit = is_darboux_pair(new_base, new_hat)
    print(f"transformed pair parameter: {fit.mu:+.12f} (expected {mu - tau:+g})")


if __name__ == "__main__":
    main()
