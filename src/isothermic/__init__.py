"""Darboux transforms of polarized curves and semi-discrete isothermic
surfaces in the conformal n-sphere.

Submodules
----------
clifford : products of vectors in Cl(n), and cross ratios.
minkowski : light-cone model of the conformal n-sphere.
curves : polarized curves on uniform grids.
darboux : Darboux transforms, flat connections, parallel sections.
bianchi : permutability quads and cubes.
transforms : Calapso and Christoffel transforms of curves.
surface : semi-discrete isothermic surfaces and their transforms.
cmc : mixed areas, mean curvature, conserved quantities.
fileio : JSON/OBJ/CSV formats.
cli : command line interface.
"""

from . import (
    bianchi,
    clifford,
    cmc,
    curves,
    darboux,
    errors,
    fileio,
    fixtures,
    minkowski,
    surface,
    transforms,
)

__version__ = "0.1.0"

__all__ = [
    "bianchi",
    "clifford",
    "cmc",
    "curves",
    "darboux",
    "errors",
    "fileio",
    "fixtures",
    "minkowski",
    "surface",
    "transforms",
    "__version__",
]
