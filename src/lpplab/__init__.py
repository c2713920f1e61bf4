"""A laboratory for last passage percolation geometry.

Exact passage values, geodesics, disjoint 2-optimizers, disjointness-gap
sheets, geodesic network classification, and finite-horizon Busemann
diagnostics on seeded Poisson and lattice environments.

``engine`` (and ``flow`` under it) is loaded on first use: its names are
re-exported here through a module ``__getattr__``, and ``gaplab``,
``classify`` and ``busemann`` import it inside the functions that call
it, so a run that never asks for a geodesic or a disjoint pair, such as
a gap sheet, does not import it.
"""

from .model import (DomainError, LatticeField, OrderedQuad, ParameterError,
                    PoissonCloud, Region, ScalingFrame, SpaceTimePoint,
                    causal_leq, cloud_from_points, make_lattice_field,
                    make_poisson_cloud, model_from_descriptor, reflect,
                    rescale, rotate45)

__version__ = "0.1.0"

_ENGINE_NAMES = ("Chain", "DisjointPair", "GeodesicNetwork", "OverlapInterval",
                 "disjoint2_value", "geodesic", "greene_values", "network",
                 "on_optimal", "optimizer2", "overlap", "passage_profile",
                 "passage_value")


def __getattr__(name):
    if name in _ENGINE_NAMES:
        from . import engine
        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
