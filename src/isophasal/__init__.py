"""Isophasal metric laboratory: brackets, torus-invariant metrics, curvature, heat invariants.

The modules are the API (brackets, metric, frame, coord, heat, intertwine,
config, cli); each lists its public names in __all__.  Import from them.
"""

__version__ = "0.1.0"
