"""Finite-volume Richards solver with a graph-parametrization Newton unknown."""

__version__ = "0.1.0"
