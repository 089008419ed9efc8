"""Simulation and analysis toolkit for OPA-assisted broadband homodyne
measurement of squeezed light."""

__version__ = "0.1.0"
