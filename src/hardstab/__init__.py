"""Numerical laboratory for hard-to-stabilize linear system families."""

__version__ = "0.1.0"
