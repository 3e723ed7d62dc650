"""Exact arithmetic for Hecke groups: conjugacy classes, lambda continued
fractions, binary quadratic forms, irreducible systems of poles, and rational
period functions, all over the trace field Z[2cos(pi/p)]."""

__version__ = "0.1.0"

__all__ = ["__version__"]
