"""Minimum-complexity pursuit: recovering structured signals from
underdetermined Gaussian measurements by minimizing a computable
description-length surrogate. The library is imported from its
submodules (mcpursuit.solver, mcpursuit.codecs, ...)."""

__version__ = "0.1.0"
