"""Additive block designs over exact finite fields.

Constructions of classical 2-designs (difference-set developments, Paley,
Singer, PG_d(n,q), AG_d(n,q)), embeddings into abelian groups with
zero-sum blocks, and exhaustive verifiers for additivity and strong
additivity.
"""

import os

# every product in the package is int64 or object dtype, which numpy
# computes without BLAS, so OpenBLAS's worker threads would only burn CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import additivity, designs, errors, geometry, gf

__all__ = ["gf", "geometry", "designs", "additivity", "errors"]
