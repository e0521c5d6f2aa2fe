"""Entanglement lifetimes for photon pairs in lossy depolarizing lines.

The package models each transmission line as a qubit map combining
depolarization with polarization-dependent loss, brings that map into a
unital trace-preserving normal form sandwiched between two filters, and from
the normal forms computes how long conditional (postselected) entanglement
can survive and which initial state survives the longest.  The names live
in the submodules (dynamics, sinkhorn, entanglement, ...); import them from
there.
"""

__version__ = "0.1.0"
