"""Simulator and analysis toolkit for the k-mobile-server problem.

k identical servers move through Euclidean space with a per-step speed
limit and answer a stream of requests; serving costs distance, moving
costs distance times a weight D.  The package provides the online
algorithms (UMS, WMS and a matching-only baseline), the simulated
guidance algorithms they follow, adversarial instance generators with
offline certificates, a discretized offline optimum, and verifiers for
the per-step potential and containment inequalities the algorithms are
designed to satisfy.
"""
