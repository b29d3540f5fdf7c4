"""Fuel-optimal landing trajectory planning for reusable launch vehicles.

A quadratic fit of the ballistic coast couples the ignition time to the
burn's initial state; a sequential convex programming (SCP) planner then
solves the free-final-time powered descent with lossless thrust relaxation,
each convex subproblem going to an embedded primal-dual conic
interior-point solver.
"""

__version__ = "0.1.0"
