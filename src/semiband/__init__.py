"""Block diagonalization of matrix-valued Hamiltonians, order by order in hbar.

The package turns a Hamiltonian H(R, P) with internal matrix structure into an
effective block-diagonal band Hamiltonian with Berry-connection corrections
through second order in hbar, exposes the covariant position/momentum algebra
and Berry curvatures, and integrates the resulting semiclassical ray
equations.  An exact symbolic module (`semiband.weyl`) verifies the
noncommutative phase-space calculus identities the expansion relies on.
"""

from semiband.fields import ScalarField, make_field
from semiband.models import PhasePoint, make_model
from semiband.frames import (
    BandFrame,
    ConnectionSet,
    Tolerances,
    berry_connections,
    classical_frame,
)
from semiband.energy import EnergyReport, band_energy, band_energy_batch
from semiband.dynamics import (
    CovariantVars,
    CurvatureSet,
    Trajectory,
    TrajectoryState,
    band_curvature_vector,
    berry_curvatures,
    covariant_variables,
    integrate_ray,
)

__all__ = [
    "ScalarField",
    "make_field",
    "PhasePoint",
    "make_model",
    "BandFrame",
    "ConnectionSet",
    "Tolerances",
    "berry_connections",
    "classical_frame",
    "EnergyReport",
    "band_energy",
    "band_energy_batch",
    "CovariantVars",
    "CurvatureSet",
    "Trajectory",
    "TrajectoryState",
    "band_curvature_vector",
    "berry_curvatures",
    "covariant_variables",
    "integrate_ray",
    "run_suites",
]

__version__ = "0.1.0"


def __getattr__(name):
    # `semiband.verify` is needed only to run the suites: it is loaded on
    # first use of `run_suites`, not with every import of the package.
    if name == "run_suites":
        from semiband.verify import run_suites
        return run_suites
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
