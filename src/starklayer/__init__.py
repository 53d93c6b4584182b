"""Spectral toolkit for a field-biased quantum layer with a Neumann disc window.

Computes the transverse Stark spectra of the layer exactly via Airy
determinants, localizes the windowed operator's discrete spectrum with
Bessel-zero brackets, certifies bound-state existence with an explicit
variational trial function, and cross-validates everything with a 2-D
axisymmetric finite-difference eigensolver.
"""

from .specfun import (
    BesselZeroTable,
    QuadratureError,
    UnsupportedOrderError,
    airy_ai_zero,
    airy_aip_zero,
    bessel_zero,
    integrate,
)
from .transverse import (
    BoundaryType,
    SolverError,
    TransverseLevel,
    WaveguideParams,
    asymptotic_strong,
    asymptotic_weak,
    chi,
    chi_prime,
    fd_levels_oracle,
    levels,
    strong_field_airy_level,
)
from .bracket import (
    BracketEstimate,
    FigureCurves,
    SpectralWindow,
    count_certified,
    dirichlet_disc_levels,
    figure_curves,
    sorted_bessel_zeros,
    sufficient_radii,
    sufficient_radius,
    window,
)
# The bound-state certifier lives in the `certify` submodule; its main entry
# point shares the module name, so it is reached as `starklayer.certify.certify`
# (re-exporting the bare function would shadow the submodule).
from .certify import (
    Certificate,
    CertificateError,
    TrialSpec,
    coefficients,
    q_functional,
)
from .fd2d import (
    BCKind,
    ConvergenceError,
    CylGrid,
    EigResult,
    WindowBC,
    WindowResult,
    assemble,
    lowest_eigs,
    window_ground_state,
)

__version__ = "0.1.0"
