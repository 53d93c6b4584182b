"""Constructive bound-state certificates for the windowed layer.

Builds the trial function ``Phi(r, z) = phi_tau(r) * (chi_1(z) + eps*phi(r)^2)``
from a fixed mollifier bump ``phi`` supported in the window and a logarithmic
dilation ``phi_tau`` of a smoothstep cutoff, then evaluates

    Q[Phi] = Q_r[Phi] - edge * ||Phi||^2 = A*tau + B*eps^2 - C*eps.

``A, C > 0`` always, so suitable ``(eps, tau)`` drive ``Q`` negative: a
computable witness that the discrete spectrum below the essential-spectrum
edge is nonempty.  Quadrature of the defining integrals is the source of
truth; the coefficient decomposition is assembled through independent routes
(endpoint derivatives of the transverse ground state vs. direct z-quadrature)
so the two can be cross-checked.

The eigenvalue identity of ``chi_1`` makes the would-be divergent tail
integral ``||phi_tau||^2 * 0`` vanish exactly, and the log substitution
``s = b + tau*(ln r - ln b)`` maps the infinite cutoff tail onto the finite
decay interval, so no truncation error enters the radial integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .bracket import SpectralWindow, window
from .transverse import BoundaryType, WaveguideParams, chi, chi_prime, ground_level

__all__ = [
    "TrialSpec",
    "Certificate",
    "CertificateError",
    "bump",
    "bump_prime",
    "cutoff_profile",
    "cutoff_profile_prime",
    "cutoff_dilated",
    "cutoff_dilated_prime",
    "grad_norm_cutoff",
    "q_functional",
    "coefficients",
    "certify",
]

CUTOFF_DECAY_WIDTH = 1.0   # decay interval [b, b+1]; keeps the tau-coefficient universal
QUAD_REL = 1e-11           # quadrature target relative to the integral's scale

_PHI_DESCRIPTION = "exp(-1/(1-((2r-a)/a)^2)) for r in (0,a), 0 outside"
_VARPHI_DESCRIPTION = ("1 on [0,b], quintic smoothstep decay to 0 on [b,b+1], "
                       "dilated through s = b + tau*(ln r - ln b) for r >= b")


class CertificateError(RuntimeError):
    """No negative trial value found; signals a numerical bug, not a theory gap."""


@dataclass(frozen=True)
class TrialSpec:
    """Trial-function parameters: window radius a, plateau radius b, tail rate tau, bump amplitude eps."""

    a: float
    b: float
    tau: float
    eps: float
    phi: str = _PHI_DESCRIPTION
    varphi: str = _VARPHI_DESCRIPTION

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > self.a):
            raise ValueError("need plateau radius b > window radius a > 0")
        if not self.tau > 0.0:
            raise ValueError("tail rate tau must be > 0")
        if self.eps < 0.0:
            raise ValueError("bump amplitude eps must be >= 0")


@dataclass(frozen=True)
class Certificate:
    """A certified negative trial value with its quadratic decomposition."""

    spec: TrialSpec
    q_value: float
    coeff_A: float
    coeff_B: float
    coeff_C: float
    window: SpectralWindow

    @property
    def valid(self) -> bool:
        return self.q_value < 0.0


def bump(r, a: float):
    """Smooth bump supported in (0, a), peak value e^-1 at r = a/2."""
    r_arr = np.asarray(r, dtype=np.float64)
    s = (2.0 * r_arr - a) / a
    inside = np.abs(s) < 1.0 - 1e-14
    s_safe = np.where(inside, s, 0.0)
    out = np.where(inside, np.exp(-1.0 / (1.0 - s_safe ** 2)), 0.0)
    return float(out) if np.isscalar(r) else out


def bump_prime(r, a: float):
    r_arr = np.asarray(r, dtype=np.float64)
    s = (2.0 * r_arr - a) / a
    inside = np.abs(s) < 1.0 - 1e-14
    s_safe = np.where(inside, s, 0.0)
    one = 1.0 - s_safe ** 2
    out = np.where(inside, np.exp(-1.0 / one) * (-2.0 * s_safe / one ** 2) * (2.0 / a), 0.0)
    return float(out) if np.isscalar(r) else out


def _smoothstep(t):
    return ((6.0 * t - 15.0) * t + 10.0) * t ** 3


def _smoothstep_prime(t):
    return 30.0 * t ** 2 * (1.0 - t) ** 2


def cutoff_profile(s, b: float):
    """Plateau profile: 1 on [0, b], quintic decay on [b, b+1], 0 beyond."""
    s_arr = np.asarray(s, dtype=np.float64)
    t = np.clip((s_arr - b) / CUTOFF_DECAY_WIDTH, 0.0, 1.0)
    out = 1.0 - _smoothstep(t)
    return float(out) if np.isscalar(s) else out


def cutoff_profile_prime(s, b: float):
    s_arr = np.asarray(s, dtype=np.float64)
    t = (s_arr - b) / CUTOFF_DECAY_WIDTH
    on = (t > 0.0) & (t < 1.0)
    t_safe = np.where(on, t, 0.0)
    out = np.where(on, -_smoothstep_prime(t_safe) / CUTOFF_DECAY_WIDTH, 0.0)
    return float(out) if np.isscalar(s) else out


def cutoff_dilated(r, b: float, tau: float):
    """``phi_tau(r)``: the profile traversed logarithmically beyond the plateau."""
    r_arr = np.asarray(r, dtype=np.float64)
    tail = r_arr > b
    s = np.where(tail, b + tau * (np.log(np.where(tail, r_arr, b)) - math.log(b)), 0.0)
    out = np.where(tail, cutoff_profile(s, b), 1.0)
    return float(out) if np.isscalar(r) else out


def cutoff_dilated_prime(r, b: float, tau: float):
    r_arr = np.asarray(r, dtype=np.float64)
    tail = r_arr > b
    r_safe = np.where(tail, r_arr, b)
    s = b + tau * (np.log(r_safe) - math.log(b))
    out = np.where(tail, cutoff_profile_prime(s, b) * tau / r_safe, 0.0)
    return float(out) if np.isscalar(r) else out


def grad_norm_cutoff(b: float) -> float:
    """``||phi'||^2`` of the undilated profile over the decay interval (equals 10/7 / width)."""
    return specfun.integrate(lambda s: cutoff_profile_prime(s, b) ** 2,
                             b, b + CUTOFF_DECAY_WIDTH, QUAD_REL)


def _bump_integrals(a: float):
    """(int phi^2 r dr, int (d(phi^2)/dr)^2 r dr, int phi^4 r dr) over (0, a)."""
    scale = max(a * a, 1e-8)
    i_phi2 = specfun.integrate(lambda r: bump(r, a) ** 2 * r, 0.0, a, QUAD_REL * scale)
    i_grad = specfun.integrate(lambda r: (2.0 * bump(r, a) * bump_prime(r, a)) ** 2 * r,
                               0.0, a, QUAD_REL * max(1.0, scale))
    i_phi4 = specfun.integrate(lambda r: bump(r, a) ** 4 * r, 0.0, a, QUAD_REL * scale)
    return i_phi2, i_grad, i_phi4


def coefficients(params: WaveguideParams, spec: TrialSpec):
    """Coefficients (A, B, C) of ``Q = A*tau + B*eps^2 - C*eps``.

    A is universal (the fixed cutoff profile); B comes from the bump block by
    direct quadrature; C uses the endpoint derivatives of the ground state,
    the integrated form of ``-chi_1''``.
    """
    level = ground_level(params.F, params.d, BoundaryType.DIRICHLET_DIRICHLET)
    lam = level.lam
    d = params.d

    A = 2.0 * math.pi * grad_norm_cutoff(spec.b)
    i_phi2, i_grad, i_phi4 = _bump_integrals(spec.a)
    B = 2.0 * math.pi * (d * i_grad + (params.F * d * d / 2.0 - lam * d) * i_phi4)
    slope_drop = chi_prime(level, params, 0.0) - chi_prime(level, params, d)
    C = 2.0 * slope_drop * 2.0 * math.pi * i_phi2
    return A, B, C


def q_functional(params: WaveguideParams, spec: TrialSpec) -> float:
    """``Q[Phi]`` by quadrature of the defining integrals.

    z-integrals use the exact reductions ``||chi_1|| = 1`` and the eigenvalue
    identity where they apply and quadrature elsewhere; the cutoff tail is
    integrated exactly through the log substitution, so nothing is truncated.
    """
    level = ground_level(params.F, params.d, BoundaryType.DIRICHLET_DIRICHLET)
    lam = level.lam
    d = params.d
    a, b, tau, eps = spec.a, spec.b, spec.tau, spec.eps

    # Cutoff block: 2*pi*tau*||phi'||^2 * ||chi_1||^2; the remaining z-factor
    # (eigenvalue identity) is exactly zero against the divergent tail norm.
    t_cutoff = 2.0 * math.pi * tau * grad_norm_cutoff(b)

    # Bump block, z-independent: gradient and potential terms.
    xi = lambda r: cutoff_dilated(r, b, tau) * bump(r, a) ** 2  # noqa: E731
    xi_prime = lambda r: (cutoff_dilated_prime(r, b, tau) * bump(r, a) ** 2  # noqa: E731
                          + cutoff_dilated(r, b, tau) * 2.0 * bump(r, a) * bump_prime(r, a))
    scale = max(a * a, 1e-8)
    i_xi2 = specfun.integrate(lambda r: xi(r) ** 2 * r, 0.0, a, QUAD_REL * scale)
    i_xigrad = specfun.integrate(lambda r: xi_prime(r) ** 2 * r, 0.0, a, QUAD_REL * max(1.0, scale))
    t_bump = eps ** 2 * 2.0 * math.pi * (d * i_xigrad
                                         + (params.F * d * d / 2.0 - lam * d) * i_xi2)

    # Cross terms: the gradient one vanishes on disjoint supports (integrated
    # honestly); the potential one is the negative coupling to -chi_1''.
    i_cross_grad = specfun.integrate(
        lambda r: cutoff_dilated_prime(r, b, tau) * xi_prime(r) * r, 0.0, a,
        QUAD_REL * max(1.0, scale))
    z_chi = specfun.integrate(lambda z: chi(level, params, z), 0.0, d,
                              QUAD_REL * max(1.0, d))
    z_pot = specfun.integrate(lambda z: (params.F * z - lam) * chi(level, params, z),
                              0.0, d, QUAD_REL * max(1.0, abs(lam) * d))
    i_cross_pot = specfun.integrate(
        lambda r: cutoff_dilated(r, b, tau) * xi(r) * r, 0.0, a, QUAD_REL * scale)
    t_cross = 2.0 * eps * 2.0 * math.pi * (i_cross_grad * z_chi + i_cross_pot * z_pot)

    return t_cutoff + t_cross + t_bump


def certify(params: WaveguideParams, b: float | None = None) -> Certificate:
    """Produce a negative-Q certificate for the given configuration.

    Picks the closed-form optimal bump amplitude (or 1 when the quadratic
    coefficient is nonpositive), a tail rate small enough that the cutoff
    cost stays under half the gain, then verifies by full quadrature,
    shrinking by halving if the quadrature value disagrees in sign.
    """
    if not params.a > 0.0:
        raise ValueError("certification requires a positive window radius")
    if b is None:
        b = 2.0 * params.a
    probe = TrialSpec(a=params.a, b=b, tau=1.0, eps=0.0)
    A, B, C = coefficients(params, probe)
    if not (A > 0.0 and C > 0.0):
        raise CertificateError(f"coefficient signs wrong: A={A}, B={B}, C={C}")

    eps = C / (2.0 * B) if B > 0.0 else 1.0
    gain = C * eps - B * eps * eps
    if gain <= 0.0:
        raise CertificateError(f"no positive gain at eps={eps}: A={A}, B={B}, C={C}")
    tau = 0.5 * min(1.0, gain / (2.0 * A))

    q = math.inf
    spec = None
    for _ in range(41):
        spec = TrialSpec(a=params.a, b=b, tau=tau, eps=eps)
        q = q_functional(params, spec)
        if q < 0.0:
            break
        eps *= 0.5
        tau *= 0.5
    if not q < 0.0:
        raise CertificateError(
            f"quadrature never confirmed Q < 0 after halvings: A={A}, B={B}, C={C}")
    return Certificate(spec=spec, q_value=q, coeff_A=A, coeff_B=B, coeff_C=C,
                       window=window(params))
