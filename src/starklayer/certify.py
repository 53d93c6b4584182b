"""Constructive bound-state certificates for the windowed layer.

The trial function is

    Phi(r, z) = phi_tau(r) * chi_1(z) + eps * phi(r)^2 * (1 - z/d),

with ``chi_1`` the Dirichlet-Dirichlet transverse ground state, ``phi`` a
fixed mollifier bump supported in the window ``r < a`` and ``phi_tau`` a
logarithmic dilation of a smoothstep cutoff that equals 1 on ``[0, b]``,
``b > a``.  Phi must vanish wherever the wall is Dirichlet: on the whole top
wall ``z = d`` and on the bottom wall outside the window.  The bump term
carries ``1 - z/d`` so that it vanishes at ``z = d``; at ``z = 0`` it is
``phi(r)^2``, nonzero only inside the Neumann window.

Since ``phi_tau = 1`` on the bump's support, the defining integrals of

    Q[Phi] = Q_r[Phi] - edge * ||Phi||^2 = A*tau + B*eps^2 - C*eps

reduce exactly.  The log substitution ``s = b + tau*(ln r - ln b)`` turns the
cutoff gradient into ``tau`` times the profile's, ``A = 2*pi*10/7``, and the
eigenvalue equation of ``chi_1`` annihilates the rest of the cutoff block.
The bump block is ``B = 2*pi*[I_g*d/3 + a^2*I_4*(1/d + F*d^2/12 - lam*d/3)]``.
Integrating the cross term by parts with ``chi_1'' = (F z - lam) chi_1``
leaves only the boundary term at the window, ``C = 4*pi*a^2*I_2*chi_1'(0)``.
``A, C > 0`` always, so suitable ``(eps, tau)`` drive Q negative: a
computable witness that the discrete spectrum below the essential-spectrum
edge is nonempty.

Phi itself is never evaluated here; its float64 pieces, which tests
integrate, and an mpmath Q from the defining integrals are in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bracket import SpectralWindow, window
from .transverse import BoundaryType, WaveguideParams, chi_prime, ground_level

__all__ = [
    "TrialSpec",
    "Certificate",
    "CertificateError",
    "q_functional",
    "coefficients",
    "certify",
]

CUTOFF_DECAY_WIDTH = 1.0   # decay interval [b, b+1]; keeps the tau-coefficient universal

# Moments of the unit bump g(s) = exp(-1/(1-(2s-1)^2)) over (0, 1), by mpmath
# at 30 digits (tests/oracles.py::bump_moments): int g^2 s ds, int g^4 s ds and
# int ((g^2)')^2 s ds.  phi(r) = g(r/a), so the first two scale as a^2 and the
# last does not scale.
_BUMP_I2 = 0.033271530211248567889
_BUMP_I4 = 0.0035149292033048281196
_BUMP_IG = 0.0532714369890281506

_PHI_DESCRIPTION = ("exp(-1/(1-((2r-a)/a)^2)) for r in (0,a), 0 outside; "
                    "the bump term is eps*phi(r)^2*(1 - z/d)")
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


def coefficients(params: WaveguideParams, spec: TrialSpec):
    """Coefficients (A, B, C) of ``Q = A*tau + B*eps^2 - C*eps``, in closed form.

    A is universal (the fixed cutoff profile); B is the bump block over the
    z-profile ``1 - z/d``; C is the boundary term ``chi_1'(0)`` left by
    integrating the cross term by parts.
    """
    level = ground_level(params.F, params.d, BoundaryType.DIRICHLET_DIRICHLET)
    lam = level.lam
    d = params.d
    a2 = spec.a * spec.a

    # ||p'||^2 = 900 * B(5, 5) / width = (10/7) / width for the quintic smoothstep.
    A = 2.0 * math.pi * (10.0 / 7.0) / CUTOFF_DECAY_WIDTH
    B = 2.0 * math.pi * (_BUMP_IG * d / 3.0
                         + a2 * _BUMP_I4 * (1.0 / d + params.F * d * d / 12.0 - lam * d / 3.0))
    C = 4.0 * math.pi * a2 * _BUMP_I2 * chi_prime(level, params, 0.0)
    return A, B, C


def q_functional(params: WaveguideParams, spec: TrialSpec) -> float:
    """``Q[Phi]`` of the trial function ``spec``, in closed form."""
    A, B, C = coefficients(params, spec)
    return A * spec.tau + B * spec.eps ** 2 - C * spec.eps


def certify(params: WaveguideParams) -> Certificate:
    """Produce a negative-Q certificate for the given configuration.

    The plateau radius is ``b = 2a`` (Q does not depend on it).  Picks the
    optimal bump amplitude ``eps = C/(2B)`` (or 1 when B <= 0) and a tail
    rate at which the cutoff cost ``A*tau`` is at most a quarter of the gain
    ``C*eps - B*eps^2``, so Q is at most -3/4 of the gain; the closed-form Q
    is then checked for sign against rounding, and refused if it or a
    coefficient overflows (``a`` past about 3.8e153 at ``F = d = 1``).
    """
    if not params.a > 0.0:
        raise ValueError("certification requires a positive window radius")
    b = 2.0 * params.a
    A, B, C = coefficients(params, TrialSpec(a=params.a, b=b, tau=1.0, eps=0.0))
    if not (A > 0.0 and C > 0.0):
        raise CertificateError(f"coefficient signs wrong: A={A}, B={B}, C={C}")

    eps = C / (2.0 * B) if B > 0.0 else 1.0
    gain = C * eps - B * eps * eps
    if gain <= 0.0:
        raise CertificateError(f"no positive gain at eps={eps}: A={A}, B={B}, C={C}")
    tau = 0.5 * min(1.0, gain / (2.0 * A))
    if not tau > 0.0:
        raise CertificateError(f"tail rate underflows: gain/(2A) = {gain}/{2.0 * A} rounds to 0")
    spec = TrialSpec(a=params.a, b=b, tau=tau, eps=eps)
    q = A * tau + B * eps ** 2 - C * eps
    if not -math.inf < q < 0.0:
        raise CertificateError(f"Q = {q} is not finite and negative: A={A}, B={B}, C={C}")
    return Certificate(spec=spec, q_value=q, coeff_A=A, coeff_B=B, coeff_C=C,
                       window=window(params))
