"""Constructive bound-state certificates for the windowed layer.

The trial function is

    Phi(r, z) = phi_tau(r) * chi_1(z) + eps * h(r/a) * (1 - z/d),

with ``chi_1`` the Dirichlet-Dirichlet transverse ground state,
``h(s) = 1 - s^2`` on ``[0, 1]`` and 0 outside, and ``phi_tau`` a logarithmic
dilation of the cutoff that equals 1 on ``[0, b]`` and falls linearly to 0 on
``[b, b + 1]``.  Phi need only lie in the form domain H^1, so both pieces are
piecewise polynomials, each the optimal one: h maximizes the small-a gain
``C^2/(4B)`` among profiles with ``h(1) = 0``, and the ramp minimizes the
cutoff's gradient norm.  Phi must vanish wherever the wall is Dirichlet: on
the whole top wall ``z = d`` and on the bottom wall outside the window.  The
window term carries ``1 - z/d`` so that it vanishes at ``z = d``; at ``z = 0``
it is ``eps * h(r/a)``, nonzero only inside the Neumann window.

Since ``phi_tau = 1`` on the window term's support (``b = 2a``), the defining
integrals of

    Q[Phi] = Q_r[Phi] - edge * ||Phi||^2 = A*tau + B*eps^2 - C*eps

reduce exactly.  The log substitution ``s = b + tau*(ln r - ln b)`` turns the
cutoff gradient into ``tau`` times the ramp's, ``A = 2*pi``, and the
eigenvalue equation of ``chi_1`` annihilates the rest of the cutoff block.
With ``int h'^2 s ds = 1`` and ``int h^2 s ds = 1/6``, the window block is
``B = 2*pi*[d/3 + (a^2/6)*(1/d + F*d^2/12 - lam*d/3)]``.  Integrating the
cross term by parts with ``chi_1'' = (F z - lam) chi_1`` leaves only the
boundary term at the window, ``C = pi*a^2*chi_1'(0)`` (``int h s ds = 1/4``).
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


class CertificateError(RuntimeError):
    """No negative trial value found; signals a numerical bug, not a theory gap."""


@dataclass(frozen=True)
class TrialSpec:
    """Trial-function parameters: window radius a, plateau radius b, tail rate tau, amplitude eps.

    ``phi`` and ``varphi`` describe the fixed trial pieces; they are not fields.
    """

    a: float
    b: float
    tau: float
    eps: float
    phi = "1 - (r/a)^2 for r in [0,a], 0 outside; the window term is eps*phi(r)*(1 - z/d)"
    varphi = ("1 on [0,b], linear decay to 0 on [b,b+1], "
              "dilated through s = b + tau*(ln r - ln b) for r >= b")

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > self.a):
            raise ValueError("need plateau radius b > window radius a > 0")
        if not self.tau > 0.0:
            raise ValueError("tail rate tau must be > 0")
        if self.eps < 0.0:
            raise ValueError("window amplitude eps must be >= 0")


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

    ``A = 2*pi`` is universal (the unit ramp); B is the window block of
    ``h(r/a)*(1 - z/d)``; ``C = pi*a^2*chi_1'(0)`` is the boundary term left
    by integrating the cross term by parts.
    """
    level = ground_level(params.F, params.d, BoundaryType.DIRICHLET_DIRICHLET)
    d = params.d
    a2 = spec.a * spec.a
    A = 2.0 * math.pi
    B = 2.0 * math.pi * (d / 3.0
                         + a2 / 6.0 * (1.0 / d + params.F * d * d / 12.0 - level.lam * d / 3.0))
    C = math.pi * a2 * chi_prime(level, params, 0.0)
    return A, B, C


def q_functional(params: WaveguideParams, spec: TrialSpec) -> float:
    """``Q[Phi]`` of the trial function ``spec``, in closed form."""
    A, B, C = coefficients(params, spec)
    return A * spec.tau + B * spec.eps ** 2 - C * spec.eps


def certify(params: WaveguideParams) -> Certificate:
    """Produce a negative-Q certificate for the given configuration.

    The plateau radius is ``b = 2a`` (Q does not depend on it).  Picks the
    optimal window amplitude ``eps = C/(2B)`` (or 1 when B <= 0) and a tail
    rate at which the cutoff cost ``A*tau`` is at most a quarter of the gain
    ``C*eps - B*eps^2``, so Q is at most -3/4 of the gain; the closed-form Q
    is then checked for sign against rounding, and refused if it or a
    coefficient overflows (``a`` past about 3.3e153 at ``F = d = 1``).
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
