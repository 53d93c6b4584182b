"""Independent high-precision oracles for pinning expected values.

Everything here is computed with mpmath multiprecision arithmetic, mostly
summed from defining power series; the production code paths (Chebyshev
tables, recurrences) share nothing with these routines.
``airy_cheb_table`` also generates the shipped table ``_airy_cheb.npy``.
``certificate_q`` integrates the defining integrals of the certificate's Q
with mpmath's Airy functions and quadrature.  Two parts are float64: the
pieces of the certificate's trial function (``bump``, the window profile
h(r/a) = 1 - (r/a)^2, and the ``cutoff_*`` ramp), which ``certify`` never
evaluates, and ``quadratic_form_matrix``, which assembles the 2-D FD matrix
face by face from its quadratic form, independently of the Kronecker-sum
assembly in ``fd2d``.
"""

import functools

import mpmath as mp
import numpy as np


def airy_series(x, dps=60):
    """(Ai, Ai', Bi, Bi') at x from the Maclaurin series of w'' = x w.

    Initial constants from Gamma values; valid wherever enough precision is
    supplied (cancellation costs ~0.87*|x|^1.5 digits on the positive axis).
    """
    with mp.workdps(dps):
        x = mp.mpf(x)
        ai0 = mp.mpf(3) ** (mp.mpf(-2) / 3) / mp.gamma(mp.mpf(2) / 3)
        aip0 = -(mp.mpf(3) ** (mp.mpf(-1) / 3) / mp.gamma(mp.mpf(1) / 3))
        x3 = x ** 3
        f, g = mp.mpf(1), x
        fp, gp = mp.mpf(0), mp.mpf(1)
        t, u, v = mp.mpf(1), x, mp.mpf(1)
        s = x * x / 2
        for k in range(1, 2000):
            t = t * x3 / ((3 * k) * (3 * k - 1))
            u = u * x3 / ((3 * k + 1) * (3 * k))
            if k >= 2:
                s = s * x3 / ((3 * k - 1) * (3 * k - 3))
            v = v * x3 / ((3 * k) * (3 * k - 2))
            f += t
            g += u
            fp += s
            gp += v
            if max(abs(t), abs(u), abs(v)) < mp.mpf(10) ** (-dps - 10) * (abs(f) + abs(g) + 1):
                break
        sqrt3 = mp.sqrt(3)
        ai = ai0 * f + aip0 * g
        aip = ai0 * fp + aip0 * gp
        bi = sqrt3 * (ai0 * f - aip0 * g)
        bip = sqrt3 * (ai0 * fp - aip0 * gp)
        return ai, aip, bi, bip


def bessel_series(m, x, dps=50):
    """J_m(x) from the ascending series in mpmath precision."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        half = x / 2
        t = half ** m / mp.factorial(m)
        total = t
        q = -half * half
        for k in range(1, 5000):
            t = t * q / (k * (k + m))
            total += t
            if abs(t) < mp.mpf(10) ** (-dps - 10) * (abs(total) + 1):
                break
        return total


def bisect(f, lo, hi, dps=50, steps=300):
    """Plain bisection to ~10^-(dps-5); f must change sign on [lo, hi]."""
    with mp.workdps(dps):
        lo = mp.mpf(lo)
        hi = mp.mpf(hi)
        flo = f(lo)
        assert flo * f(hi) < 0, "oracle bisection needs a sign change"
        for _ in range(steps):
            mid = (lo + hi) / 2
            fm = f(mid)
            if fm == 0:
                return mid
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo < mp.mpf(10) ** (-(dps - 5)):
                break
        return (lo + hi) / 2


def first_airy_zero(dps=50):
    """First zero magnitude of Ai via bisection on the series oracle."""
    return bisect(lambda t: airy_series(-t, dps=dps)[0], 2.0, 2.5, dps=dps)


def bessel_zero_oracle(m, k_bracket, dps=50):
    """A Bessel zero via bisection on the series oracle within a given bracket."""
    lo, hi = k_bracket
    return bisect(lambda x: bessel_series(m, x, dps=dps), lo, hi, dps=dps)


def airy_cheb_table(cut=8, scaled_from=2, degree=16, dps=40):
    """Chebyshev coefficients of Ai, Ai', Bi, Bi' on the real line, in 2 cut + 2 pieces.

    Entry ``[p, k, f]`` is the coefficient of ``T_k(t)`` for function ``f``
    on piece ``p``, with the constant term halved, so the piece's value is
    ``sum_k c_k T_k(t)``.  Piece ``p < 2 cut`` is [p - cut, p - cut + 1] with
    ``t = 2 (x - mid)``.  Pieces from ``scaled_from`` up hold Ai e^xi,
    Ai' e^xi, Bi e^-xi and Bi' e^-xi (xi = (2/3) x^(3/2)); the pieces below
    hold the raw values.  Pieces ``2 cut`` (x > cut) and ``2 cut + 1``
    (x < -cut) take ``t = 2 v - 1`` with ``v = (cut/|x|)^(3/2)`` and hold
    functions that tend to 1, or to 0 for the phases, as |x| grows:

    * x > cut: 2 sqrt(pi) x^(1/4) e^xi Ai, -2 sqrt(pi) x^(-1/4) e^xi Ai',
      sqrt(pi) x^(1/4) e^-xi Bi and sqrt(pi) x^(-1/4) e^-xi Bi';
    * x = -s < -cut, in the modulus-phase form of DLMF 9.8
      (Ai = M cos theta, Bi = M sin theta, Ai' = N cos phi, Bi' = N sin phi):
      sqrt(pi) s^(1/4) M, sqrt(pi) s^(-1/4) N, theta - (pi/4 - zeta) and
      phi - (3 pi/4 - zeta), zeta = (2/3) s^(3/2), the phases in (-pi, pi].

    Each coefficient is the cosine sum over the ``degree + 1`` first-kind
    Chebyshev nodes, with mpmath's ``airyai``/``airybi`` at ``dps`` digits.
    Regenerate the shipped table from ``tests/`` with
    ``python -c "import numpy, oracles; numpy.save('../src/starklayer/_airy_cheb.npy', oracles.airy_cheb_table())"``.
    """
    n = degree + 1
    table = np.empty((2 * cut + 2, n, 4))
    with mp.workdps(dps):
        theta = [mp.pi * (i + mp.mpf(0.5)) / n for i in range(n)]
        root_pi = mp.sqrt(mp.pi)

        def far(t):
            return cut * ((1 + t) / 2) ** (mp.mpf(-2) / 3)

        def airy4(x):
            return [mp.airyai(x), mp.airyai(x, derivative=1),
                    mp.airybi(x), mp.airybi(x, derivative=1)]

        def unit_piece(lo):
            def values(t):
                x = lo + (1 + t) / 2
                f = airy4(x)
                if lo >= scaled_from:
                    e = mp.exp(2 * x ** mp.mpf(1.5) / 3)
                    f = [f[0] * e, f[1] * e, f[2] / e, f[3] / e]
                return f
            return values

        def right(t):
            x = far(t)
            ai, aip, bi, bip = airy4(x)
            x4, e = mp.root(x, 4), mp.exp(2 * x ** mp.mpf(1.5) / 3)
            return [2 * root_pi * x4 * e * ai, -2 * root_pi / x4 * e * aip,
                    root_pi * x4 / e * bi, root_pi / x4 / e * bip]

        def left(t):
            s = far(t)
            ai, aip, bi, bip = airy4(-s)
            s4, zeta = mp.root(s, 4), 2 * s ** mp.mpf(1.5) / 3

            def phase(y, x, lead):
                c = mp.atan2(y, x) - (lead - zeta)
                return c - 2 * mp.pi * mp.ceil((c - mp.pi) / (2 * mp.pi))
            return [root_pi * s4 * mp.hypot(ai, bi), root_pi / s4 * mp.hypot(aip, bip),
                    phase(bi, ai, mp.pi / 4), phase(bip, aip, 3 * mp.pi / 4)]

        pieces = [unit_piece(p - cut) for p in range(2 * cut)] + [right, left]
        for p, values in enumerate(pieces):
            rows = [values(mp.cos(th)) for th in theta]
            for k in range(n):
                for j in range(4):
                    c = 2 * mp.fsum(row[j] * mp.cos(k * th) for row, th in zip(rows, theta)) / n
                    table[p, k, j] = c / 2 if k == 0 else c
    return table


# Float64 pieces of the certificate's trial function, for tests that integrate
# them with ``specfun.integrate``: the window profile h(r/a) of radius a and the
# cutoff, 1 on [0, b] with a linear decay on [b, b + 1], dilated beyond b
# through s = b + tau*(ln r - ln b).  Each maps an array (or a scalar, as a
# 0-d array) to an array of its shape.

def bump(r, a):
    """h(r/a) = 1 - (r/a)^2 on [0, a], 0 outside: peak 1 at r = 0."""
    r = np.asarray(r, dtype=np.float64)
    return np.where((r >= 0.0) & (r <= a), 1.0 - (r / a) ** 2, 0.0)


def bump_prime(r, a):
    r = np.asarray(r, dtype=np.float64)
    return np.where((r >= 0.0) & (r < a), -2.0 * r / (a * a), 0.0)


def cutoff_profile(s, b):
    return np.clip(b + 1.0 - np.asarray(s, dtype=np.float64), 0.0, 1.0)


def cutoff_profile_prime(s, b):
    t = np.asarray(s, dtype=np.float64) - b
    return np.where((t > 0.0) & (t < 1.0), -1.0, 0.0)


def _dilated(r, b, tau):
    """(tail mask, r clamped to >= b on the plateau, profile argument s)."""
    r = np.asarray(r, dtype=np.float64)
    tail = r > b
    r = np.where(tail, r, b)
    return tail, r, b + tau * (np.log(r) - np.log(b))


def cutoff_dilated(r, b, tau):
    tail, _, s = _dilated(r, b, tau)
    return np.where(tail, cutoff_profile(s, b), 1.0)


def cutoff_dilated_prime(r, b, tau):
    tail, r, s = _dilated(r, b, tau)
    return np.where(tail, cutoff_profile_prime(s, b) * tau / r, 0.0)


def ground_state(F, d, neumann, dps=30):
    """(lam, chi, chi') of the ground state on [0, d] in the field F, Dirichlet at z = d.

    The wall at z = 0 is Dirichlet, or Neumann if ``neumann``.  For F > 0,
    ``chi`` is ``Ai(zeta) Bi(zeta_d) - Bi(zeta) Ai(zeta_d)``, with
    ``zeta = F^(1/3) (z - lam/F)`` and the wall pair (Ai, Bi)(zeta_d) scaled
    to a unit vector.  It vanishes at z = d for every lam; lam is the root of
    its value (Dirichlet) or slope (Neumann) at z = 0, bracketed by the lower
    bounds max(k^2, F^(2/3)|t_1|) of the ground level and
    max(k_2^2, F^(2/3)|t_2|) of the second, with ``k = pi/d``, ``k_2 = 2 pi/d``
    and ``t`` the zeros of Ai (Dirichlet), or ``k = pi/(2d)``, ``k_2 = 3 pi/(2d)``
    and the zeros of Ai' (Neumann).  ``chi`` is normalized by quadrature split
    at the turning point min(lam/F, d).
    """
    with mp.workdps(dps):
        F, d = mp.mpf(F), mp.mpf(d)
        derivative = 1 if neumann else 0
        k = mp.pi / (2 * d) if neumann else mp.pi / d
        if F == 0:
            amp = mp.sqrt(2 / d)
            return (k * k, lambda z: amp * mp.sin(k * (d - z)),
                    lambda z: -amp * k * mp.cos(k * (d - z)))
        w = mp.cbrt(F)

        def shape(lam):
            zeta_d = w * (d - lam / F)
            ai_d, bi_d = mp.airyai(zeta_d), mp.airybi(zeta_d)
            scale = mp.hypot(ai_d, bi_d)  # never 0: Ai and Bi share no zero
            ai_d, bi_d = ai_d / scale, bi_d / scale

            @functools.cache  # the z-integrals of one state share their nodes
            def f(z, derivative=0):
                zeta = w * (z - lam / F)
                return (mp.airyai(zeta, derivative) * bi_d
                        - mp.airybi(zeta, derivative) * ai_d) * w ** derivative
            return f

        def wall(lam):
            return shape(lam)(0, derivative)

        second = (3 if neumann else 2) * k
        # The bounds are sharp up to exp(-(4/3) zeta_d^(3/2)) at strong field,
        # so both are pulled in by 1e-6 to give the root a sign change.
        lo = max(k * k, w * w * -mp.airyaizero(1, derivative)) * (1 - mp.mpf(10) ** -6)
        hi = max(second ** 2, w * w * -mp.airyaizero(2, derivative)) * (1 - mp.mpf(10) ** -6)
        assert wall(lo) * wall(hi) < 0, "ground level not bracketed"
        lam = mp.findroot(wall, (lo, hi), solver="anderson")
        assert lo <= lam < hi
        f = shape(lam)
        norm = mp.sqrt(mp.quad(lambda z: f(z) ** 2, [0, min(lam / F, d), d]))
        return lam, lambda z: f(z) / norm, lambda z: f(z, 1) / norm


def dd_ground_state(F, d, dps=30):
    """:func:`ground_state` with Dirichlet walls at both ends."""
    return ground_state(F, d, False, dps)


def nd_ground_state(F, d, dps=30):
    """:func:`ground_state` with a Neumann wall at z = 0."""
    return ground_state(F, d, True, dps)


def weak_field_level(F, d, neumann, n, dps=40):
    """The n-th transverse level on [0, d] at a weak field F > 0, from the Airy determinant.

    The determinant is the value (Dirichlet, ``neumann`` false) or the slope
    (Neumann) at z = 0 of ``Ai(zeta) Bi(zeta_d) - Bi(zeta) Ai(zeta_d)``,
    ``zeta = F^(1/3) (z - lam/F)``, which vanishes at z = d.  Its root is
    bracketed by the field-free level ``k^2`` (``k = n pi/d``, or
    ``(n - 1/2) pi/d`` for Neumann) shifted by ``F d/4`` and ``3 F d/4``:
    to first order the shift is ``F <z>``, with ``<z>`` between ``0.29 d`` and
    ``d/2``, and the next order is smaller by ``F d^3/k`` or more.
    """
    with mp.workdps(dps):
        F, d = mp.mpf(F), mp.mpf(d)
        w = mp.cbrt(F)
        k = (n - mp.mpf(1) / 2 if neumann else n) * mp.pi / d
        derivative = 1 if neumann else 0

        def det(lam):
            zeta_0, zeta_d = -lam / w ** 2, w * d - lam / w ** 2
            return (mp.airyai(zeta_0, derivative) * mp.airybi(zeta_d)
                    - mp.airybi(zeta_0, derivative) * mp.airyai(zeta_d))

        lo, hi = k * k + F * d / 4, k * k + 3 * F * d / 4
        assert det(lo) * det(hi) < 0, "weak-field level not bracketed"
        lam = mp.findroot(det, (lo, hi), solver="anderson")
        assert lo <= lam <= hi
        return lam


def _airy_phase(x, derivative):
    """arg(Ai + i Bi) (or arg(Ai' + i Bi')) at x, continuous in x: pi/2 at +inf.

    The branch is the one nearest pi/4 - (2/3)|x|^(3/2) (3 pi/4 - ... for the
    derivative), the leading term of DLMF 9.8.20, which is within 0.3 of the
    phase on the whole line.
    """
    a = mp.atan2(mp.airybi(x, derivative), mp.airyai(x, derivative))
    lead = (3 if derivative else 1) * mp.pi / 4 - 2 * max(-x, 0) ** mp.mpf(1.5) / 3
    return a + 2 * mp.pi * mp.nint((lead - a) / (2 * mp.pi))


def transverse_level(F, d, neumann, n, dps=40):
    """The n-th transverse level on [0, d] at a field F > 0, as the root of its phase equation.

    With ``theta = arg(Ai + i Bi)`` and ``phi = arg(Ai' + i Bi')``, the
    solution ``Ai(zeta) Bi(zeta_d) - Bi(zeta) Ai(zeta_d)`` is
    ``M_d M sin(theta_d - theta)``, so level n is where
    ``theta(zeta_d) - theta(zeta_0)`` reaches ``n pi`` (Dirichlet) or
    ``theta(zeta_d) - phi(zeta_0)`` reaches ``(n - 1) pi`` (Neumann), which
    the phase crosses once.  The root lies between the field-free ``k^2`` and
    the min-max bound ``(k d/L)^2 + F L``, ``L = min(d, (2 (k d)^2/F)^(1/3))``.
    """
    with mp.workdps(dps):
        F, d = mp.mpf(F), mp.mpf(d)
        w = mp.cbrt(F)
        k = (n - mp.mpf(1) / 2 if neumann else n) * mp.pi / d
        target = (n - 1 if neumann else n) * mp.pi

        def miss(lam):
            zeta_0 = -lam / w ** 2
            return _airy_phase(w * d + zeta_0, 0) - _airy_phase(zeta_0, int(neumann)) - target

        length = min(d, mp.cbrt(2 * (k * d) ** 2 / F))
        lo, hi = k * k, (k * d / length) ** 2 + F * length
        assert miss(lo) < 0 < miss(hi), "level not bracketed"
        lam = mp.findroot(miss, (lo, hi), solver="anderson")
        assert lo <= lam <= hi
        return lam


def certificate_q(F, d, a, b, tau, eps, dps=20):
    """Q[Phi] of the admissible trial function from its defining integrals.

    ``Phi = phi_tau(r) chi_1(z) + eps h(r/a) (1 - z/d)``, with
    ``h(s) = 1 - s^2`` on [0, 1] and the cutoff ``phi_tau`` a linear ramp from
    1 at ``r = b`` to 0 at ``s = b + 1``, dilated through ``s = b + tau ln(r/b)``, and
    ``Q = 2 pi int int (|d_r Phi|^2 + |d_z Phi|^2 + (F z - lam) Phi^2) r dr dz``
    with lam the Dirichlet-Dirichlet ground level.  Every product of an r- and
    a z-integral is integrated in mpmath, z split at the turning point, with
    no integration by parts.  One term is set to zero instead: the cutoff's
    ``int phi_tau^2 r dr`` (of order e^(2/tau)) multiplies
    ``int (chi_1'^2 + (F z - lam) chi_1^2) dz``, which is zero because chi_1
    is the eigenfunction; that z-integral is checked to vanish to ``dps``
    digits.  The cutoff tail is integrated in ``u = ln r``.
    """
    with mp.workdps(dps):
        F, d, a, b, tau, eps = (mp.mpf(x) for x in (F, d, a, b, tau, eps))
        lam, chi, dchi = dd_ground_state(F, d, dps)
        zs = [0, min(lam / F, d), d] if F > 0 else [0, d]

        def zint(f):
            return mp.quad(f, zs)

        def psi(z):
            return 1 - z / d

        dpsi = -1 / d

        def profile(s):
            return min(max(b + 1 - s, 0), 1)

        def profile_prime(s):
            return mp.mpf(-1) if b < s < b + 1 else mp.mpf(0)

        def cutoff(r):
            return profile(b + tau * mp.log(r / b)) if r > b else mp.mpf(1)

        def cutoff_prime(r):
            return profile_prime(b + tau * mp.log(r / b)) * tau / r if r > b else mp.mpf(0)

        def bump(r):
            """(h(r/a), its r-derivative)."""
            return (1 - (r / a) ** 2, -2 * r / a ** 2) if r < a else (mp.mpf(0), mp.mpf(0))

        def rint(f):
            return mp.quad(lambda r: f(r) * r, [0, a / 2, a])

        zform = zint(lambda z: dchi(z) ** 2 + (F * z - lam) * chi(z) ** 2)
        assert abs(zform) <= mp.mpf(10) ** (5 - dps) * (1 + abs(lam)), zform
        cutoff_grad = mp.quad(lambda u: cutoff_prime(mp.exp(u)) ** 2 * mp.exp(2 * u),
                              [mp.log(b), mp.log(b) + 1 / tau])
        block_cutoff = cutoff_grad * zint(lambda z: chi(z) ** 2)

        def xi(r):
            return cutoff(r) * bump(r)[0]

        def xi_prime(r):
            h, dh = bump(r)
            return cutoff_prime(r) * h + cutoff(r) * dh

        cross = (rint(lambda r: cutoff_prime(r) * xi_prime(r)) * zint(lambda z: chi(z) * psi(z))
                 + rint(lambda r: cutoff(r) * xi(r))
                 * zint(lambda z: dchi(z) * dpsi + (F * z - lam) * chi(z) * psi(z)))
        block_bump = (rint(lambda r: xi_prime(r) ** 2) * zint(lambda z: psi(z) ** 2)
                      + rint(lambda r: xi(r) ** 2)
                      * zint(lambda z: dpsi ** 2 + (F * z - lam) * psi(z) ** 2))
        return 2 * mp.pi * (block_cutoff + 2 * eps * cross + eps ** 2 * block_bump)


def quadratic_form_matrix(params, grid, bc):
    """The scaled 2-D FD matrix of ``fd2d.assemble``, summed face by face (CSR).

    Each face adds the energy term ``c (u_p - u_q)^2`` in the node weights
    ``w = r_i h_r h_z`` (half weight on the Neumann bottom row); eliminated
    endpoints (the top plate, and for the window kind the bottom outside the
    window) read as zero.  The similarity by ``sqrt(w)`` makes it symmetric.
    """
    import scipy.sparse
    nr, nz = grid.nr, grid.nz
    h_r, h_z = grid.h_r, grid.h_z
    r = grid.r_nodes
    z = grid.z_nodes
    window = bc.kind.value == "truncated-full"

    active = np.ones((nr, nz + 1), dtype=bool)
    active[:, nz] = False                       # top plate: Dirichlet
    if window:
        active[r > params.a, 0] = False         # bottom outside the window: Dirichlet
    index = np.full((nr, nz + 1), -1, dtype=np.int64)
    index[active] = np.arange(int(active.sum()))
    n = int(active.sum())

    wz = np.ones(nz + 1)
    wz[0] = 0.5                                 # trapezoid mass on the Neumann row
    sqrt_w = np.sqrt(r[:, None] * h_r * h_z * wz[None, :])
    rows, cols, vals = [], [], []

    def add_face(ip, jp, iq, jq, c):
        p_act, q_act = active[ip, jp], active[iq, jq]
        both = p_act & q_act
        p, q = index[ip, jp], index[iq, jq]
        wp, wq = sqrt_w[ip, jp], sqrt_w[iq, jq]
        rows.extend([p[p_act], q[q_act], p[both], q[both]])
        cols.extend([p[p_act], q[q_act], q[both], p[both]])
        off = (-c / (wp * wq))[both]
        vals.extend([(c / wp ** 2)[p_act], (c / wq ** 2)[q_act], off, off])

    # radial faces between cells i and i+1 (face radius (i+1)h_r)
    ii, jj = np.meshgrid(np.arange(nr - 1), np.arange(nz + 1), indexing="ij")
    add_face(ii, jj, ii + 1, jj, (ii + 1.0) * h_z * wz[jj])
    # vertical faces between j and j+1
    ii, jj = np.meshgrid(np.arange(nr), np.arange(nz), indexing="ij")
    add_face(ii, jj, ii, jj + 1, r[ii] * h_r / h_z)
    # Dirichlet side wall at r_max: value 0 at the wall face, half-cell gradient
    jj = np.arange(nz + 1)
    sel = active[nr - 1, jj] & (bc.kind.value != "inner-neumann")
    rows.append(index[nr - 1, jj][sel])
    cols.append(index[nr - 1, jj][sel])
    vals.append((2.0 * grid.r_max * h_z * wz / h_r / sqrt_w[nr - 1] ** 2)[sel])
    # potential + angular barrier (diagonal in the similarity scaling)
    ii, jj = np.meshgrid(np.arange(nr), np.arange(nz + 1), indexing="ij")
    sel = active[ii, jj]
    rows.append(index[ii, jj][sel])
    cols.append(index[ii, jj][sel])
    vals.append((params.F * z[jj] + bc.m ** 2 / r[ii] ** 2)[sel])

    coo = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return coo.tocsr()
