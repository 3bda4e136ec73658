"""References for the benchmark's output checks, computed apart from telegraph.

Nothing here imports the package under test.  Every reference takes a
different mathematical route from the program's:

* ``bessel_scaled``: e^{-z} I_n(z) for n in {0, 1} from the integral
  (1/pi) int_0^pi exp(z (cos th - 1)) cos(n th) dth by the trapezoid rule,
  which converges geometrically for this periodic analytic integrand and
  never forms e^z, so it stays finite for any z >= 0.
* ``fourier_field``: the solution of u_tt + k u_t = c^2 u_xx for Gaussian
  data, mode by mode from the damped-oscillator multiplier, by trapezoid
  quadrature in the frequency variable.  The damping is folded into the
  multiplier before it is evaluated, so k*t = 3000 is as stable as k*t = 1.
* ``dalembert``: the k = 0 closed form with erf for the velocity integral.
* ``point_law_density``, ``point_law_atoms`` and ``point_law_masses``: the
  closed-form point-source laws, their atoms and their masses.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 512


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------

def bessel_scaled(z, order: int) -> np.ndarray:
    """e^{-z} I_order(z) for order 0 or 1 and z >= 0 (array in, array out).

    The trapezoid rule with N panels on [0, pi] returns the exact value
    plus I_{2N-n} + I_{2N+n} + ...; with N = 40 + 8 sqrt(z) those images
    are below e^{-40} of the result.  For order 1 and z < 1 the integral
    loses relative accuracy to cancellation, so the ascending series is
    used there instead.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.empty_like(flat)
    n_panels = 40 + int(math.ceil(8.0 * math.sqrt(float(flat.max(initial=0.0)))))
    theta = np.linspace(0.0, math.pi, n_panels + 1)
    weights = np.full(n_panels + 1, 1.0 / n_panels)
    weights[[0, -1]] *= 0.5
    wc = weights * np.cos(order * theta)
    half_versine = 2.0 * np.sin(0.5 * theta) ** 2  # 1 - cos(theta) without cancellation
    for lo in range(0, flat.size, _CHUNK):
        zc = flat[lo:lo + _CHUNK]
        out[lo:lo + _CHUNK] = np.exp(-np.outer(zc, half_versine)) @ wc
    if order == 1:
        small = flat < 1.0
        out[small] = flat[small] * _i1_over_z_series(flat[small]) * np.exp(-flat[small])
    return out.reshape(z.shape)


def _i1_over_z_series(z: np.ndarray) -> np.ndarray:
    """sum_m (z^2/4)^m / (m! (m+1)! 2) for z < 1 (18 terms reach 1e-40)."""
    q = 0.25 * z * z
    term = np.full_like(z, 0.5)
    total = term.copy()
    for m in range(1, 18):
        term = term * q / (m * (m + 1))
        total = total + term
    return total


def i1_over_z_scaled(z) -> np.ndarray:
    """e^{-z} I1(z)/z, equal to 1/2 at z = 0."""
    z = np.asarray(z, dtype=float)
    small = z < 1.0
    out = np.empty_like(z)
    out[small] = _i1_over_z_series(z[small]) * np.exp(-z[small])
    out[~small] = bessel_scaled(z[~small], 1) / z[~small]
    return out


# ---------------------------------------------------------------------------
# Fourier-multiplier solution for Gaussian data
# ---------------------------------------------------------------------------

def _multipliers(xi: np.ndarray, t: float, k: float, c: float, damped: bool):
    """(C, S) = (D cosh(s t), D sinh(s t)/s) with s = sqrt(k^2/4 - c^2 xi^2).

    D is e^{-kt/2} when ``damped`` and 1 otherwise.  On the real branch
    D e^{s t} = e^{(s - k/2) t} with s - k/2 = -c^2 xi^2 / (k/2 + s), so no
    factor larger than the result is ever formed.
    """
    half_k = 0.5 * k
    cxi = c * np.abs(xi)
    real = cxi <= half_k
    C = np.empty_like(xi)
    S = np.empty_like(xi)
    s = np.sqrt((half_k - cxi[real]) * (half_k + cxi[real]))
    if damped:  # s - k/2; the quotient is 0/0 only at xi = 0 with k = 0
        denom = half_k + s
        grow = -(cxi[real] ** 2) / np.where(denom == 0.0, 1.0, denom)
    else:
        grow = s
    x = 2.0 * s * t
    safe = np.where(x == 0.0, 1.0, x)
    phi = np.where(x == 0.0, 1.0, -np.expm1(-x) / safe)  # (1 - e^{-x}) / x
    e_grow = np.exp(grow * t)
    C[real] = 0.5 * e_grow * (1.0 + np.exp(-x))
    S[real] = e_grow * t * phi
    sigma = np.sqrt((cxi[~real] - half_k) * (cxi[~real] + half_k))
    damp = math.exp(-half_k * t) if damped else 1.0
    C[~real] = damp * np.cos(sigma * t)
    S[~real] = damp * t * np.sinc(sigma * t / math.pi)
    return C, S


def fourier_field(x, t: float, k: float, c: float, f=None, g=None,
                  which: str = "u") -> np.ndarray:
    """A field at points x and time t for Gaussian data.

    f and g are (amplitude, centre, width) triples for
    amp * exp(-((x - centre) / width)^2), or None for zero.  ``which``:

    * "u", "ut": displacement and velocity of the damped equation;
    * "kernel", "kernel_dt": the undamped kernel and its time derivative
      (atoms included) convolved with g, i.e. the growth-compensated
      impulse response that ``convolve_measure`` applies to a density.
    """
    x = np.asarray(x, dtype=float)
    terms = [d for d in (f, g) if d is not None]
    if not terms:
        return np.zeros_like(x)
    w_min = min(d[2] for d in terms)
    w_max = max(d[2] for d in terms)
    reach = float(np.max(np.abs(x))) + max(abs(d[1]) for d in terms)
    # trapezoid in xi returns sum_m u(x + 2 pi m / h): keep the images
    # beyond the data's reach; stop where exp(-w^2 xi^2 / 4) < e^{-50}
    h = 2.0 * math.pi / (2.0 * (reach + c * abs(t) + 12.0 * w_max))
    xi_max = math.sqrt(200.0) / w_min
    xi = h * np.arange(int(math.ceil(xi_max / h)) + 1)
    weights = np.full(xi.size, h / math.pi)
    weights[0] *= 0.5
    C, S = _multipliers(xi, t, k, c, damped=which in ("u", "ut"))
    if which == "u":
        mult_f, mult_g = C + 0.5 * k * S, S
    elif which == "ut":
        mult_f, mult_g = -(c * xi) ** 2 * S, C - 0.5 * k * S
    elif which == "kernel":
        mult_f, mult_g = None, S
    elif which == "kernel_dt":
        mult_f, mult_g = None, C
    else:
        raise ValueError(f"unknown field {which!r}")
    flat = x.ravel()
    out = np.zeros_like(flat)
    for data, mult in ((f, mult_f), (g, mult_g)):
        if data is None or mult is None:
            continue
        amp, centre, width = data
        spectrum = weights * mult * (amp * width * math.sqrt(math.pi)
                                     * np.exp(-0.25 * (width * xi) ** 2))
        for lo in range(0, flat.size, _CHUNK):
            out[lo:lo + _CHUNK] += np.cos(np.outer(flat[lo:lo + _CHUNK] - centre, xi)) @ spectrum
    return out.reshape(x.shape)


def fourier_norms(t: float, k: float, c: float, f, g, dx: float):
    """(||u||, ||u_t||, ||D u||) at time t by Parseval, D the centred difference.

    The centred difference (u(x+dx) - u(x-dx)) / (2 dx) has the symbol
    i sin(xi dx) / dx.  Integrates |u^(xi)|^2 / (2 pi) over the real line.
    """
    terms = [d for d in (f, g) if d is not None]
    w_min = min(d[2] for d in terms)
    h = 1.0 / 256.0
    xi = h * np.arange(int(math.ceil(math.sqrt(200.0) / w_min / h)) + 1)
    weights = np.full(xi.size, h / math.pi)
    weights[0] *= 0.5
    C, S = _multipliers(xi, t, k, c, damped=True)

    def spectrum(data):
        if data is None:
            return np.zeros_like(xi), 0.0
        amp, centre, width = data
        return amp * width * math.sqrt(math.pi) * np.exp(-0.25 * (width * xi) ** 2), centre

    F, a = spectrum(f)
    G, b = spectrum(g)
    phase = np.cos(xi * (a - b))

    def norm(mf, mg, symbol=1.0):
        p, q = symbol * mf * F, symbol * mg * G
        return math.sqrt(float(np.sum(weights * (p * p + q * q + 2.0 * p * q * phase))))

    u_f, u_g = C + 0.5 * k * S, S
    return (norm(u_f, u_g),
            norm(-(c * xi) ** 2 * S, C - 0.5 * k * S),
            norm(u_f, u_g, np.sin(xi * dx) / dx))


def gaussian(x, data) -> np.ndarray:
    amp, centre, width = data
    return amp * np.exp(-((np.asarray(x, dtype=float) - centre) / width) ** 2)


def dalembert(x, t: float, c: float, f=None, g=None) -> np.ndarray:
    """k = 0 solution: [f(x+ct) + f(x-ct)]/2 + (1/2c) int_{x-ct}^{x+ct} g."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    ct = c * t
    if f is not None:
        out += 0.5 * (gaussian(x + ct, f) + gaussian(x - ct, f))
    if g is not None:
        amp, centre, width = g
        erf = np.vectorize(math.erf, otypes=[float])
        out += (amp * width * math.sqrt(math.pi) / (4.0 * c)
                * (erf((x + ct - centre) / width) - erf((x - ct - centre) / width)))
    return out


# ---------------------------------------------------------------------------
# point-source laws
# ---------------------------------------------------------------------------

def point_law_density(kind: str, x, t: float, k: float, c: float) -> np.ndarray:
    """Density of the point-source law at points strictly inside the cone.

    With z = (k / 2c) sqrt(c^2 t^2 - x^2) <= kt/2, every Bessel factor is
    applied as e^{z - kt/2} (e^{-z} I_n(z)), which never exceeds 1.
    """
    x = np.asarray(x, dtype=float)
    alpha = k / (4.0 * c)
    ct = c * t
    z = 2.0 * alpha * np.sqrt(np.maximum(ct * ct - x * x, 0.0))
    scale = np.exp(z - 0.5 * k * t)
    i0 = scale * bessel_scaled(z, 0)
    i1_z = scale * i1_over_z_scaled(z)
    if kind == "delta_position":
        return 2.0 * alpha ** 2 * ct * i1_z + 0.5 * k * i0 / (2.0 * c)
    if kind == "delta_velocity":
        return i0 / (2.0 * c)
    if kind == "financial":
        return 2.0 * alpha ** 2 * (x + ct) * i1_z + alpha * i0
    raise ValueError(f"unknown kind {kind!r}")


def point_law_atoms(kind: str, t: float, k: float, c: float):
    """((position, weight), ...) of the law, sorted by position."""
    ct = c * t
    damp = math.exp(-0.5 * k * t)
    return {"delta_position": ((-ct, 0.5 * damp), (ct, 0.5 * damp)),
            "delta_velocity": (),
            "financial": ((ct, damp),)}[kind]


def point_law_masses(kind: str, t: float, k: float):
    """(atom mass, density mass, total mass) in closed form."""
    damp = math.exp(-0.5 * k * t)
    if kind == "delta_velocity":
        total = t if k == 0.0 else -math.expm1(-k * t) / k
        return 0.0, total, total
    return damp, -math.expm1(-0.5 * k * t), 1.0


def kernel_values(x, t: float, k: float, c: float):
    """(kernel, regular part of its time derivative) off the cone edge.

    Undamped (growth-compensated) values: sgn(t)/(2c) I0(z) and
    2 alpha^2 c |t| I1(z)/z inside the cone, 0 outside.
    """
    x = np.asarray(x, dtype=float)
    alpha = k / (4.0 * c)
    ct = c * abs(t)
    inside = np.abs(x) < ct
    z = 2.0 * alpha * np.sqrt(np.maximum(ct * ct - x * x, 0.0))
    grow = np.exp(np.where(inside, z, 0.0))
    # e^z times the scaled function first: the amplitude alone may not fit after e^z
    psi = np.where(inside, math.copysign(1.0, t) / (2.0 * c) * (grow * bessel_scaled(z, 0)), 0.0)
    reg = np.where(inside, 2.0 * alpha ** 2 * ct * (grow * i1_over_z_scaled(z)), 0.0)
    return psi, reg


def rel_error(approx, reference) -> float:
    """max |approx - reference| / max |reference| (normwise relative error)."""
    approx = np.asarray(approx, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if approx.shape != reference.shape or not np.all(np.isfinite(approx)):
        return math.inf
    scale = float(np.max(np.abs(reference)))
    err = float(np.max(np.abs(approx - reference)))
    return err / scale if scale > 0.0 else err
