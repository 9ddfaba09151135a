"""Test-side noise references, independent of `nia_sim.model`'s chirp-z sum.

`exact_noise` is the noise on a uniform grid with every phase reduced
exactly in turns: the turn rates come from fractions with a 50-digit 2*pi,
each term's multiplier j*k is an integer, each term's phase in turns (the
realization's phase plus both reduced rates) is scaled by 2*pi in long
double, and the sum runs in long double.
`psd_estimate` is the periodogram diagnostic of the synthesized noise.
"""
from fractions import Fraction

import numpy as np

from nia_sim.model import NoiseSpec, noise_values, realize_noise

TWO_PI = Fraction("6.2831853071795864769252867665590057683943387987502")
_LD_TWO_PI = np.longdouble("6.2831853071795864769252867665590057683943387987502")


def _frac_turns(rate, m):
    """rate * m modulo 1 in long double, for a fraction rate and int64 m >= 0.

    rate = hi + lo with hi * m exact in the long double mantissa.
    """
    s = np.finfo(np.longdouble).nmant - int(m.max()).bit_length()
    hi = Fraction(round(rate * 2 ** s), 2 ** s)
    x = _long(hi) * m.astype(np.longdouble)
    x -= np.round(x)
    x += _long(rate - hi) * m.astype(np.longdouble)
    return x - np.round(x)


def _long(f):
    """A fraction as a long double, through its two leading doubles."""
    head = float(f)
    return np.longdouble(head) + np.longdouble(float(f - Fraction(head)))


def exact_noise(r, t0: float, h: float, ks) -> np.ndarray:
    """c(t0 + k h) in rad/s for each sample index k of `ks`, with exactly reduced phases."""
    spec = r.spec
    w0 = Fraction(spec.omega0)
    rate = w0 * Fraction(h) / TWO_PI % 1
    rate0 = w0 * Fraction(t0) / TWO_PI % 1
    j = np.arange(1, spec.n_components + 1, dtype=np.int64)
    base = _frac_turns(rate0, j) + r.phases.astype(np.longdouble)  # turns
    out = np.array([np.sin((base + _frac_turns(rate, j * k)) * _LD_TWO_PI).sum()
                    for k in np.asarray(ks, dtype=np.int64)], dtype=float)
    return spec.amplitude * out


def psd_estimate(spec: NoiseSpec, n_realizations: int, duration: float, dt: float):
    """Ensemble-averaged one-sided periodogram of sampled noise paths.

    Returns (angular frequencies rad/s, power density).  dt must resolve the
    top frequency N omega0 (dt < pi / (N omega0)) or the estimate would alias.
    """
    if n_realizations < 1:
        raise ValueError("need n_realizations >= 1")
    if not dt < np.pi / (spec.n_components * spec.omega0):
        raise ValueError("dt too coarse: aliasing above the cutoff frequency")
    n = int(round(duration / dt))
    if n < 8:
        raise ValueError("duration too short for a periodogram")
    acc = np.zeros(n // 2 + 1)
    for m in range(n_realizations):
        c = noise_values(realize_noise(spec, m), 0.0, dt, n)
        spectrum = np.fft.rfft(c)
        psd = (dt / n) * np.abs(spectrum) ** 2
        psd[1:-1] *= 2.0  # fold negative frequencies (one-sided)
        acc += psd
    acc /= n_realizations
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, dt)
    return omega, acc
