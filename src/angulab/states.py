"""State families on the circle, the line, and the sphere.

Three families are supported:

* ``PeriodicState``: psi(phi) = sum_m a_m e^{i m phi} / sqrt(2 pi) on
  phi in [0, 2 pi).  Periodicity psi(2 pi - 0) = psi(0) is automatic.
* ``OscillatorState``: psi(phi) = sum_n b_n sqrt(lam) h_n(lam phi) on the
  whole line, lam = sqrt(J omega / hbar).
* ``SphereState``: psi(theta, phi) = sum_m c_m Y_lm(theta, phi) at a fixed
  orbital number l.

All constructors rescale the supplied coefficients to unit norm, dividing
by the (real) norm only so the global phase of the input survives.
"""

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import specfun
from .specfun import TWO_PI

# Hermite rows a line ket may hold: lam down to 0.027 at index 10, 0.11 at 600.
_LINE_BAND_MAX = 1024


@lru_cache(maxsize=1024)
def line_band(nmax, lam):
    """The Hermite rows a line ket of top index ``nmax`` needs at scale ``lam``
    (finite and > 0).

    sin phi and cos phi mix e^{+-i phi} = D(+-i / (lam sqrt 2)), which
    spreads h_n over rows up to about (sqrt(x) + sqrt(2 n + 1))^2, x =
    1 / (2 lam^2).  The band is the smallest one outside which every h_n,
    n <= nmax, leaves an image mass below eps, and at least nmax + 3 so
    that two ladder steps stay inside.  ValueError, naming lam, past
    ``_LINE_BAND_MAX`` rows; h_0 alone leaves about half its mass beyond
    row x, so x >= _LINE_BAND_MAX is rejected before any work.
    """
    if nmax > specfun._HERMITE_FUNC_MAX:
        raise ValueError(
            f"oscillator index {nmax} exceeds Hermite function limit {specfun._HERMITE_FUNC_MAX}"
        )
    dim, lam2 = nmax + 3, float(lam) * float(lam)
    if lam2 <= 0.5 / _LINE_BAND_MAX:
        dim = _LINE_BAND_MAX + 1
    elif lam2 < math.inf:  # else x = 0: the multiplier is 1
        x = 0.5 / lam2
        size = math.ceil((math.sqrt(x) + math.sqrt(2 * nmax + 1) + 6.0) ** 2)
        g = specfun.displacement_diagonals(x, nmax + 1, size)
        tail = np.cumsum(g[:, ::-1] ** 2, axis=1)[:, ::-1]  # [n, d]: mass in rows >= n + d
        rows = np.arange(nmax + 1, size)
        n = np.arange(nmax + 1)[:, None]
        worst = tail[n, rows - n].max(axis=0)
        dim = max(int(rows[np.argmax(worst < np.finfo(float).eps)]), dim)
    if dim > _LINE_BAND_MAX:
        raise ValueError(
            f"oscillator index {nmax} exceeds line band limit {_LINE_BAND_MAX} at lam={lam:.6g}"
        )
    return dim


@dataclass(frozen=True)
class PeriodicState:
    coefficients: dict  # m -> complex amplitude, sum |a_m|^2 == 1
    truncation: int
    hbar: float = 1.0
    family: str = field(default="periodic", init=False, repr=False)


@dataclass(frozen=True)
class OscillatorState:
    coefficients: dict  # n -> complex amplitude, n >= 0
    truncation: int
    inertia: float = 1.0
    frequency: float = 1.0
    hbar: float = 1.0
    family: str = field(default="oscillator", init=False, repr=False)

    def __post_init__(self):
        for key, val in (("hbar", self.hbar), ("J", self.inertia), ("omega", self.frequency)):
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{key} must be finite and > 0, got {val!r}")
        lam = self.scale
        if not 0.0 < lam < math.inf:
            raise ValueError(f"sqrt(J omega / hbar) must be finite and > 0, got {float(lam)!r}")
        line_band(max(self.coefficients), lam)  # raises past the band cap

    @property
    def scale(self):
        """lam = sqrt(J omega / hbar), the natural length of the pendulum."""
        return np.sqrt(self.inertia * self.frequency / self.hbar)


@dataclass(frozen=True)
class SphereState:
    l: int
    coefficients: dict  # m -> complex amplitude, |m| <= l
    hbar: float = 1.0
    family: str = field(default="sphere", init=False, repr=False)


def mode_index(k):
    """``k`` as an integer mode index; ValueError for a fractional, non-finite,
    boolean or string one, which ``int`` would truncate, accept or parse."""
    if isinstance(k, (bool, str)) or (isinstance(k, float) and not k.is_integer()):
        raise ValueError(f"mode index must be an integer, got {k!r}")
    return int(k)


def _real(name, x):
    """``x`` if it is a real number; ValueError for a boolean or a string,
    which ``float`` and ``complex`` would accept."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a number, got {x!r}")
    return x


def real_parameter(name, x):
    """``x`` as the value of the positive real parameter ``name``; ValueError
    for a boolean or a string, which ``float`` would accept, and for a value
    that is not finite and > 0."""
    if not (math.isfinite(_real(name, x)) and x > 0):
        raise ValueError(f"{name} must be finite and > 0, got {x!r}")
    return float(x)


def coefficient(re, im):
    """re + i im as a state coefficient; ValueError unless both parts are
    real numbers."""
    return complex(_real("coefficient part", re), _real("coefficient part", im))


def _normalized(coeffs):
    vals = {mode_index(k): complex(v) for k, v in coeffs.items() if v != 0}
    if not vals:
        raise ValueError("state coefficients are all zero")
    norm = np.sqrt(sum(abs(v) ** 2 for v in vals.values()))
    if not np.isfinite(norm):
        raise ValueError("state coefficients must be finite")
    return {k: v / norm for k, v in sorted(vals.items())}


def scr_eigenstate(m, truncation=64, hbar=1.0):
    """Sharp circular rotation eigenstate e^{i m phi} / sqrt(2 pi)."""
    if abs(m) > truncation:
        raise ValueError(f"scr_eigenstate: |m|={abs(m)} exceeds truncation {truncation}")
    return PeriodicState({int(m): 1.0 + 0.0j}, truncation=truncation, hbar=hbar)


def periodic_superposition(coeffs, truncation=None, hbar=1.0):
    """Normalized superposition of circle modes; keys are Fourier indices."""
    vals = _normalized(coeffs)
    band = max(abs(k) for k in vals)
    if truncation is None:
        truncation = max(band, 8)
    if band > truncation:
        raise ValueError(f"periodic_superposition: band {band} exceeds truncation {truncation}")
    return PeriodicState(vals, truncation=truncation, hbar=hbar)


def qtp_eigenstate(n, inertia=1.0, frequency=1.0, truncation=64, hbar=1.0):
    """Torsion-pendulum eigenstate; its energy is hbar omega (n + 1/2)."""
    if n < 0:
        raise ValueError("qtp_eigenstate: n must be nonnegative")
    if n > truncation:
        raise ValueError(f"qtp_eigenstate: n={n} exceeds truncation {truncation}")
    return OscillatorState(
        {int(n): 1.0 + 0.0j},
        truncation=truncation,
        inertia=inertia,
        frequency=frequency,
        hbar=hbar,
    )


def oscillator_superposition(coeffs, inertia=1.0, frequency=1.0, truncation=None, hbar=1.0):
    vals = _normalized(coeffs)
    if min(vals) < 0:
        raise ValueError("oscillator_superposition: indices must be nonnegative")
    top = max(vals)
    if truncation is None:
        truncation = max(top, 8)
    if top > truncation:
        raise ValueError(f"oscillator_superposition: index {top} exceeds truncation {truncation}")
    return OscillatorState(
        vals, truncation=truncation, inertia=inertia, frequency=frequency, hbar=hbar
    )


def _check_orbital(l):
    if not 0 <= l <= specfun._THETA_MAX_L:
        raise ValueError(f"sphere states need 0 <= l <= {specfun._THETA_MAX_L}, got l={l}")


def sphere_state(l, coeffs, hbar=1.0):
    """Fixed-l sphere state sum_m c_m Y_lm; degenerate when several m mix."""
    _check_orbital(l)
    vals = _normalized(coeffs)
    bad = [m for m in vals if abs(m) > l]
    if bad:
        raise ValueError(f"sphere_state: coefficient indices {bad} exceed l={l}")
    return SphereState(l=int(l), coefficients=vals, hbar=hbar)


def evaluate(state, point):
    """Pointwise value of the wave function from its coefficient expansion.

    ``point`` is phi for the circle and line families and (theta, phi) for
    the sphere.  Arrays are accepted and evaluated elementwise.
    """
    if isinstance(state, PeriodicState):
        phi = np.asarray(point, dtype=float)
        if np.any(phi < 0.0) or np.any(phi >= TWO_PI):
            raise ValueError("evaluate: circle states live on phi in [0, 2 pi)")
        out = np.zeros(phi.shape, dtype=complex)
        for m, a in state.coefficients.items():
            out = out + np.exp(1j * m * phi) * a
        out = out / np.sqrt(TWO_PI)
        return complex(out) if out.ndim == 0 else out
    if isinstance(state, OscillatorState):
        phi = np.asarray(point, dtype=float)
        lam = state.scale
        nmax = max(state.coefficients)
        table = specfun.hermite_function_table(nmax, lam * np.atleast_1d(phi))
        out = np.zeros(np.atleast_1d(phi).shape, dtype=complex)
        for n, b in state.coefficients.items():
            out = out + b * table[n]
        out = out * np.sqrt(lam)
        return complex(out[0]) if phi.ndim == 0 else out
    if isinstance(state, SphereState):
        theta, phi = point
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if np.any(theta < 0.0) or np.any(theta > np.pi):
            raise ValueError("evaluate: theta must lie in [0, pi]")
        if np.any(phi < 0.0) or np.any(phi >= TWO_PI):
            raise ValueError("evaluate: phi must lie in [0, 2 pi)")
        out = np.zeros(np.broadcast(theta, phi).shape, dtype=complex)
        for m, c in state.coefficients.items():
            out = out + c * specfun.theta_lm(state.l, m, theta) * np.exp(1j * m * phi)
        out = out / np.sqrt(TWO_PI)
        return complex(out) if out.ndim == 0 else out
    raise TypeError(f"evaluate: unsupported state type {type(state)!r}")


def boundary_value(state):
    """psi(2 pi - 0), which equals psi(0) for any PeriodicState."""
    if not isinstance(state, PeriodicState):
        raise TypeError("boundary_value: only circle states have a boundary")
    return complex(sum(state.coefficients.values()) / np.sqrt(TWO_PI))


# -- JSON round trip ---------------------------------------------------------
#
# {"family": "periodic" | "oscillator" | "sphere",
#  "params": {...},
#  "coefficients": [[index, re, im], ...]}


def to_json(state):
    coeffs = [[int(k), float(v.real), float(v.imag)] for k, v in sorted(state.coefficients.items())]
    if isinstance(state, PeriodicState):
        params = {"truncation": state.truncation, "hbar": state.hbar}
    elif isinstance(state, OscillatorState):
        params = {
            "truncation": state.truncation,
            "inertia": state.inertia,
            "frequency": state.frequency,
            "hbar": state.hbar,
        }
    elif isinstance(state, SphereState):
        params = {"l": state.l, "hbar": state.hbar}
    else:
        raise TypeError(f"to_json: unsupported state type {type(state)!r}")
    return {"family": state.family, "params": params, "coefficients": coeffs}


def from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError(f"from_json: expected a JSON object, got {type(doc).__name__}")
    family = doc.get("family")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"from_json: params must be a JSON object, got {type(params).__name__}")
    coeffs = {mode_index(k): coefficient(re, im) for k, re, im in doc.get("coefficients", [])}
    hbar = real_parameter("hbar", params.get("hbar", 1.0))
    truncation = params.get("truncation")
    truncation = None if truncation is None else mode_index(truncation)
    if family == "periodic":
        return periodic_superposition(coeffs, truncation=truncation, hbar=hbar)
    if family == "oscillator":
        return oscillator_superposition(
            coeffs,
            inertia=real_parameter("inertia", params.get("inertia", 1.0)),
            frequency=real_parameter("frequency", params.get("frequency", 1.0)),
            truncation=truncation,
            hbar=hbar,
        )
    if family == "sphere":
        return sphere_state(mode_index(params["l"]), coeffs, hbar=hbar)
    raise ValueError(f"from_json: unknown family {family!r}")


def save(state, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json(state), fh, sort_keys=True, indent=2)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return from_json(json.load(fh))


# -- seeded random states (shared by the test sweeps and the CLI) ------------
#
# The generator contract is numpy's PCG64 via np.random.default_rng(seed);
# draws happen in a fixed order so identical seeds give identical states.
# A quarter of the draws are "peaked" states, one dominant mode plus 1e-2
# noise, so sweeps also visit the near-eigenstate corner of state space.


def _peaked_amplitudes(rng, size):
    """Complex normal amplitudes; one draw in four scales them by 0.01 and
    adds 1 at one drawn position, a peaked state."""
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if rng.uniform() < 0.25:
        spike = int(rng.integers(0, size))
        amps = 0.01 * amps
        amps[spike] += 1.0
    return amps


def random_periodic(rng, band=8, hbar=1.0):
    m = np.arange(-band, band + 1)
    amps = _peaked_amplitudes(rng, m.size)
    return periodic_superposition(dict(zip(m, amps)), truncation=band, hbar=hbar)


def random_oscillator(rng, nmax=10, inertia=1.0, frequency=1.0, hbar=1.0):
    n = np.arange(nmax + 1)
    amps = _peaked_amplitudes(rng, n.size)
    return oscillator_superposition(
        dict(zip(n, amps)), inertia=inertia, frequency=frequency, hbar=hbar
    )


def random_sphere(rng, l, hbar=1.0):
    _check_orbital(l)
    m = np.arange(-l, l + 1)
    amps = _peaked_amplitudes(rng, m.size)
    return sphere_state(l, dict(zip(m, amps)), hbar=hbar)
