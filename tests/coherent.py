"""Reference states for the tests: the product coherent spin state, the
two plain-array constructors the tests build states with, and the
expectation value the tests read states with."""

import math

import numpy as np

from lmglab.spinspace import SpinSector, _check_state


def unit(x) -> np.ndarray:
    """x as complex128 amplitudes scaled to unit norm."""
    amps = np.asarray(x, dtype=np.complex128)
    return amps / np.linalg.norm(amps)


def basis(dim: int, i: int) -> np.ndarray:
    """The Sz basis state |i> of a dim-row sector, as complex128 amplitudes."""
    amps = np.zeros(dim, dtype=np.complex128)
    amps[i] = 1.0
    return amps


def expectation(op, psi) -> complex:
    """<psi|op|psi> as a complex scalar, for a state that lmglab's own
    functions would accept."""
    amps = _check_state(psi, op.dim)
    return complex(np.vdot(amps, op.apply(amps)))


def coherent_state(sector: SpinSector, theta: float, phi: float = 0.0) -> np.ndarray:
    """Dicke-sector amplitudes of the coherent state with Bloch angles
    (theta, phi), <S> = (N/2)(sin t cos p, sin t sin p, cos t).

    c_m = sqrt(C(N, m)) cos(theta/2)^(N-m) sin(theta/2)^m e^{i phi (m - N/2)},
    evaluated in log space so N up to a few thousand stays finite.
    """
    n = sector.N
    ct = math.cos(theta / 2.0)
    st = math.sin(theta / 2.0)
    if st == 0.0:
        return basis(sector.dim, 0)
    m = np.arange(n + 1)
    ln_binom = math.lgamma(n + 1) - np.array(
        [math.lgamma(k + 1) + math.lgamma(n - k + 1) for k in m]
    )
    log_mag = 0.5 * ln_binom + (n - m) * math.log(abs(ct)) + m * math.log(abs(st))
    signs = np.sign(ct) ** (n - m) * np.sign(st) ** m
    amps = signs * np.exp(log_mag) * np.exp(1j * phi * (m - n / 2.0))
    return unit(amps)
