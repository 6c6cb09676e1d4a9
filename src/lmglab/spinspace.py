"""Dicke-sector basis, collective spin operators, and state-vector algebra.

Everything lives in the maximal-spin sector S = N/2 of N spin-1/2 sites,
which has dimension N + 1.  Basis indices follow the descending-magnetization
convention: index m = 0 is the M = +S state, index m = N is M = -S.  All
other modules inherit this ordering.

Magnetizations are kept as doubled integers (2M) internally so that
half-integer values for odd N stay exact and parity logic never touches
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SZ_BASIS = "sz"
ENERGY_BASIS = "energy"

_BASES = (SZ_BASIS, ENERGY_BASIS)
_NORM_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpinSector:
    """The S = N/2 collective-spin sector of N spin-1/2 sites.

    Attributes
    ----------
    N : int
        Number of spins.
    dim : int
        Sector dimension, always N + 1.
    two_m : ndarray of int
        2*M for each basis index, descending (two_m[0] = N, two_m[N] = -N).
    """

    N: int
    dim: int
    two_m: np.ndarray

    @property
    def S(self) -> float:
        return self.N / 2.0

    @property
    def m_values(self) -> np.ndarray:
        """Magnetizations M(m) = S - m, descending."""
        return self.two_m / 2.0


def build_sector(N: int) -> SpinSector:
    """Build the maximal-spin sector for N spins.

    Raises ValueError unless N is a positive integer.
    """
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
        raise ValueError(f"spin count must be an integer, got {N!r}")
    if N < 1:
        raise ValueError(f"spin count must be >= 1, got {N}")
    N = int(N)
    two_m = np.arange(N, -N - 1, -2, dtype=np.int64)
    return SpinSector(N=N, dim=N + 1, two_m=_readonly(two_m))


def _band_matvec(dim, bands, vec):
    """y = A v for a banded A given as {offset: diagonal}, offset = j - i."""
    out = np.zeros(vec.shape, dtype=np.complex128)
    for off, diag in bands.items():
        if off >= 0:
            n = dim - off
            out[:n] += diag.reshape((n,) + (1,) * (vec.ndim - 1)) * vec[off:]
        else:
            n = dim + off
            out[-off:] += diag.reshape((n,) + (1,) * (vec.ndim - 1)) * vec[:n]
    return out


class BandedHermitianOperator:
    """Complex Hermitian banded matrix (bandwidth <= 2 in this package).

    ``diags`` holds the diagonal and superdiagonals as given; ``bands`` is
    the full {offset: diagonal} mapping, offset = j - i, whose subdiagonals
    are their conjugates by construction, so Hermiticity holds exactly as
    stored.
    """

    def __init__(self, dim: int, diags: dict[int, np.ndarray]):
        self.dim = int(dim)
        ups = {}
        for off, diag in diags.items():
            off = int(off)
            if off < 0:
                raise ValueError("store superdiagonals only (offset >= 0)")
            diag = np.asarray(diag, dtype=np.complex128)
            if diag.shape != (dim - off,):
                raise ValueError(f"band at offset {off} has wrong length")
            ups[off] = _readonly(diag)
        if 0 in ups and np.max(np.abs(ups[0].imag), initial=0.0) != 0.0:
            raise ValueError("diagonal of a Hermitian operator must be real")
        self.diags = ups
        self.bands = dict(ups)
        for off, diag in ups.items():
            if off > 0:
                self.bands[-off] = _readonly(diag.conj())

    @property
    def bandwidth(self) -> int:
        return max((o for o in self.diags), default=0)

    def band(self, off: int) -> np.ndarray:
        """Superdiagonal at the given offset, zeros if absent."""
        if off in self.diags:
            return self.diags[off]
        return np.zeros(self.dim - abs(off), dtype=np.complex128)

    def entry(self, i: int, j: int) -> complex:
        if j >= i:
            diag = self.diags.get(j - i)
            return complex(diag[i]) if diag is not None else 0j
        diag = self.diags.get(i - j)
        return complex(np.conj(diag[j])) if diag is not None else 0j

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape[0] != self.dim:
            raise ValueError("dimension mismatch")
        return _band_matvec(self.dim, self.bands, vec)

    def scaled(self, factor: float) -> "BandedHermitianOperator":
        if np.imag(factor) != 0:
            raise ValueError("scale factor must be real to stay Hermitian")
        return BandedHermitianOperator(
            self.dim, {off: diag * factor for off, diag in self.diags.items()}
        )

    def norm_inf(self) -> float:
        """Upper bound on the operator norm (max absolute row sum)."""
        total = np.zeros(self.dim)
        for off, diag in self.diags.items():
            a = np.abs(diag)
            if off == 0:
                total += a
            else:
                total[: self.dim - off] += a
                total[off:] += a
        return float(total.max())

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for off, diag in self.diags.items():
            idx = np.arange(self.dim - off)
            out[idx, idx + off] = diag
            if off > 0:
                out[idx + off, idx] = diag.conj()
        return out


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes in a tagged basis ('sz' or 'energy')."""

    basis: str
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValueError(f"unknown basis tag {self.basis!r}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def normalized_state(amplitudes, basis: str = SZ_BASIS) -> StateVector:
    """Normalize raw amplitudes and wrap them as a StateVector."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(basis=basis, amplitudes=amps / norm)


def basis_state(dim: int, index: int, basis: str = SZ_BASIS) -> StateVector:
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(basis=basis, amplitudes=amps)


def ladder_plus_band(sector: SpinSector) -> np.ndarray:
    """Matrix elements <m|S+|m+1> for m = 0..N-1, exact integer arithmetic.

    S+|S,M> = sqrt(S(S+1) - M(M+1)) |S,M+1>, evaluated at M = M(m+1).
    """
    ts = np.int64(sector.N)
    tm = sector.two_m[1:]
    # S(S+1) - M(M+1) = (ts(ts+2) - tm(tm+2))/4, an exact integer ratio
    return np.sqrt((ts * (ts + 2) - tm * (tm + 2)) / 4.0)


@dataclass(frozen=True)
class CollectiveOperators:
    sx: BandedHermitianOperator
    sy: BandedHermitianOperator
    sz: BandedHermitianOperator


def collective_operators(sector: SpinSector) -> CollectiveOperators:
    """Collective spin operators of the sector as banded matrices.

    Sz is diagonal with entries M(m).  Sx = (S+ + S-)/2 is real symmetric
    with bandwidth 1 and Sy = (S+ - S-)/(2i) is purely imaginary Hermitian
    with bandwidth 1, both built from ``ladder_plus_band``.
    """
    a = ladder_plus_band(sector)
    sz = BandedHermitianOperator(sector.dim, {0: sector.two_m / 2.0})
    sx = BandedHermitianOperator(sector.dim, {1: a / 2.0})
    sy = BandedHermitianOperator(sector.dim, {1: -0.5j * a})
    return CollectiveOperators(sx=sx, sy=sy, sz=sz)


def _amps_in_sz(psi) -> np.ndarray:
    if isinstance(psi, StateVector):
        if psi.basis != SZ_BASIS:
            raise ValueError("operator algebra expects a state in the Sz basis")
        return psi.amplitudes
    return np.asarray(psi, dtype=np.complex128)


def apply(op, psi) -> np.ndarray:
    """Banded matrix-vector product; returns raw (unnormalized) amplitudes."""
    amps = _amps_in_sz(psi)
    if amps.shape[0] != op.dim:
        raise ValueError("dimension mismatch")
    return op.apply(amps)


def expectation(op, psi) -> complex:
    """<psi|op|psi> as a complex scalar."""
    amps = _amps_in_sz(psi)
    if amps.shape[0] != op.dim:
        raise ValueError("dimension mismatch")
    return complex(np.vdot(amps, op.apply(amps)))
