"""Dicke-sector basis, collective spin operators, and state-vector algebra.

Everything lives in the maximal-spin sector S = N/2 of N spin-1/2 sites,
which has dimension N + 1.  Basis indices follow the descending-magnetization
convention: index m = 0 is the M = +S state, index m = N is M = -S.  All
other modules inherit this ordering.

Magnetizations are kept as doubled integers (2M) internally so that
half-integer values for odd N stay exact and parity logic never touches
floating point.  Each reader of the basis takes the spin count N and gets
the labels from ``build_sector(N)``, which checks that N is a positive
integer and returns the read-only array of 2M, whose size N + 1 is the
sector dimension.  A state is a plain array of its N + 1 Sz amplitudes;
each public function that reads or makes one checks it with
``_check_state``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_sector(N: int) -> np.ndarray:
    """The 2M labels of the N-spin sector, descending from N to -N: a
    read-only int64 array of size N + 1.

    Raises ValueError unless N is a positive integer.
    """
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
        raise ValueError(f"spin count must be an integer, got {N!r}")
    if N < 1:
        raise ValueError(f"spin count must be >= 1, got {N}")
    N = int(N)
    return _readonly(np.arange(N, -N - 1, -2, dtype=np.int64))


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
    """Hermitian banded matrix (bandwidth <= 2 in this package).

    ``diags`` holds the diagonal and superdiagonals as given; ``bands`` is
    the full {offset: diagonal} mapping, offset = j - i, whose subdiagonals
    are their conjugates by construction, so Hermiticity holds exactly as
    stored, with +0 where a conjugate gives -0, as in a matvec.  A band is
    float64 when its imaginary parts are all zero, complex input included,
    and complex128 otherwise, so its dtype says whether it is real.
    """

    def __init__(self, dim: int, diags: dict[int, np.ndarray]):
        self.dim = int(dim)
        ups = {}
        for off, diag in diags.items():
            off = int(off)
            if off < 0:
                raise ValueError("store superdiagonals only (offset >= 0)")
            # a copy: the caller's array stays writable, and later writes to
            # it cannot reach these bands or their stored conjugates
            diag = np.array(diag, dtype=np.complex128)
            if not np.any(diag.imag):
                diag = diag.real.copy()
            if diag.shape != (dim - off,):
                raise ValueError(f"band at offset {off} has wrong length")
            ups[off] = _readonly(diag)
        if 0 in ups and np.iscomplexobj(ups[0]):
            raise ValueError("diagonal of a Hermitian operator must be real")
        self.diags = ups
        self.bands = dict(ups)
        for off, diag in ups.items():
            if off > 0:
                self.bands[-off] = _readonly(diag.conj() + 0.0)

    @property
    def bandwidth(self) -> int:
        return max((o for o in self.diags), default=0)

    def band(self, off: int) -> np.ndarray:
        """Superdiagonal at the given offset, float64 zeros if absent."""
        if off in self.diags:
            return self.diags[off]
        return np.zeros(self.dim - abs(off))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape[0] != self.dim:
            raise ValueError("dimension mismatch")
        return _band_matvec(self.dim, self.bands, vec)

    def to_dense(self) -> np.ndarray:
        dtype = np.result_type(np.float64, *self.diags.values())
        out = np.zeros((self.dim, self.dim), dtype=dtype)
        for off, diag in self.diags.items():
            idx = np.arange(self.dim - off)
            out[idx, idx + off] = diag
            if off > 0:
                out[idx + off, idx] = diag.conj()
        return out


def _check_state(psi, dim: int) -> np.ndarray:
    """Sz amplitudes as complex128; ValueError unless shaped (dim,) and of unit norm."""
    amps = np.asarray(psi, dtype=np.complex128)
    if amps.shape != (dim,):
        raise ValueError(f"state has shape {amps.shape}, expected ({dim},)")
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if abs(norm_sq - 1.0) > _NORM_TOL:
        raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
    return amps


def ladder_plus_band(N: int) -> np.ndarray:
    """Matrix elements <m|S+|m+1> for m = 0..N-1, exact integer arithmetic.

    S+|S,M> = sqrt(S(S+1) - M(M+1)) |S,M+1>, evaluated at M = M(m+1).
    """
    tm = build_sector(N)[1:]
    ts = np.int64(N)
    # S(S+1) - M(M+1) = (ts(ts+2) - tm(tm+2))/4, an exact integer ratio
    return np.sqrt((ts * (ts + 2) - tm * (tm + 2)) / 4.0)


class _Raising:
    """S+ = Sx + i Sy of N spins, the one band <m|S+|m+1>: not Hermitian, but
    with the ``dim``, ``bands`` and ``apply`` that ``evolve.observable_series``
    reads, where <S+> = <Sx> + i <Sy>."""

    def __init__(self, N: int):
        self.bands = {1: _readonly(ladder_plus_band(N))}
        self.dim = self.bands[1].shape[0] + 1

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return _band_matvec(self.dim, self.bands, np.asarray(vec, dtype=np.complex128))


@dataclass(frozen=True)
class CollectiveOperators:
    sx: BandedHermitianOperator
    sy: BandedHermitianOperator
    sz: BandedHermitianOperator


def collective_operators(N: int) -> CollectiveOperators:
    """Collective spin operators of the N-spin sector as banded matrices.

    Sz is diagonal with entries M(m).  Sx = (S+ + S-)/2 is real symmetric
    with bandwidth 1 and Sy = (S+ - S-)/(2i) is purely imaginary Hermitian
    with bandwidth 1, both built from ``ladder_plus_band``.
    """
    two_m = build_sector(N)
    a = ladder_plus_band(N)
    sz = BandedHermitianOperator(two_m.size, {0: two_m / 2.0})
    sx = BandedHermitianOperator(two_m.size, {1: a / 2.0})
    sy = BandedHermitianOperator(two_m.size, {1: -0.5j * a})
    return CollectiveOperators(sx=sx, sy=sy, sz=sz)
