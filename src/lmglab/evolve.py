"""Diagonalization, exact propagation, projected analytic dynamics, and the
ground-state correlation function.

Sector Hamiltonians are diagonalized in full by LAPACK
(``numpy.linalg.eigh``), in real arithmetic and by parity blocks where the
matrix allows (see ``eigensystem``); diagonal ones need only a sort.  The
kicked ground state, the one eigenpair of that H in use, comes from the
few dozen lowest levels of the free H, whose solve is at hand anyway
(``_free_level_ground``, accepted by the Courant-Fischer test
``_certified``); at gamma = 1 those levels are a window of Sz rows.
Dynamics always go through the full eigendecomposition: the frequencies of
interest are O(1/N) and the states live for O(N^3), so time stepping would
accumulate phase error where it hurts most.  No state is evolved over a
grid: an expectation value is a sum of Bohr lines with phases factored over
the grid and a stated truncation bound, a projected mode is two such lines,
and f_N(t) sums only the levels that Sx reaches.  Propagation uses the
e^{-iHt} phase convention.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ground_M, isotropic_energies, isotropic_gap
from .spinspace import (
    BandedHermitianOperator,
    _check_state,
    _readonly,
    build_sector,
    ladder_plus_band,
)

_GRID_RTOL = 1e-9
_LINE_RTOL = 1e-13  # Bohr-line truncation tolerance, relative to a bound on ||O||
_PHASE_BLOCK = 1 << 20  # complex phases per block of lines in _phase_sum
_FIRST_LEVELS = 32  # free levels of _free_level_ground's first try, doubled per try
_EPS = float(np.finfo(np.float64).eps)


def _check_grid(t) -> np.ndarray:
    """A float64 copy of t; ValueError unless t is a finite increasing uniform grid."""
    t = np.array(t, dtype=np.float64)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid needs at least two points")
    if not np.all(np.isfinite(t)):
        raise ValueError("time grid must be finite")
    dt = np.diff(t)
    step = dt[0]
    if step <= 0.0 or np.any(np.abs(dt - step) > _GRID_RTOL * abs(step)):
        raise ValueError("time grid must be uniform and increasing")
    return t


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Values on a uniform increasing time grid; ``error_bound`` bounds truncation."""

    t: np.ndarray
    values: np.ndarray
    error_bound: float = 0.0

    def __post_init__(self):
        # read-only copies: the caller's arrays stay writable, and writes to them
        # cannot reach the series
        object.__setattr__(self, "t", _readonly(_check_grid(self.t)))
        object.__setattr__(self, "values", _readonly(np.array(self.values)))

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


def _series(t: np.ndarray, values, bound: float = 0.0) -> TimeSeries:
    """A TimeSeries on a grid that ``_check_grid`` returned: not checked again."""
    series = object.__new__(TimeSeries)
    series.__dict__.update(
        t=_readonly(t.view()), values=_readonly(np.asarray(values)), error_bound=bound
    )
    return series


def default_time_grid(N: int, periods: float = 20.0, samples: int = 4096) -> np.ndarray:
    """Uniform grid covering ``periods`` periods of nu = 1/N (period 2*pi*N)."""
    t_max = periods * 2.0 * math.pi * N
    return np.arange(samples) * (t_max / samples)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectrum of a sector Hamiltonian in the Sz basis.

    ``energies`` ascend.  When H was diagonal, ``permutation`` maps level k
    to its Sz basis index (ties keep their index order), every eigenvector
    is a coordinate vector and ``vectors`` is None.  Otherwise ``vectors``
    holds all orthonormal eigenvector columns, real if H was solved in real
    arithmetic, and ``permutation`` is None.  ``columns`` reads either form.
    """

    energies: np.ndarray
    vectors: np.ndarray | None
    permutation: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    @property
    def ground_energy(self) -> float:
        return float(self.energies[0])

    def columns(self, levels, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Rows lo:hi (every row by default) of the eigenvector columns of a
        sequence of levels, (hi - lo, len(levels))."""
        hi = self.dim if hi is None else hi
        if self.permutation is None:
            return self.vectors[lo:hi, levels]
        levels = np.asarray(levels, dtype=np.intp)
        rows = self.permutation[levels] - lo
        inside = (rows >= 0) & (rows < hi - lo)
        out = np.zeros((hi - lo, levels.shape[0]))
        out[rows[inside], np.flatnonzero(inside)] = 1.0
        return out

    def to_energy_basis(self, amps: np.ndarray) -> np.ndarray:
        if self.permutation is not None:
            return amps[self.permutation]
        return _real_times(self.vectors.conj().T, amps)

    def from_energy_basis(self, coeffs: np.ndarray) -> np.ndarray:
        if self.permutation is not None:
            out = np.empty_like(coeffs)
            out[self.permutation] = coeffs
            return out
        return _real_times(self.vectors, coeffs)


def _real_times(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ x; a real matrix takes a complex x's real and imaginary parts
    one at a time, where ``@`` would cast the whole matrix to complex."""
    if np.iscomplexobj(matrix) or not np.iscomplexobj(x):
        return matrix @ x
    real = matrix @ x.real
    out = np.empty(real.shape, dtype=np.result_type(matrix, x))
    out.real, out.imag = real, matrix @ x.imag
    return out


def _parity_blocks(op: BandedHermitianOperator) -> list[np.ndarray]:
    """The even-m and odd-m blocks of an H with no band 1, each a dense
    tridiagonal built from bands 0 and 2 in band 2's dtype."""
    d, e = op.band(0), op.band(2)
    blocks = []
    for p in (0, 1):
        block = np.diag(d[p::2]).astype(e.dtype, copy=False)
        i = np.arange(block.shape[0] - 1)
        block[i, i + 1], block[i + 1, i] = e[p::2], e[p::2].conj()
        blocks.append(block)
    return blocks


def eigensystem(op: BandedHermitianOperator) -> EigenSystem:
    """Diagonalize a banded Hermitian sector operator.

    Diagonal input short-circuits to a sort plus permutation.  Otherwise
    dense ``numpy.linalg.eigh`` (``LinAlgError`` if it fails) solves H in
    its bands' dtype: real arithmetic unless a band is complex128, which a
    ``BandedHermitianOperator`` band is only when its entries are not all
    real.  With an all-zero band 1, H commutes with the parity (-1)^m: its
    even-m and odd-m blocks (``_parity_blocks``) are solved apart and each
    block's vectors go straight to their columns in the stable merge of the
    two spectra.  An H with band 1 is solved whole.
    """
    n = op.dim
    if op.bandwidth > 2:
        raise ValueError("expected bandwidth <= 2")
    bands = {off for off, band in op.diags.items() if off > 0 and np.any(band != 0.0)}
    if not bands:
        diag = op.band(0)
        perm = np.argsort(diag, kind="stable")
        return EigenSystem(_readonly(diag[perm]), None, _readonly(perm))
    if 1 not in bands:
        (w0, v0), (w1, v1) = (np.linalg.eigh(block) for block in _parity_blocks(op))
        w = np.concatenate([w0, w1])
        order = np.argsort(w, kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        v = np.zeros((n, n), dtype=v0.dtype)
        v[0::2, rank[: w0.size]], v[1::2, rank[w0.size :]] = v0, v1
        return EigenSystem(_readonly(w[order]), _readonly(v))
    w, v = np.linalg.eigh(op.to_dense())
    return EigenSystem(_readonly(w), _readonly(v))


def _certified(levels: np.ndarray, r: float, g_out: float, coupling: float) -> bool:
    """Whether a window's lowest pair (E, v) is the ground pair of the whole H.

    ``levels`` is the window's ascending spectrum (E, e1, ...), r the
    residual norm of v in H, G = ``g_out`` a lower bound of H outside the
    window and ``coupling`` a bound of ||C||_F on the couplings across it.
    With scale = eps max|levels| it holds when r <= scale and

        mu = (e1 + G)/2 - hypot((G - e1)/2, ||C||_F) > E + r + scale.

    By Courant-Fischer over x orthogonal to v, lambda_1(H) >= mu, so E is
    lambda_0 and the state error is at most (r + scale)/(mu - E) (Parlett,
    The Symmetric Eigenvalue Problem, ch. 10-11).
    """
    scale = _EPS * max(abs(levels[0]), abs(levels[-1]))
    e1 = float(levels[1])
    mu = 0.5 * (e1 + g_out) - math.hypot(0.5 * (g_out - e1), coupling)
    return bool(r <= scale and mu > levels[0] + r + scale)


def _free_level_ground(
    op: BandedHermitianOperator, free: EigenSystem
) -> tuple[float, np.ndarray]:
    """Ground energy and state of H = H0 + W from the lowest levels of H0.

    ``free`` is the solved H0, which is ``op`` without its band 1; W is that
    band (the kick), real when its entries are.  An all-zero W (g = 0, or a
    kick that underflows) gives level 0 of H0.  Else, for K = 32, 64, ...
    while 4K <= 3 dim, then K = floor(3 dim / 4) if 32 was the only one,
    with V_K the K lowest free vectors, M = V_K^H W V_K formed band-wise and
    H_K = diag(E_K - E0) + M, the lowest pair (E, v) of H_K is accepted by
    ``_certified`` with r = ||R v||, R = W V_K - V_K M, C bounded by ||R||_F
    and G = E_K - E0 - 2 max|band 1|, E_K the first level left out.  The
    state is then V_K v and the energy E0 + E.  At gamma = 1 V_K is made of
    coordinate vectors, and only the rows from one below their lowest Sz row
    to one above their highest are formed: W V_K and R vanish on the others.
    If no K is certified, ``eigensystem(op)`` solves H whole.
    """
    n = op.dim
    w = op.band(1)
    if not w.any():
        return free.ground_energy, ground_state(free)
    shifted = free.energies - free.energies[0]
    w_bound = 2.0 * float(np.abs(w).max())
    k = _FIRST_LEVELS
    while 4 * k <= 3 * n:
        lo, hi = 0, n
        if free.permutation is not None:
            rows = free.permutation[:k]
            lo, hi = max(int(rows.min()) - 1, 0), min(int(rows.max()) + 2, n)
        vk = free.columns(np.arange(k), lo, hi)
        band = w[lo : hi - 1]
        wv = np.zeros((hi - lo, k), dtype=np.result_type(w, vk))
        wv[:-1] += band[:, None] * vk[1:]
        wv[1:] += band.conj()[:, None] * vk[:-1]
        m = vk.conj().T @ wv
        levels, vecs = np.linalg.eigh(m + np.diag(shifted[:k]))
        v = vecs[:, 0]
        res = wv - vk @ m
        with np.errstate(over="ignore"):  # a norm past 1e308 is inf: not certified
            r, coupling = float(np.linalg.norm(res @ v)), float(np.linalg.norm(res))
        g_out = float(shifted[k]) - w_bound
        if _certified(levels, r, g_out, coupling):
            amps = np.zeros(n, dtype=np.complex128)
            amps[lo:hi] = vk @ v
            return float(free.energies[0] + levels[0]), _check_state(amps, n)
        # 43 < dim < 86, where doubling 32 breaks the cut-off: the largest K next
        k = 3 * n // 4 if k == _FIRST_LEVELS < 3 * n // 4 < 2 * k else 2 * k
    eig = eigensystem(op)
    return eig.ground_energy, ground_state(eig)


def ground_state(eig: EigenSystem) -> np.ndarray:
    return _check_state(eig.columns([0])[:, 0], eig.dim)


def propagate(eig: EigenSystem, psi0, t: float) -> np.ndarray:
    """psi(t) = sum_k e^{-i E_k t} b_k |k>, b_k = <k|psi0>."""
    coeffs = eig.to_energy_basis(_check_state(psi0, eig.dim))
    phases = np.exp(-1j * eig.energies * t)
    return _check_state(eig.from_energy_basis(phases * coeffs), eig.dim)


def observable_series(
    eig: EigenSystem,
    psi0,
    op,
    tgrid: np.ndarray,
) -> TimeSeries:
    """<psi(t)|op|psi(t)> = sum_jk b_j^* O_jk b_k e^{i (E_j - E_k) t} on a
    uniform grid: the lines of ``bohr_lines``, summed by ``_phase_sum``.

    ``op`` may be any banded operator with ``dim``, ``bands`` and
    ``apply``, Hermitian or not.  For S+ = Sx + i Sy the values are
    <Sx> + i <Sy>, and ``error_bound``, the lines' truncation bound, bounds
    the error of both parts.  Raises ValueError, before any work, on a grid
    that is not finite and uniform with at least two points, then as
    ``bohr_lines`` does.
    """
    tgrid = _check_grid(tgrid)
    freqs, weights, bound = bohr_lines(eig, psi0, op)
    return _series(tgrid, _phase_sum(freqs, weights, tgrid), bound)


def _band_lines(eig: EigenSystem, amps, bands) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero Bohr lines of a diagonal H, one per stored band entry."""
    energies = eig.from_energy_basis(eig.energies)
    freqs = [np.zeros(0)]
    weights = [np.zeros(0, dtype=np.complex128)]
    for off, diag in bands.items():
        # entry (m, m + off) sits at diag[min(m, m + off)]
        lo = max(0, -off)
        rows = slice(lo, lo + diag.shape[0])
        cols = slice(lo + off, lo + off + diag.shape[0])
        weights.append(amps[rows].conj() * diag * amps[cols])
        freqs.append(energies[rows] - energies[cols])
    weights = np.concatenate(weights)
    freqs = np.concatenate(freqs)
    used = weights != 0.0
    return freqs[used], weights[used]


def bohr_lines(
    eig: EigenSystem, amps, op, tol: float | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Bohr lines of <op> between the levels that carry the state.

    Raises ValueError on a state or operator that does not fit ``eig``.
    When H was diagonal (``eig.permutation`` set) there is one line per
    nonzero stored entry of ``op.bands``, band by band in Sz order, nothing
    is truncated, ``tol`` does not apply and the bound is 0.  Otherwise,
    with b = V^H psi, ||O|| <= sum over bands of the largest |entry| and
    tol = 1e-13 ||O|| by default, the levels of smallest |b_k| are dropped
    while their amplitude norm d keeps ||O|| (2 d + d^2) <= tol / 2, then
    the lines b_j^* O_jk b_k of smallest |weight| while their summed
    |weight| stays <= tol / 2.  Returns the kept frequencies E_j - E_k and
    weights in row-major (j, k) order, and the sum of both bounds.
    """
    amps = _check_state(amps, eig.dim)
    if op.dim != eig.dim:
        raise ValueError("dimension mismatch")
    if eig.permutation is not None:
        return *_band_lines(eig, amps, op.bands), 0.0
    norm = float(sum(np.max(np.abs(band), initial=0.0) for band in op.bands.values()))
    tol = _LINE_RTOL * norm if tol is None else tol
    b = eig.to_energy_basis(amps)
    mass = np.abs(b) ** 2
    by_mass = np.argsort(mass)
    d = np.sqrt(np.cumsum(mass[by_mass]))
    n_drop = int(np.count_nonzero(norm * (2.0 * d + d * d) <= 0.5 * tol))
    bound = norm * (2.0 * d[n_drop - 1] + d[n_drop - 1] ** 2) if n_drop else 0.0
    keep = np.sort(by_mass[n_drop:])
    vk = eig.columns(keep)
    block = vk.conj().T @ op.apply(vk)
    energies, bk = eig.energies[keep], b[keep]
    freqs = (energies[:, None] - energies[None, :]).ravel()
    weights = (bk.conj()[:, None] * block * bk[None, :]).ravel()
    mags = np.abs(weights)
    by_weight = np.argsort(mags)
    dropped = np.cumsum(mags[by_weight])
    n_drop = int(np.count_nonzero(dropped <= 0.5 * tol))
    bound += float(dropped[n_drop - 1]) if n_drop else 0.0
    lines = np.sort(by_weight[n_drop:])
    return freqs[lines], weights[lines], float(bound)


def _phase_sum(freqs: np.ndarray, weights: np.ndarray, tgrid: np.ndarray) -> np.ndarray:
    """sum_l weights_l e^{i freqs_l t} on a uniform grid, phases factored.

    With B = ceil(sqrt(T)) and t_{qB+r} = t_{qB} + (t_r - t_0), the sum is
    a (Q x L) @ (L x B) product of phase blocks, L (Q + B) exponentials
    instead of L T, taken over blocks of lines so memory stays bounded.
    An (L, m) weight matrix gives the (T, m) sums of its columns, all over
    one set of exponentials.
    """
    T = tgrid.shape[0]
    B = math.isqrt(T - 1) + 1
    anchor_t, offset_t = tgrid[::B], tgrid[:B] - tgrid[0]
    cols = weights if weights.ndim == 2 else weights[:, None]
    step = max(1, _PHASE_BLOCK // (anchor_t.shape[0] + B))
    out = np.zeros((cols.shape[1], anchor_t.shape[0], B), dtype=np.complex128)
    for lo in range(0, freqs.shape[0], step):
        f, w = freqs[lo : lo + step], cols[lo : lo + step]
        anchors = np.exp(1j * anchor_t[:, None] * f[None, :])
        offsets = np.exp(1j * f[:, None] * offset_t[None, :])
        for col, block in zip(w.T, out):
            block += anchors @ (col[:, None] * offsets)
    sums = out.reshape(out.shape[0], -1)[:, :T]
    return sums[0] if weights.ndim == 1 else sums.T


@dataclass(frozen=True, eq=False)
class ProjectedModes:
    """In-plane polarization modes: level k (entry k of each array) beats at the
    universal nu = 1/N against its own omega_k = h - 2 M_k / N from sx0, sy0."""

    nu: float
    omega_k: np.ndarray
    sx0: np.ndarray
    sy0: np.ndarray

    def first(self, count: int) -> "ProjectedModes":
        """The modes of levels 0..count-1."""
        cut = slice(count)
        return ProjectedModes(self.nu, self.omega_k[cut], self.sx0[cut], self.sy0[cut])


def projected_init(psi0, N: int, h: float) -> ProjectedModes:
    """Initial mode amplitudes of a state of N spins under the isotropic Hamiltonian.

    Level k maps to a single Sz index m; its amplitudes collect the two
    coherences c_m^* c_{m+-1} weighted by the Sx / Sy matrix elements, with
    missing neighbors dropped at the sector edges.  Summing sx0 over all
    modes reproduces <Sx> at t = 0 exactly.
    """
    two_m = build_sector(N)
    n = int(N)
    c = _check_state(psi0, two_m.size)
    perm = np.argsort(isotropic_energies(n, h), kind="stable")
    a = ladder_plus_band(n)  # <m|S+|m+1>, m = 0..N-1
    up = np.conj(c[:-1]) * c[1:]  # c_m^* c_{m+1}, m = 0..N-1
    down = np.conj(c[1:]) * c[:-1]  # c_m^* c_{m-1}, m = 1..N
    sx0 = np.zeros(n + 1, dtype=np.complex128)
    sy0 = np.zeros(n + 1, dtype=np.complex128)
    sx0[:-1] += up * (a / 2.0)
    sy0[:-1] += up * (-0.5j * a)
    sx0[1:] += down * (a / 2.0)
    sy0[1:] += down * (0.5j * a)
    omega_k = h - two_m[perm] / n  # h - 2M/N
    return ProjectedModes(1.0 / n, omega_k, sx0[perm], sy0[perm])


def _mode_lines(modes: ProjectedModes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bohr lines of the modes: frequencies and the S_x and S_y weights.

    With a = sx0, b = sy0, each mode contributes e^{i (w - nu) t} with
    weights (a - ib)/2 and (b + ia)/2, and e^{-i (w + nu) t} with weights
    (a + ib)/2 and (b - ia)/2.  Lines of equal frequency are merged, so a
    mode with w = 0 and b = 0 gives an S_y that is exactly zero.
    """
    w, nu, a, b = modes.omega_k, modes.nu, modes.sx0, modes.sy0
    freqs, line = np.unique(np.concatenate([w - nu, -(w + nu)]), return_inverse=True)
    wx = np.zeros(freqs.shape[0], dtype=np.complex128)
    wy = np.zeros_like(wx)
    np.add.at(wx, line, np.concatenate([a - 1j * b, a + 1j * b]) / 2.0)
    np.add.at(wy, line, np.concatenate([b + 1j * a, b - 1j * a]) / 2.0)
    return freqs, wx, wy


def projected_solution(
    modes: ProjectedModes, tgrid: np.ndarray
) -> tuple[TimeSeries, TimeSeries]:
    """Closed-form dynamics of the given modes, summed.

    Sx_k(t) = e^{-i nu t} [Sx_k(0) cos(w_k t) + Sy_k(0) sin(w_k t)] and the
    Sy companion with the rotated sign pattern, each mode summed as its two
    Bohr lines (see ``_mode_lines``), both components in one ``_phase_sum``.
    Raises ValueError on a grid that is not finite and uniform with at
    least two points.
    """
    return _projected(modes, _check_grid(tgrid))


def _projected(modes: ProjectedModes, tgrid: np.ndarray) -> tuple[TimeSeries, TimeSeries]:
    """``projected_solution`` on a grid that ``_check_grid`` returned: both
    components from one ``_phase_sum`` over one set of exponentials."""
    freqs, wx, wy = _mode_lines(modes)
    sums = _phase_sum(freqs, np.column_stack([wx, wy]), tgrid)
    return _series(tgrid, sums[:, 0]), _series(tgrid, sums[:, 1])


def analytic_sum(
    modes: ProjectedModes, K: int, tgrid: np.ndarray
) -> tuple[TimeSeries, TimeSeries]:
    """Superposition of the projected modes k = 0..K (inclusive).

    One ``_phase_sum`` for both components over the 2 (K + 1) Bohr lines of
    the modes.  With K equal to the level count the sum reproduces the exact
    <Sx(t)>, <Sy(t)> under the isotropic Hamiltonian.  The grid is checked
    before any work.
    """
    tgrid = _check_grid(tgrid)
    n_max = modes.omega_k.shape[0] - 1
    if K > n_max:
        warnings.warn(
            f"cutoff K={K} exceeds the top level {n_max}; clamping",
            stacklevel=2,
        )
        K = n_max
    if K < 0:
        raise ValueError("cutoff must be >= 0")
    return _projected(modes.first(K + 1), tgrid)


@dataclass(frozen=True, eq=False)
class CorrelationMember:
    """Correlation function built on one ground level (one M0)."""

    m0: float
    closed_form: TimeSeries
    frequencies: tuple[float, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class CorrelationResult:
    nu: float
    members: tuple[CorrelationMember, ...]


def correlation_fN(N: int, h: float, tgrid: np.ndarray) -> CorrelationResult:
    """Ground-state correlation of the order parameter, f_N(t) = <m_x(t) m_x(0)>.

    One closed form per ground level: Sx|M0> reaches exactly the existing
    magnetization neighbors M1 = M0 +- 1, so f_N(t) is one term per neighbor,
    with the ladder-element weight [S(S+1) - M0 M1] / 4 in exact integers on
    the exponential of the gap from gap arithmetic.  A degenerate ground pair
    yields one member per level, ascending in M.  ``ground_M`` raises
    ValueError unless N is a positive integer.
    """
    if h >= 1.0:
        raise ValueError("correlation function is defined in the broken phase")
    tgrid = _check_grid(tgrid)
    ground, n = ground_M(N, h), int(N)
    members = []
    for m0_val in ground.levels:
        two_m0 = round(2 * m0_val)
        # the levels Sx|M0> reaches: each existing neighbor, M1 = M0 + 1 first
        two_m1 = np.array([two_m0 + 2, two_m0 - 2], dtype=np.int64)
        two_m1 = two_m1[np.abs(two_m1) <= n]
        freqs = isotropic_gap(n, two_m1, two_m0, h)
        phases = np.exp(-1j * freqs[:, None] * tgrid[None, :])
        # |<m0 | Sx | m1>|^2 = [S(S+1) - M0 M1] / 4 in exact integers
        w = (np.int64(n) * (n + 2) - two_m0 * two_m1) / 16.0
        closed = (4.0 / n**2) * (w[:, None] * phases).sum(axis=0)
        members.append(
            CorrelationMember(
                m0=m0_val,
                closed_form=_series(tgrid, closed),
                frequencies=tuple(freqs.tolist()),
                weights=tuple(w.tolist()),
            )
        )
    return CorrelationResult(nu=1.0 / n, members=tuple(members))

