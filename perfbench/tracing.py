"""Spans around lmglab's public functions, recorded from outside the program.

``Tracer.install`` rebinds each target function in every ``lmglab`` module
namespace that holds it (``cli``, ``ssb`` and ``oracle`` import functions by
name, so patching the defining module alone would miss their calls).
``Tracer.uninstall`` puts the originals back.  A target that no longer
exists is skipped and the metrics that need it are reported as absent, so a
refactor that deletes or renames a function never breaks the benchmark.

Spans (name, start, end, parent, op) are kept in memory.  A layer's self
time is the time its spans cover minus the time covered by their children.
Accuracy checks the tracer runs itself (eigen residuals) sit in their own
``bench.check`` spans, which belong to no layer.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

import numpy as np

CHECK = "bench.check"


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else (args[index] if len(args) > index else None)


def _matrix_case(op) -> str:
    """diag / tri / penta from the nonzero off-diagonal bands of the input."""
    try:
        width = 0
        for off in range(1, op.bandwidth + 1):
            if np.any(op.band(off) != 0.0):
                width = off
    except (AttributeError, TypeError, ValueError, KeyError):
        return "other"
    return ("diag", "tri", "penta")[width] if width <= 2 else "other"


def _accuracy(op, eig) -> tuple[float, float]:
    """max|Hv - lv| / ||H||_inf and max|V^H V - I| over the returned pairs."""
    H = op.to_dense()
    V = np.asarray(eig.vectors)
    w = np.asarray(eig.energies)
    if V.ndim != 2 or V.shape[1] != w.shape[0]:
        raise ValueError("eigenvector block does not match the eigenvalues")
    norm = max(float(np.max(np.sum(np.abs(H), axis=1))), np.finfo(float).tiny)
    residual = float(np.max(np.abs(H @ V - V * w[None, :]))) / norm
    gram = V.conj().T @ V
    orth = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    return residual, orth


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = -1
        self.missing: list[str] = []
        self.installed: list[str] = []
        self.solves: list[dict] = []
        self.series_calls = 0
        self.dense_series = 0
        self.oracle_max_dev = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._eigs: dict[int, tuple[object, int]] = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._eigs.clear()

    def _check(self, fn, *args) -> None:
        idx = self._open(CHECK)
        try:
            fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                tracer._check(after, args, kwargs, result)
            return result

        return traced

    # -- solver bookkeeping --------------------------------------------------

    def _solve_name(self, args, kwargs) -> str:
        return "tridiag.eig." + _matrix_case(_arg(args, kwargs, 0, "op"))

    def _solved(self, args, kwargs, eig) -> None:
        record = {"pairs": 0, "used": False, "residual": None, "orth": None}
        energies = getattr(eig, "energies", None)
        if energies is not None:
            record["pairs"] = int(np.shape(energies)[0])
        try:
            record["residual"], record["orth"] = _accuracy(_arg(args, kwargs, 0, "op"), eig)
        except (AttributeError, TypeError, ValueError):
            pass
        self.solves.append(record)
        try:
            ref = weakref.ref(eig)
        except TypeError:
            ref = None
        self._eigs[id(eig)] = (ref, len(self.solves) - 1)

    def _consumed(self, args, kwargs) -> None:
        eig = _arg(args, kwargs, 0, "eig")
        ref, idx = self._eigs.get(id(eig), (None, None))
        if idx is not None and (ref is None or ref() is eig):
            self.solves[idx]["used"] = True

    def _series(self, args, kwargs) -> None:
        self._consumed(args, kwargs)
        self.series_calls += 1
        if getattr(_arg(args, kwargs, 0, "eig"), "permutation", None) is None:
            self.dense_series += 1

    def _oracle_report(self, args, kwargs, report) -> None:
        self.oracle_max_dev = max(self.oracle_max_dev, float(report.worst()))

    # -- install / uninstall -------------------------------------------------

    def targets(self):
        """(module, function, span name, before hook, after hook)."""
        plain = [
            ("spinspace", "build_sector"), ("spinspace", "collective_operators"),
            ("model", "build_hamiltonian"), ("model", "ground_M"),
            ("model", "trial_localized_state"),
            ("evolve", "correlation_fN"), ("evolve", "projected_init"),
            ("evolve", "projected_solution"), ("evolve", "analytic_sum"),
            ("spectra", "periodogram"), ("spectra", "find_peaks"),
            ("spectra", "intrinsic_frequencies"), ("spectra", "classify_mode"),
            ("spectra", "quasicrystal_h"), ("spectra", "cut_and_project_sequence"),
            ("ssb", "localize_ground_state"), ("ssb", "gamma0_gap_scan"),
            ("ssb", "degenerate_pt_gap"), ("ssb", "newman_alpha"),
            ("ssb", "order_parameter"),
            ("oracle", "full_space_operators"), ("oracle", "full_space_ground"),
            ("oracle", "full_space_correlation"),
            ("cli", "main"),
        ]
        out = [(m, f, f"{m}.{f}", None, None) for m, f in plain]
        out += [
            ("evolve", "eigensystem", self._solve_name, None, self._solved),
            ("evolve", "observable_series", "evolve.observable_series", self._series, None),
            ("evolve", "propagate", "evolve.propagate", self._consumed, None),
            ("spectra", "line_spectrum", "spectra.line_spectrum", self._consumed, None),
            ("oracle", "sector_vs_full_checks", "oracle.sector_vs_full_checks",
             None, self._oracle_report),
        ]
        return out

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lmglab" or name.startswith("lmglab."))]
        for mod_name, fn_name, name, before, after in self.targets():
            module = sys.modules.get(f"lmglab.{mod_name}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = self._wrap(original, name, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))
            self.installed.append(f"{mod_name}.{fn_name}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- metrics -------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def check_seconds(self) -> float:
        """Time spent in the tracer's own checks, outermost spans only."""
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if name == CHECK and (parent < 0 or self.spans[parent][0] != CHECK))


# name, unit, better, wrapped functions it needs (any one of them suffices)
LAYER_METRICS = (
    ("tridiag.eig_calls", "count", "lower", ("evolve.eigensystem",)),
    ("tridiag.eig_calls_per_spectrum_op", "count", "lower", ("evolve.eigensystem",)),
    ("tridiag.eig_diag_s", "s", "lower", ("evolve.eigensystem",)),
    ("tridiag.eig_tri_s", "s", "lower", ("evolve.eigensystem",)),
    ("tridiag.eig_penta_s", "s", "lower", ("evolve.eigensystem",)),
    ("tridiag.eigpairs_computed", "count", "lower", ("evolve.eigensystem",)),
    ("tridiag.full_use_ratio", "ratio", "higher", ("evolve.eigensystem",)),
    ("tridiag.residual_max", "rel", "lower", ("evolve.eigensystem",)),
    ("tridiag.orth_max", "abs", "lower", ("evolve.eigensystem",)),
    ("evolve.observable_series_s", "s", "lower", ("evolve.observable_series",)),
    ("evolve.observable_series_calls", "count", "lower", ("evolve.observable_series",)),
    ("evolve.observable_series_dense_share", "ratio", "lower", ("evolve.observable_series",)),
    ("evolve.correlation_fN_s", "s", "lower", ("evolve.correlation_fN",)),
    ("evolve.projected_s", "s", "lower",
     ("evolve.projected_init", "evolve.projected_solution", "evolve.analytic_sum")),
    ("spectra.periodogram_s", "s", "lower", ("spectra.periodogram",)),
    ("spectra.find_peaks_s", "s", "lower", ("spectra.find_peaks",)),
    ("spectra.line_spectrum_s", "s", "lower", ("spectra.line_spectrum",)),
    ("ssb.localize_s", "s", "lower", ("ssb.localize_ground_state",)),
    ("ssb.localize_calls", "count", "lower", ("ssb.localize_ground_state",)),
    ("ssb.gap_scan_s", "s", "lower", ("ssb.gamma0_gap_scan",)),
    ("model.build_hamiltonian_calls", "count", "lower", ("model.build_hamiltonian",)),
    ("model.s", "s", "lower",
     ("model.build_hamiltonian", "model.ground_M", "model.trial_localized_state")),
    ("spinspace.build_sector_calls", "count", "lower", ("spinspace.build_sector",)),
    ("spinspace.collective_operators_calls", "count", "lower",
     ("spinspace.collective_operators",)),
    ("spinspace.s", "s", "lower",
     ("spinspace.build_sector", "spinspace.collective_operators")),
    ("oracle.operators_calls", "count", "lower", ("oracle.full_space_operators",)),
    ("oracle.operators_s", "s", "lower", ("oracle.full_space_operators",)),
    ("oracle.ground_s", "s", "lower", ("oracle.full_space_ground",)),
    ("oracle.correlation_s", "s", "lower", ("oracle.full_space_correlation",)),
    ("oracle.max_dev", "abs", "lower", ("oracle.sector_vs_full_checks",)),
    ("cli.self_s", "s", "lower", ("cli.main",)),
    ("cli.bytes_written", "bytes", "lower", ()),
    ("trace.overhead_ratio", "ratio", "lower", ()),
    ("src_lines", "lines", "lower", ()),
)


def layer_metrics(tracer: Tracer, commands: dict[int, str], batches: int) -> tuple[dict, list]:
    """Per-layer values from the spans, counts and times per batch of ops.

    ``commands`` maps op id to subcommand.  Returns ({name: value}, absent
    names); the harness fills in cli.bytes_written, trace.overhead_ratio and
    src_lines.  Absent metrics read 0.
    """
    own = tracer.self_times()
    time_by: dict[str, float] = {}
    count_by: dict[str, int] = {}
    for (name, _, _, _, _), t in zip(tracer.spans, own):
        time_by[name] = time_by.get(name, 0.0) + t
        count_by[name] = count_by.get(name, 0) + 1

    def layer_time(prefix: str) -> float:
        return sum(t for name, t in time_by.items() if name.startswith(prefix + "."))

    eig_spans = [s for s in tracer.spans if s[0].startswith("tridiag.eig.")]
    spectrum_ops = [op for op, cmd in commands.items() if cmd == "spectrum"]
    eig_in_spectrum = sum(1 for s in eig_spans if commands.get(s[4]) == "spectrum")
    residuals = [s["residual"] for s in tracer.solves if s["residual"] is not None]
    orths = [s["orth"] for s in tracer.solves if s["orth"] is not None]
    per = 1.0 / batches
    values = {
        "tridiag.eig_calls": len(eig_spans) * per,
        "tridiag.eig_calls_per_spectrum_op":
            eig_in_spectrum / len(spectrum_ops) if spectrum_ops else 0.0,
        "tridiag.eig_diag_s": time_by.get("tridiag.eig.diag", 0.0) * per,
        "tridiag.eig_tri_s": time_by.get("tridiag.eig.tri", 0.0) * per,
        "tridiag.eig_penta_s": time_by.get("tridiag.eig.penta", 0.0) * per,
        "tridiag.eigpairs_computed": sum(s["pairs"] for s in tracer.solves) * per,
        "tridiag.full_use_ratio":
            sum(s["used"] for s in tracer.solves) / len(tracer.solves) if tracer.solves else 0.0,
        "tridiag.residual_max": max(residuals, default=0.0),
        "tridiag.orth_max": max(orths, default=0.0),
        "evolve.observable_series_s": time_by.get("evolve.observable_series", 0.0) * per,
        "evolve.observable_series_calls": tracer.series_calls * per,
        "evolve.observable_series_dense_share":
            tracer.dense_series / tracer.series_calls if tracer.series_calls else 0.0,
        "evolve.correlation_fN_s": time_by.get("evolve.correlation_fN", 0.0) * per,
        "evolve.projected_s": sum(time_by.get(f"evolve.{f}", 0.0) for f in
                                  ("projected_init", "projected_solution", "analytic_sum")) * per,
        "spectra.periodogram_s": time_by.get("spectra.periodogram", 0.0) * per,
        "spectra.find_peaks_s": time_by.get("spectra.find_peaks", 0.0) * per,
        "spectra.line_spectrum_s": time_by.get("spectra.line_spectrum", 0.0) * per,
        "ssb.localize_s": time_by.get("ssb.localize_ground_state", 0.0) * per,
        "ssb.localize_calls": count_by.get("ssb.localize_ground_state", 0) * per,
        "ssb.gap_scan_s": time_by.get("ssb.gamma0_gap_scan", 0.0) * per,
        "model.build_hamiltonian_calls": count_by.get("model.build_hamiltonian", 0) * per,
        "model.s": layer_time("model") * per,
        "spinspace.build_sector_calls": count_by.get("spinspace.build_sector", 0) * per,
        "spinspace.collective_operators_calls":
            count_by.get("spinspace.collective_operators", 0) * per,
        "spinspace.s": layer_time("spinspace") * per,
        "oracle.operators_calls": count_by.get("oracle.full_space_operators", 0) * per,
        "oracle.operators_s": time_by.get("oracle.full_space_operators", 0.0) * per,
        "oracle.ground_s": time_by.get("oracle.full_space_ground", 0.0) * per,
        "oracle.correlation_s": time_by.get("oracle.full_space_correlation", 0.0) * per,
        "oracle.max_dev": tracer.oracle_max_dev,
        "cli.self_s": time_by.get("cli.main", 0.0) * per,
    }
    installed = set(tracer.installed)
    absent = [name for name, _, _, needs in LAYER_METRICS
              if needs and not installed.intersection(needs)]
    for name in absent:
        values[name] = 0.0
    return values, absent
