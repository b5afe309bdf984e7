"""In-memory span tracer for the traced benchmark run.

``install`` wraps every public function of every qbp module, in every qbp
namespace that binds it (modules use ``from .x import f``, so patching the
defining module alone would miss most calls), plus the CLI's per-point
workers and ``numpy.linalg.eigh``/``eigvalsh``/``svd``.  Each call records a
span: name, start, end, parent span, and a trace id that is new for each
top-level call, i.e. for each CLI command.  Spans stay in columnar arrays
until ``save`` writes them when the run ends.

Bookkeeping that is not the program's work, such as hashing an eigensolve's
input to spot repeats, runs inside a ``trace.bookkeeping`` child span, so it
is excluded from the self time of the span that triggered it.

Derived metrics: ``operators.linalg.repeat_frac`` is the share of
eigh/eigvalsh calls whose input bytes were already decomposed in the run
(one key space for both); ``real_input_frac`` the share whose input has no
nonzero imaginary part; ``full_dim_solves`` the eigh/eigvalsh/svd calls at
the running command's full model dimension; ``flops_computed`` the sum of
d**3 over those calls.  ``DenseOperator.copied_mb_computed`` sums the bytes
of every matrix a ``DenseOperator`` copies on construction.
``models.thermal_state.distinct_ratio`` is distinct models over calls, and
``markov.entropy.repeat_frac`` the share of entropy calls on a state already
seen.  ``cli.point.imbalance`` is the largest, over commands, of the slowest
sweep point's time over the mean point time.
"""

from __future__ import annotations

import functools
import hashlib
import re
import sys
import types
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("operators", "models", "propagation", "markov", "hastings",
          "diagnostics", "inequalities", "cli")
LINALG = ("eigh", "eigvalsh", "svd")
BOOKKEEPING = "trace.bookkeeping"
POINT = "cli.point"
POINT_WORKER = re.compile(r"^_\w+_point$")

#: Functions whose calls and self time are reported, per layer.
TIMED = {
    "operators.linalg": LINALG,
    "operators": ("embed", "partial_trace", "conditional_expectation", "matrix_exp_h",
                  "matrix_log_pd", "trace_norm", "op_norm"),
    "models": ("thermal_state", "partition_function", "exact_reduced_density",
               "edge_hamiltonian"),
    "propagation": ("run_sliding_window", "circle_product", "window_error_sweep"),
    "diagnostics": ("single_step_experiment", "thermal_potential", "cumulants",
                    "fit_thermal_bound"),
    "markov": ("von_neumann_entropy", "cmi", "deficiency_rows"),
    "hastings": ("hastings_operator", "conjugation_residual"),
    "cli": ("build_model", "write_csv"),
}

#: Every per-layer metric ``summarize`` reports, with its unit.
PER_LAYER = (
    [(f"{prefix}.{fn}.{stat}", unit)
     for prefix, fns in TIMED.items() for fn in fns
     for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("operators.linalg.full_dim_solves", "count"),
        ("operators.linalg.repeat_frac", "fraction"),
        ("operators.linalg.flops_computed", "flop"),
        ("operators.linalg.real_input_frac", "fraction"),
        ("operators.DenseOperator.constructed", "count"),
        ("operators.DenseOperator.copied_mb_computed", "MB"),
        ("models.thermal_state.distinct_ratio", "fraction"),
        ("markov.entropy.repeat_frac", "fraction"),
        ("inequalities.run_suite.self_s", "s"),
        ("inequalities.checks.calls", "count"),
        ("inequalities.checks.self_s", "s"),
        ("cli.point.calls", "count"),
        ("cli.point.busy_s", "s"),
        ("cli.point.max_s", "s"),
        ("cli.point.imbalance", "ratio"),
        ("cli.write_csv.bytes", "B"),
    ]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
)


def _digest(mat: np.ndarray) -> tuple:
    mat = np.ascontiguousarray(mat)
    return mat.shape, mat.dtype.str, hashlib.blake2b(memoryview(mat).cast("B")).digest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        self.failed = array("b")
        self._stack = [-1]
        self._traces = 0
        self.counters: Counter = Counter()
        self._seen_solves: set = set()
        self._seen_entropy: set = set()
        self._models: dict[int, object] = {}
        #: Dimension of the running command's model; set by the caller.
        self.full_dim: int | None = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        parent = self._stack[-1]
        if parent < 0:
            self._traces += 1
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(parent)
        self.trace.append(self._traces)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = perf_counter()
        self.failed[idx] = failed
        self._stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recording a span named ``name``; the optional hooks see the
        call's arguments (``after`` also its result) in a bookkeeping span."""
        nid, bk = self._id(name), self._id(BOOKKEEPING)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                if before is not None:
                    inner = self._open(bk)
                    before(*args, **kwargs)
                    self._close(inner)
                result = fn(*args, **kwargs)
                if after is not None:
                    inner = self._open(bk)
                    after(result, *args, **kwargs)
                    self._close(inner)
            except BaseException:
                self._close(idx, failed=True)
                raise
            self._close(idx)
            return result

        return traced

    # -- counting hooks ------------------------------------------------------

    def _decomposition(self, mat, *args, **kwargs) -> None:
        d = mat.shape[-1]
        self.counters["flops"] += d**3
        self.counters["full_dim"] += d == self.full_dim

    def _eigensolve(self, mat, *args, **kwargs) -> None:
        self._decomposition(mat)
        key = _digest(mat)
        self.counters["solves"] += 1
        self.counters["solve_repeats"] += key in self._seen_solves
        self._seen_solves.add(key)
        self.counters["real_inputs"] += not np.iscomplexobj(mat) or not mat.imag.any()

    def _entropy(self, rho, *args, **kwargs) -> None:
        key = _digest(rho.mat)
        self.counters["entropies"] += 1
        self.counters["entropy_repeats"] += key in self._seen_entropy
        self._seen_entropy.add(key)

    def _thermal_state(self, model, *args, **kwargs) -> None:
        self._models[id(model)] = model  # holding it keeps the id unique

    def _csv_written(self, result, path, *args, **kwargs) -> None:
        self.counters["csv_bytes"] += Path(path).stat().st_size

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch qbp and numpy.linalg in place; returns a function that undoes it."""
        import qbp.cli  # noqa: F401  (loads every qbp module)
        from qbp.operators import DenseOperator

        hooks = {
            "markov.von_neumann_entropy": (self._entropy, None),
            "models.thermal_state": (self._thermal_state, None),
            "cli.write_csv": (None, self._csv_written),
        }
        wrapped: dict[int, object] = {}
        patches = []
        spaces = [m for n, m in sys.modules.items() if n == "qbp" or n.startswith("qbp.")]
        for space in spaces:
            for attr, value in list(vars(space).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                module = value.__module__ or ""
                if not module.startswith("qbp"):
                    continue
                if attr.startswith("_"):
                    if not (module == "qbp.cli" and POINT_WORKER.match(attr)):
                        continue
                    name = POINT
                else:
                    name = f"{module.rsplit('.', 1)[-1]}.{value.__name__}"
                if id(value) not in wrapped:
                    wrapped[id(value)] = self.wrap(value, name, *hooks.get(name, (None, None)))
                patches.append((space, attr, value, wrapped[id(value)]))

        for fn in LINALG:
            original = getattr(np.linalg, fn)
            hook = self._decomposition if fn == "svd" else self._eigensolve
            patches.append((np.linalg, fn, original,
                            self.wrap(original, f"operators.linalg.{fn}", hook)))

        post_init = DenseOperator.__post_init__

        def counted_post_init(op):
            post_init(op)
            self.counters["constructed"] += 1
            self.counters["copied_bytes"] += op.mat.nbytes

        patches.append((DenseOperator, "__post_init__", post_init, counted_post_init))

        for owner, attr, _, replacement in patches:
            setattr(owner, attr, replacement)

        def uninstall():
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

        return uninstall

    # -- results -------------------------------------------------------------

    def save(self, path: Path) -> None:
        np.savez(
            path, names=np.array(self.names), name=np.asarray(self.name),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), trace=np.asarray(self.trace),
            failed=np.asarray(self.failed),
        )

    def summarize(self) -> dict[str, float]:
        """Every metric in ``PER_LAYER``, computed from the spans and counters."""
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        self_s = np.bincount(name, weights=dur - child, minlength=size)
        failed = np.bincount(name, weights=np.asarray(self.failed), minlength=size)

        def stat(span: str, table) -> float:
            nid = self._ids.get(span)
            return 0.0 if nid is None else float(table[nid])

        def layer_sum(table, layer: str, prefix: str = "") -> float:
            return float(sum(table[i] for i, n in enumerate(self.names)
                             if n.split(".", 1)[0] == layer and n.split(".", 1)[1].startswith(prefix)))

        c = self.counters
        out = {}
        for prefix, fns in TIMED.items():
            for fn in fns:
                out[f"{prefix}.{fn}.calls"] = stat(f"{prefix}.{fn}", calls)
                out[f"{prefix}.{fn}.self_s"] = stat(f"{prefix}.{fn}", self_s)
        is_point = name == self._ids.get(POINT, -1)
        points = dur[is_point]
        # Points of one command (one trace) share a pool; the slowest sets its time.
        point_traces = np.asarray(self.trace)[is_point]
        imbalance = max((_ratio(points[point_traces == t].max(), points[point_traces == t].mean())
                         for t in np.unique(point_traces)), default=0.0)
        thermal_calls = stat("models.thermal_state", calls)
        out.update({
            "operators.linalg.full_dim_solves": c["full_dim"],
            "operators.linalg.repeat_frac": _ratio(c["solve_repeats"], c["solves"]),
            "operators.linalg.flops_computed": c["flops"],
            "operators.linalg.real_input_frac": _ratio(c["real_inputs"], c["solves"]),
            "operators.DenseOperator.constructed": c["constructed"],
            "operators.DenseOperator.copied_mb_computed": c["copied_bytes"] / 1e6,
            "models.thermal_state.distinct_ratio": _ratio(len(self._models), thermal_calls),
            "markov.entropy.repeat_frac": _ratio(c["entropy_repeats"], c["entropies"]),
            "inequalities.run_suite.self_s": stat("inequalities.run_suite", self_s),
            "inequalities.checks.calls": layer_sum(calls, "inequalities", "check_"),
            "inequalities.checks.self_s": layer_sum(self_s, "inequalities", "check_"),
            "cli.point.calls": float(points.size),
            "cli.point.busy_s": float(points.sum()),
            "cli.point.max_s": float(points.max(initial=0.0)),
            "cli.point.imbalance": imbalance,
            "cli.write_csv.bytes": c["csv_bytes"],
        })
        for layer in LAYERS:
            out[f"{layer}.errors"] = layer_sum(failed, layer)
        return {k: float(v) for k, v in out.items()}
