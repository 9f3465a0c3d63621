"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each survix module, plus the predict
callables and imputers the benchmark hands to the library. Every wrapped call
records one span: name, parent span, op number, start and end. Spans stay in
memory and are written out once, when the run ends. A span's self time is its
duration minus the durations of its direct children, so the self times of all
spans under one root add up to the root's duration exactly.

Nothing is wrapped until ``install`` is called, and ``uninstall`` restores
every patched attribute: an untraced run executes the library untouched.
"""

from __future__ import annotations

import csv
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter_ns

from survix import approximators, games, interactions, metrics, models, simulate

# (owner, attribute, span name, counter). A counter maps (args, result) to the
# count stored with the span: rows, masks or solver iterations.
_TARGETS = (
    (models, "fit_coxph", "models.fit_coxph", lambda a, r: r.iterations),
    (models.CoxModel, "linear_predictor", "models.cox_predict", None),
    (models.CoxModel, "survival_matrix", "models.cox_predict", None),
    (simulate, "simulate_dataset", "simulate.dataset", None),
    (games.SurvivalGame, "values_for_masks", "games.values", lambda a, r: len(a[1])),
    (games, "evaluate_all_coalitions", "games.table", None),
    (interactions, "explain", "interactions.explain", None),
    (interactions, "explain_instances", "interactions.explain", None),
    (interactions, "moebius_transform", "interactions.moebius", None),
    (interactions, "exact_ksii", "interactions.ksii", None),
    (interactions, "aggregate_ksii", "interactions.aggregate", None),
    (approximators, "approx_montecarlo", "approximators.mc", None),
    (approximators, "approx_permutation", "approximators.permutation", None),
    (approximators, "approx_regression", "approximators.regression", None),
    (metrics, "concordance_index", "metrics.concordance", None),
    (metrics, "integrated_brier", "metrics.integrated_brier", None),
    (metrics, "local_accuracy", "metrics.local_accuracy", None),
    (metrics, "approximation_error", "metrics.approximation_error", None),
)

LAYERS = ("models", "simulate", "games", "interactions", "approximators", "metrics")

# span fields
NAME, PARENT, OP, START, END, COUNT = range(6)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs=None, counter=None):
        rec = [name, self._stack[-1] if self._stack else -1, self.op, 0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec[END] = perf_counter_ns()
            self._stack.pop()
        if counter is not None:
            rec[COUNT] = counter(args, result)
        return result

    def wrap(self, fn, name, counter=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        traced.__wrapped__ = fn
        return traced

    # -- what the benchmark hands in ---------------------------------------

    def predict(self, fn, target):
        """Predict callable that records a span per call and counts cells."""
        return self.wrap(fn, f"models.predict.{target.value}",
                         lambda a, r: r.shape[0] * r.shape[1])

    def imputer(self, inner):
        return TracedImputer(inner, self)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        survix_modules = [m for n, m in sys.modules.items()
                          if n == "survix" or n.startswith("survix.")]
        for owner, attr, name, counter in _TARGETS:
            original = getattr(owner, attr)
            traced = self.wrap(original, name, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, traced)
                continue
            # a function imported by name into other modules is looked up
            # there, so every module-level reference is replaced
            for module in survix_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "op", "name", "start_ns", "end_ns", "count"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[PARENT], s[OP], s[NAME], s[START], s[END], s[COUNT]])


class TracedImputer:
    """Imputer proxy: each ``rows_for`` call is a ``games.imputation`` span
    counting the rows it builds."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.p = inner.p

    @property
    def n_reference(self) -> int:
        return self._inner.n_reference

    def reference_rows(self):
        return self._inner.reference_rows()

    def rows_for(self, x, mask):
        return self._tracer.call("games.imputation", self._inner.rows_for, (x, mask),
                                 counter=lambda a, r: r.shape[0])


def span_totals(spans):
    """Per span name: self ns, calls and summed counts; per root name: summed
    root duration and the self time of layer spans under those roots."""
    child_ns = [0] * len(spans)
    root_of = [0] * len(spans)
    for i, s in enumerate(spans):
        parent = s[PARENT]
        root_of[i] = i if parent < 0 else root_of[parent]
        if parent >= 0:
            child_ns[parent] += s[END] - s[START]
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(int)
    root_ns = defaultdict(int)
    layer_under_root = defaultdict(int)
    for i, s in enumerate(spans):
        own = s[END] - s[START] - child_ns[i]
        self_ns[s[NAME]] += own
        calls[s[NAME]] += 1
        counts[s[NAME]] += s[COUNT]
        root_name = spans[root_of[i]][NAME]
        if s[PARENT] < 0:
            root_ns[root_name] += s[END] - s[START]
        elif s[NAME].split(".", 1)[0] in LAYERS:
            layer_under_root[root_name] += own
    return self_ns, calls, counts, root_ns, layer_under_root


def inclusive_median_ms(spans) -> dict:
    """Median duration, children included, of the spans of each name."""
    durations = defaultdict(list)
    for s in spans:
        durations[s[NAME]].append(s[END] - s[START])
    return {name: median(v) / 1e6 for name, v in sorted(durations.items())}
