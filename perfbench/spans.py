"""In-memory tracing for the traced benchmark run, and the per-layer metrics.

A span records one call across a layer boundary: its name, start and end
(`perf_counter_ns`), the span open when it started, and its thread.  Spans stay
in memory and are written out once, when the run ends.  Spans are recorded
only from the benchmark's own files: around every call a workload makes into a
layer's public function, and around the public names one layer calls in
another, which are wrapped in place for the length of a traced round.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import statistics
import threading
import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "attrs")

    def __init__(self, name: str, parent: "Span | None", tid: int):
        self.name, self.parent, self.tid, self.attrs = name, parent, tid, None


class Tracer:
    def __init__(self):
        self._main = threading.get_ident()
        self._stacks: dict[int, list[Span]] = {}
        self.spans: list[Span] = []

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            # the first span on a pool thread belongs to the call that started
            # the pool, which the main thread keeps open while it waits
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        span = Span(name, parent, tid)
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stacks[span.tid].pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, attrs=None):
        """fn inside a span; `name` may be a function of the call's arguments,
        `attrs(result, *args)` adds counts to the span after it closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(result, *args)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, name, attrs) in place while the block runs."""
        saved = []
        try:
            for owner, attr, name, attrs in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, attrs))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


class ImportTimer:
    """Meta-path finder that records a span around executing each cwlab module."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "cwlab" and not fullname.startswith("cwlab."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module, tracer = spec.loader.exec_module, self.tracer

        def timed(module):
            with tracer.span(f"import.{fullname}"):
                exec_module(module)

        spec.loader.exec_module = timed
        return spec


def _summatory_name(x, spec) -> str:
    return "summatory.fast_exact" if spec.exact else "summatory.fast_float"


def _g_sum_name(spec) -> str:
    return "cw_sums.exact" if spec.exact else "cw_sums.float"


_PER_N = "divisors.per_n"

# api name -> (span name, attrs)
SPAN_NAMES = {
    "summatory_fast": (_summatory_name, lambda r, x, spec: {"cutoff": r.cutoff}),
    "summatory_bruteforce_table": ("summatory.brute_table", lambda r, *a: {"entries": len(r)}),
    "restricted_sigma_table": ("divisors.sieve", lambda r, *a: {"entries": len(r)}),
    "tau_table": ("divisors.tau_table", None),
    "square_table": ("divisors.square_table", None),
    "divisor_sum_restricted": (_PER_N, None),
    "tau": (_PER_N, None),
    "sigma_alpha": (_PER_N, None),
    "tau_tilde_via_identity": (_PER_N, None),
    "integer_root": ("divisors.integer_root", None),
    "g_sum": (_g_sum_name, lambda r, spec: {"terms": spec.cutoff}),
    "block_g": ("cw_sums.block", None),
    "shifted_psi_block_sum": ("cw_sums.bw", None),
    "sqrt_restricted_model": ("asymptotics.model", None),
    "root_restricted_model": ("asymptotics.model", None),
    "residual_series": ("experiments.residual_series", None),
    "fit_loglog": ("experiments.fit", None),
    "cw_slope_test": ("experiments.slope_test", None),
}


def traced_api(tracer: Tracer, api):
    """A copy of the api namespace whose layer calls each record a span."""
    out = type(api)(**vars(api))
    for fn_name, (name, attrs) in SPAN_NAMES.items():
        setattr(out, fn_name, tracer.wrap(getattr(api, fn_name), name, attrs))
    return out


def cross_layer_targets(modules) -> list[tuple]:
    """The public names one layer calls in another (or, for the slope test, in
    itself), wrapped in place during a traced round."""
    e, c = modules.experiments, modules.cw_sums
    return [
        (e, "summatory_fast", *SPAN_NAMES["summatory_fast"]),
        (e, "g_sum", *SPAN_NAMES["g_sum"]),
        (e, "cw_series", "experiments.cw_series", None),
        (e, "fit_loglog", "experiments.fit", None),
        (modules.asymptotics.MainTermModel, "evaluate", "asymptotics.evaluate", None),
        (c, "psi", "bernoulli.psi", None),
        (c, "bernoulli_coefficients", "bernoulli.coefficients", None),
    ]


def self_ns(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the time its children on the same thread cover."""
    covered: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None and s.parent.tid == s.tid:
            covered[id(s.parent)] += s.end - s.start
    return {id(s): s.end - s.start - covered[id(s)] for s in spans}


def span_counts(spans: list[Span]) -> Counter:
    return Counter(s.name for s in spans)


# (name, unit, better); names as in BENCHMARK.json's per_layer list
PER_LAYER = (
    ("summatory.fast_exact.calls", "count", "lower"),
    ("summatory.fast_exact.self_s", "s", "lower"),
    ("summatory.fast_exact.cutoff_sum", "count", "lower"),
    ("summatory.fast_exact.ns_per_term", "ns", "lower"),
    ("summatory.fast_float.calls", "count", "lower"),
    ("summatory.fast_float.self_s", "s", "lower"),
    ("summatory.brute_table.calls", "count", "lower"),
    ("summatory.brute_table.self_s", "s", "lower"),
    ("summatory.brute_table.entries", "count", "lower"),
    ("summatory.brute_table.bytes_computed", "B", "lower"),
    ("divisors.sieve.self_s", "s", "lower"),
    ("divisors.sieve.entries", "count", "lower"),
    ("divisors.tau_table.self_s", "s", "lower"),
    ("divisors.per_n.calls", "count", "lower"),
    ("divisors.per_n.self_s", "s", "lower"),
    ("divisors.per_n.p50_us", "us", "lower"),
    ("divisors.per_n.max_ms", "ms", "lower"),
    ("divisors.integer_root.calls", "count", "lower"),
    ("divisors.integer_root.self_s", "s", "lower"),
    ("cw_sums.exact.calls", "count", "lower"),
    ("cw_sums.exact.self_s", "s", "lower"),
    ("cw_sums.exact.terms", "count", "lower"),
    ("cw_sums.exact.us_per_term", "us", "lower"),
    ("cw_sums.block.calls", "count", "lower"),
    ("cw_sums.block.self_s", "s", "lower"),
    ("cw_sums.float.calls", "count", "lower"),
    ("cw_sums.float.self_s", "s", "lower"),
    ("cw_sums.float.terms", "count", "lower"),
    ("cw_sums.bw.calls", "count", "lower"),
    ("cw_sums.bw.self_s", "s", "lower"),
    ("bernoulli.psi.calls", "count", "lower"),
    ("bernoulli.self_s", "s", "lower"),
    ("asymptotics.evaluate.calls", "count", "lower"),
    ("asymptotics.evaluate.self_s", "s", "lower"),
    ("asymptotics.model.self_s", "s", "lower"),
    ("asymptotics.import_s", "s", "lower"),
    ("experiments.residual_series.self_s", "s", "lower"),
    ("experiments.cw_series.self_s", "s", "lower"),
    ("experiments.fit.self_s", "s", "lower"),
    ("experiments.pool.overlap", "1", "higher"),
    ("trace.overhead_frac", "1", "lower"),
)

_POOL_CALLS = ("experiments.residual_series", "experiments.cw_series")


def round_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced round (setup and overhead excluded)."""
    own = self_ns(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def self_s(*names):
        return sum(own[id(s)] for n in names for s in by_name[n]) / 1e9

    def total(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    def per(numerator, denominator, scale):
        return numerator * scale / denominator if denominator else 0.0

    per_n_ns = sorted(s.end - s.start for s in by_name[_PER_N])
    pool = [s for n in _POOL_CALLS for s in by_name[n]]
    pool_ids = {id(s) for s in pool}
    pool_children_ns = sum(
        s.end - s.start for s in spans if s.parent is not None and id(s.parent) in pool_ids
    )
    pool_ns = sum(s.end - s.start for s in pool)
    bernoulli = [n for n in by_name if n.startswith("bernoulli.")]
    exact_terms = total("cw_sums.exact", "terms")
    cutoffs = total("summatory.fast_exact", "cutoff")
    return {
        "summatory.fast_exact.calls": calls("summatory.fast_exact"),
        "summatory.fast_exact.self_s": self_s("summatory.fast_exact"),
        "summatory.fast_exact.cutoff_sum": cutoffs,
        "summatory.fast_exact.ns_per_term": per(self_s("summatory.fast_exact"), cutoffs, 1e9),
        "summatory.fast_float.calls": calls("summatory.fast_float"),
        "summatory.fast_float.self_s": self_s("summatory.fast_float"),
        "summatory.brute_table.calls": calls("summatory.brute_table"),
        "summatory.brute_table.self_s": self_s("summatory.brute_table"),
        "summatory.brute_table.entries": total("summatory.brute_table", "entries"),
        # computed from array sizes: sieve chunks, the full table and its
        # cumulative sum, 8 bytes an entry each
        "summatory.brute_table.bytes_computed": 3 * 8 * total("summatory.brute_table", "entries"),
        "divisors.sieve.self_s": self_s("divisors.sieve"),
        "divisors.sieve.entries": total("divisors.sieve", "entries"),
        "divisors.tau_table.self_s": self_s("divisors.tau_table"),
        "divisors.per_n.calls": calls(_PER_N),
        "divisors.per_n.self_s": self_s(_PER_N),
        "divisors.per_n.p50_us": statistics.median(per_n_ns) / 1e3 if per_n_ns else 0.0,
        "divisors.per_n.max_ms": per_n_ns[-1] / 1e6 if per_n_ns else 0.0,
        "divisors.integer_root.calls": calls("divisors.integer_root"),
        "divisors.integer_root.self_s": self_s("divisors.integer_root"),
        "cw_sums.exact.calls": calls("cw_sums.exact"),
        "cw_sums.exact.self_s": self_s("cw_sums.exact"),
        "cw_sums.exact.terms": exact_terms,
        "cw_sums.exact.us_per_term": per(self_s("cw_sums.exact"), exact_terms, 1e6),
        "cw_sums.block.calls": calls("cw_sums.block"),
        "cw_sums.block.self_s": self_s("cw_sums.block"),
        "cw_sums.float.calls": calls("cw_sums.float"),
        "cw_sums.float.self_s": self_s("cw_sums.float"),
        "cw_sums.float.terms": total("cw_sums.float", "terms"),
        "cw_sums.bw.calls": calls("cw_sums.bw"),
        "cw_sums.bw.self_s": self_s("cw_sums.bw"),
        "bernoulli.psi.calls": calls("bernoulli.psi"),
        "bernoulli.self_s": self_s(*bernoulli),
        "asymptotics.evaluate.calls": calls("asymptotics.evaluate"),
        "asymptotics.evaluate.self_s": self_s("asymptotics.evaluate"),
        "experiments.residual_series.self_s": self_s("experiments.residual_series"),
        "experiments.cw_series.self_s": self_s("experiments.cw_series"),
        "experiments.fit.self_s": self_s("experiments.fit"),
        "experiments.pool.overlap": per(pool_children_ns, pool_ns, 1.0),
    }


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the set-up phase: module import and model building."""
    own = self_ns(spans)

    def self_s(name):
        return sum(own[id(s)] for s in spans if s.name == name) / 1e9

    return {
        "asymptotics.model.self_s": self_s("asymptotics.model"),
        "asymptotics.import_s": self_s("import.cwlab.asymptotics"),
    }


def to_records(spans: list[Span], round_index: int) -> list[dict]:
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        {
            "name": s.name,
            "start_ns": s.start,
            "end_ns": s.end,
            "parent": index.get(id(s.parent)) if s.parent is not None else None,
            "tid": s.tid,
            "round": round_index,
            **(s.attrs or {}),
        }
        for s in spans
    ]
