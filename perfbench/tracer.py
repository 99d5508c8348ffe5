"""Span and count tracing of rank2go, installed from outside the program.

The tracer replaces every binding a caller uses (module globals, class
attributes, the gocheck filter table and the click callback of `classify`)
with a wrapper that records a span (name, tag, start, end, parent, request)
and runs optional post hooks that feed the counters.  `uninstall` puts every
original object back.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import random
import statistics
import sys
import time
from collections import Counter

# Raw spans kept in memory and written out at the end of a traced run; the
# aggregates below are exact whatever this cap drops.
MAX_RAW_SPANS = 20000

SMALL_RREF_COLS = 16
LARGE_RREF_COLS = 64

# Distinct operands sampled per kind (rational, irrational) for the field
# costs, and timed repeats of each cost, of which the median is reported.
FIELD_OPERANDS = 24
FIELD_REPEATS = 5

# The catalog spaces whose candidates reach the direction loop.  `classify`
# settles a1a1.1 and a1a1.2 as the Lie-group case without sampling, so those
# two get no per-space direction-check cost.
CHECKED_SPACES = ("a2.1", "a2.2", "a1a1.3", "c2.1", "c2.2", "c2.3",
                  "g2.1", "g2.2", "g2.3", "g2.4", "berger", "cp3")


class Tracer:
    """Aggregates spans by (name, tag) and keeps named counters."""

    def __init__(self):
        self.stack: list[list] = []
        self.stats: dict[tuple[str, object], list] = {}
        self.counts: Counter = Counter()
        self.batch_len: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.request = None
        self._next_id = 0

    def enter(self, name: str, tag) -> list:
        self._next_id += 1
        parent = self.stack[-1][3] if self.stack else None
        frame = [name, tag, 0.0, self._next_id, parent, 0.0]
        self.stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, tag, start, span_id, parent, child = frame
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][5] += dur
        entry = self.stats.get((name, tag))
        if entry is None:
            entry = self.stats[(name, tag)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        if len(self.spans) < MAX_RAW_SPANS:
            self.spans.append((span_id, name, tag, start, end, parent, self.request))
        else:
            self.dropped_spans += 1

    # -- aggregates -------------------------------------------------------

    def calls(self, name: str, tag=None) -> int:
        return sum(v[0] for (n, t), v in self.stats.items()
                   if n == name and (tag is None or t == tag))

    def total_s(self, name: str, tag=None) -> float:
        return sum(v[1] for (n, t), v in self.stats.items()
                   if n == name and (tag is None or t == tag))

    def self_s(self, name: str) -> float:
        return sum(v[2] for (n, _t), v in self.stats.items() if n == name)

    def mean_s(self, name: str, keep) -> float | None:
        """Mean duration of the spans whose tag `keep` accepts; None if none ran."""
        calls = total = 0
        for (n, t), v in self.stats.items():
            if n == name and keep(t):
                calls += v[0]
                total += v[1]
        return total / calls if calls else None


def _span_wrapper(tracer: Tracer, fn, name: str, tag_fn=None, post=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, tag_fn(args) if tag_fn else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if post is not None:
            post(tracer, args, result)
        return result
    return wrapper


# -- tags and post hooks ------------------------------------------------------

def _space_tag(args):
    return args[0].space_id


def _first_arg_tag(args):
    return args[0]


def _ncols_tag(args):
    try:
        return len(args[0][0])
    except (IndexError, TypeError):
        return 0


def _post_least_norm(tracer, args, result):
    sol, rank_map, _rank_aug = result
    if sol is not None and rank_map < args[0].dim_h:
        tracer.counts["gocheck.least_norm_solves"] += 1


def _post_batch(tracer, args, result):
    tracer.batch_len[args[0].space_id] = len(result)


def _post_filter_results(tracer, args, result):
    tracer.counts["gocheck.metrics_filter_checked"] += 1
    if not all(ok for _name, ok in result):
        tracer.counts["gocheck.metrics_filter_rejected"] += 1


def _post_filter(name):
    def post(tracer, args, result):
        if not result:
            tracer.counts[f"gocheck.filter_hits.{name}"] += 1
    return post


def _post_search(tracer, args, verdict):
    """Census of one go_sample_check / find_witness call."""
    counts = tracer.counts
    counts["gocheck.candidates"] += 1
    counts[f"gocheck.status.{verdict.status}"] += 1
    if verdict.status == "filtered_out":
        return
    counts["gocheck.searched"] += 1
    if verdict.witness is not None:
        counts["gocheck.refuted"] += 1
    structured = min(verdict.samples_run, tracer.batch_len.get(args[0].space_id, 0))
    counts["gocheck.directions.structured"] += structured
    counts["gocheck.directions.random"] += verdict.samples_run - structured


# -- installation -------------------------------------------------------------

# (module, attribute path, span name, tag function, post hook).  A dotted
# path names a method of a class in that module.
SPAN_SPECS = (
    ("liealg", "rref", "liealg.rref", _ncols_tag, None),
    ("liealg", "solve_columns", "liealg.solve_columns", None, None),
    ("liealg", "kernel_basis", "liealg.kernel_basis", None, None),
    ("liealg", "Subspace.contains", "liealg.Subspace.contains", None, None),
    ("liealg", "Subspace.coords", "liealg.Subspace.coords", None, None),
    ("liealg", "LieAlgebra.bracket", "liealg.LieAlgebra.bracket", None, None),
    ("chevalley", "build_compact_form", "chevalley.build_compact_form",
     _first_arg_tag, None),
    ("embed", "catalog_space", "embed.catalog_space", _first_arg_tag, None),
    ("isotypic", "isotypic_decompose", "isotypic.isotypic_decompose",
     _space_tag, None),
    ("gocheck", "solve_compensator", "gocheck.solve_compensator",
     _space_tag, _post_least_norm),
    ("gocheck", "MetricEndomorphism.apply", "gocheck.MetricEndomorphism.apply",
     None, None),
    ("gocheck", "_filter_results", "gocheck.filters", None, _post_filter_results),
    ("gocheck", "structured_directions", "gocheck.structured_directions",
     _space_tag, _post_batch),
    ("gocheck", "go_sample_check", "gocheck.go_sample_check", _space_tag,
     _post_search),
    ("gocheck", "find_witness", "gocheck.find_witness", _space_tag, _post_search),
    ("gocheck", "verify_witness", "gocheck.verify_witness", _space_tag, None),
    ("gocheck", "standard_metric", "gocheck.metric_build", None, None),
    ("gocheck", "metric_from_blocks", "gocheck.metric_build", None, None),
    ("gocheck", "fibration_metric", "gocheck.metric_build", None, None),
    ("gocheck", "explicit_metric", "gocheck.metric_build", None, None),
    ("cli", "metric_from_spec", "cli.metric_from_spec", None, None),
)


class Installation:
    """The replaced bindings of one install, restorable in reverse order."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.replaced: list[tuple[object, str, object, str]] = []

    def _set(self, owner, key, new, kind):
        if kind == "dict":
            old = owner[key]
            owner[key] = new
        else:
            old = getattr(owner, key)
            setattr(owner, key, new)
        self.replaced.append((owner, key, old, kind))

    def uninstall(self) -> None:
        while self.replaced:
            owner, key, old, kind = self.replaced.pop()
            if kind == "dict":
                owner[key] = old
            else:
                setattr(owner, key, old)


def rank2go_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rank2go" or name.startswith("rank2go."))]


def install(tracer: Tracer) -> Installation:
    """Wrap every binding of the traced functions in all rank2go modules."""
    import rank2go.cli as cli
    import rank2go.field as field
    import rank2go.gocheck as gocheck

    inst = Installation(tracer)
    modules = rank2go_modules()
    for mod_name, path, name, tag_fn, post in SPAN_SPECS:
        module = sys.modules[f"rank2go.{mod_name}"]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            inst._set(cls, meth, _span_wrapper(tracer, original, name, tag_fn, post),
                      "attr")
            continue
        original = getattr(module, path)
        wrapper = _span_wrapper(tracer, original, name, tag_fn, post)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    inst._set(mod, key, wrapper, "attr")
    for fname, fn in list(gocheck._FILTERS.items()):
        inst._set(gocheck._FILTERS, fname,
                  _span_wrapper(tracer, fn, f"gocheck.filter.{fname}", None,
                                _post_filter(fname)),
                  "dict")
    inst._set(cli.classify, "callback",
              _span_wrapper(tracer, cli.classify.callback, "cli.classify"), "attr")

    scalar_init = field.Scalar.__init__
    counts = tracer.counts

    @functools.wraps(scalar_init)
    def counted_init(self, *args, **kwargs):
        counts["field.scalar_new"] += 1
        scalar_init(self, *args, **kwargs)

    inst._set(field.Scalar, "__init__", counted_init, "attr")
    return inst


# -- field micro-costs ----------------------------------------------------------

def field_operands(values, seed: int):
    """Split distinct nonzero scalars into rational and irrational samples."""
    seen = {}
    for v in values:
        if v:
            seen[(v.nums, v.den)] = v
    ordered = [seen[k] for k in sorted(seen)]
    rational = [v for v in ordered if v.is_rational]
    irrational = [v for v in ordered if not v.is_rational]
    rng = random.Random(seed)
    pick = lambda xs: rng.sample(xs, min(FIELD_OPERANDS, len(xs)))
    return pick(rational), pick(irrational)


def _ns_per_op(fn, operands) -> float:
    samples = []
    for _ in range(FIELD_REPEATS):
        start = time.perf_counter_ns()
        for a, b in operands:
            fn(a, b)
        samples.append((time.perf_counter_ns() - start) / len(operands))
    return statistics.median(samples)


def field_costs(rational, irrational) -> dict[str, float]:
    """Median ns per Scalar mul, add and inverse on sampled operand pairs.
    The `irr` pairs have both operands irrational, so mul takes the general
    eight-by-eight product rather than the rational fast path."""
    out = {}
    for kind, xs in (("rat", rational), ("irr", irrational)):
        if not xs:
            out.update({f"field.{op}_{kind}_ns": 0 for op in ("mul", "add", "inv")})
            continue
        pairs = [(a, b) for a in xs for b in xs]
        out[f"field.mul_{kind}_ns"] = _ns_per_op(lambda a, b: a * b, pairs)
        out[f"field.add_{kind}_ns"] = _ns_per_op(lambda a, b: a + b, pairs)
        out[f"field.inv_{kind}_ns"] = _ns_per_op(
            lambda a, b: a.inverse(), pairs[: len(xs) * 4])
    return out


# -- per-layer metrics ----------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric.  The result line must name each of them on
    every workload, so one whose layer never ran reads 0, and so does a
    ratio whose base is 0; its `.calls` count or `.base` shows that."""
    t = tracer
    c = t.counts
    m = {}

    def put(name, value, happened):
        m[name] = value if happened else 0

    def put_total(name, span, tag=None):
        put(name, t.total_s(span, tag), t.calls(span, tag))

    def put_mean(name, span, keep, scale):
        mean = t.mean_s(span, keep)
        m[name] = 0 if mean is None else scale * mean

    for name in ("gocheck.solve_compensator", "gocheck.MetricEndomorphism.apply",
                 "liealg.Subspace.contains", "liealg.Subspace.coords",
                 "liealg.LieAlgebra.bracket"):
        put(f"{name}.calls", t.calls(name), t.calls(name))
        put(f"{name}.self_s", t.self_s(name), t.calls(name))
    for sid in CHECKED_SPACES:
        put_mean(f"gocheck.solve_compensator_us.{sid}", "gocheck.solve_compensator",
                 lambda tag, sid=sid: tag == sid, 1e6)
    put("liealg.solve_columns.self_s", t.self_s("liealg.solve_columns"),
        t.calls("liealg.solve_columns"))
    put_mean("liealg.rref_small_us", "liealg.rref", lambda n: n <= SMALL_RREF_COLS, 1e6)
    put_mean("liealg.rref_large_ms", "liealg.rref", lambda n: n >= LARGE_RREF_COLS, 1e3)
    put_total("isotypic.isotypic_decompose_s", "isotypic.isotypic_decompose")
    put_total("isotypic.isotypic_decompose_s.g2.4", "isotypic.isotypic_decompose", "g2.4")
    put_total("embed.catalog_space_s", "embed.catalog_space")
    put_total("chevalley.build_compact_form_s", "chevalley.build_compact_form")
    put_total("chevalley.build_compact_form_s.g2", "chevalley.build_compact_form", "g2")
    put_total("gocheck.filters_s", "gocheck.filters")
    put_total("gocheck.metric_build_s", "gocheck.metric_build")
    put_total("gocheck.structured_directions_s", "gocheck.structured_directions")
    put_total("gocheck.find_witness_s", "gocheck.find_witness")
    put_total("gocheck.verify_witness_s", "gocheck.verify_witness")
    put_total("cli.metric_from_spec_s", "cli.metric_from_spec")
    put("cli.classify.self_s", t.self_s("cli.classify"), t.calls("cli.classify"))
    for ratio, hits, base in (
            ("gocheck.filter_reject_ratio", "gocheck.metrics_filter_rejected",
             "gocheck.metrics_filter_checked"),
            ("gocheck.witness_hit_ratio", "gocheck.refuted", "gocheck.searched")):
        put(ratio, c[hits] / c[base] if c[base] else 0, c[base])
        m[f"{ratio}.base"] = c[base]
    for count in ("gocheck.least_norm_solves", "gocheck.directions.structured",
                  "gocheck.directions.random", "field.scalar_new"):
        put(count, c[count], c[count])
    return m


def census(tracer: Tracer) -> dict:
    """Counts that must repeat exactly for a fixed workload and seed."""
    c = tracer.counts
    spaces = sorted({tag for (name, tag) in tracer.stats
                     if name == "embed.catalog_space"})
    return {
        "spaces": spaces,
        "candidates": c["gocheck.candidates"],
        "statuses": {k.split(".", 2)[2]: v for k, v in sorted(c.items())
                     if k.startswith("gocheck.status.")},
        "directions": {"structured": c["gocheck.directions.structured"],
                       "random": c["gocheck.directions.random"]},
        "filter_hits": {k.split(".", 2)[2]: v for k, v in sorted(c.items())
                        if k.startswith("gocheck.filter_hits.")},
        "metrics_filter_rejected": c["gocheck.metrics_filter_rejected"],
        "least_norm_solves": c["gocheck.least_norm_solves"],
        "field.scalar_new": c["field.scalar_new"],
    }
