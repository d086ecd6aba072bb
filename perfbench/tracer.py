"""Per-layer tracing of relpoly from outside, by wrapping public functions.

install() rebinds each traced function in every relpoly namespace that binds
it (for example polyhedra.satisfies, modaction._satisfies and
relpoly.satisfies) to a wrapper that records into a Tracer; uninstall()
restores the originals.
No file of relpoly changes, and an untraced run never imports this module.

Three kinds of wrapper:
  span     a layer-boundary call, kept in memory as (id, name, start, end,
           parent span, job) and written out at the end;
  timed    a hot call: counted and timed, but not kept one by one;
  counter  a per-entry call: counted only.
Span and timed calls sit on one stack, so a layer's self time is its time
minus the time of the traced calls made inside it.  Wrappers only record
while a job runs, so the benchmark's own checks are not counted.
"""

import time
from collections import Counter, defaultdict

# (module, attribute, metric name, kind).  Attributes "Class.method" patch
# the class.
TRACED = [
    ("cli", "main", "cli.main", "span"),
    ("fileio", "parse_relations", "fileio.parse", "span"),
    ("fileio", "parse_pattern", "fileio.parse", "span"),
    ("fileio", "load_json", "fileio.parse", "span"),
    ("fileio", "relations_from_json", "fileio.parse", "span"),
    ("fileio", "pattern_from_json", "fileio.parse", "span"),
    ("fileio", "lincomb_from_json", "fileio.parse", "span"),
    ("fileio", "dump_relations", "fileio.dump", "span"),
    ("fileio", "dump_pattern", "fileio.dump", "span"),
    ("fileio", "relations_to_json", "fileio.dump", "span"),
    ("fileio", "pattern_to_json", "fileio.dump", "span"),
    ("fileio", "lincomb_to_json", "fileio.dump", "span"),
    ("relations", "check_admissible", "relations.check_admissible", "span"),
    ("relations", "is_reduced", "relations.is_reduced", "span"),
    ("tiling", "compute_tiling", "tiling.compute_tiling", "span"),
    ("tiling", "kernel", "tiling.kernel", "span"),
    ("polyhedra", "face_dim_oracle", "polyhedra.face_dim_oracle", "span"),
    ("polyhedra", "enumerate_integral", "polyhedra.enumerate_integral", "span"),
    ("polyhedra", "enumerate_integral_weight", "polyhedra.enumerate_integral_weight", "span"),
    ("modaction", "check_commutators", "modaction.check_commutators", "span"),
    ("linalg", "rref", "linalg.rref", "span"),
    ("modaction", "act_in_basis", "modaction.act_in_basis", "timed"),
    ("modaction", "act_raise", "modaction.act", "timed"),
    ("modaction", "act_lower", "modaction.act", "timed"),
    ("modaction", "act_cartan", "modaction.act", "timed"),
    ("patterns", "satisfies", "patterns.satisfies", "timed"),
    ("patterns", "Entry.diff", "patterns.diff", "counter"),
    ("patterns", "Pattern.with_entry", "patterns.with_entry", "counter"),
]

ENUMERATORS = ("polyhedra.enumerate_integral", "polyhedra.enumerate_integral_weight")


class Frame:
    __slots__ = ("name", "start", "child", "span_id")

    def __init__(self, name, start, span_id):
        self.name, self.start, self.child, self.span_id = name, start, 0.0, span_id


class Tracer:
    def __init__(self, relations_module):
        self.active = False
        self.job = None
        self.stack = []
        self.span_ids = []  # ids of the open spans, innermost last
        self.spans = []
        self.next_id = 0
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.enum_depth = 0
        self._caches = [
            getattr(relations_module, name) for name in sorted(vars(relations_module))
            if hasattr(getattr(relations_module, name), "cache_info")
        ]
        self.restore = []

    # -- jobs ---------------------------------------------------------------
    def run_job(self, label, fn):
        """Run one job as a root span, counting cache lookups made inside it."""
        before = [c.cache_info() for c in self._caches]
        self.active, self.job = True, label
        frame = self.push("job", True)
        try:
            return fn()
        finally:
            self.pop(frame, True)
            self.active = False
            for cache, old in zip(self._caches, before):
                info = cache.cache_info()
                self.counts["cache_hits"] += info.hits - old.hits
                self.counts["cache_misses"] += info.misses - old.misses

    def cache_entries(self):
        return sum(c.cache_info().currsize for c in self._caches)

    # -- stack --------------------------------------------------------------
    def push(self, name, span):
        span_id = None
        if span:
            span_id = self.next_id
            self.next_id += 1
            self.span_ids.append(span_id)
        frame = Frame(name, time.perf_counter(), span_id)
        self.stack.append(frame)
        return frame

    def pop(self, frame, span):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame.start
        self.calls[frame.name] += 1
        self.total[frame.name] += dur
        self.self_time[frame.name] += dur - frame.child
        if self.stack:
            self.stack[-1].child += dur
        if span:
            self.span_ids.pop()
            parent = self.span_ids[-1] if self.span_ids else None
            self.spans.append((frame.span_id, frame.name, frame.start, end, parent, self.job))

    def parent_name(self):
        return self.stack[-1].name if self.stack else None


def _wrap(tracer, name, kind, fn, hook):
    span = kind == "span"
    enum = name in ENUMERATORS

    if kind == "counter":
        def counter(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
                if tracer.enum_depth and name == "patterns.diff":
                    tracer.counts["enum_diff"] += 1
            return fn(*args, **kwargs)
        return counter

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        parent = tracer.parent_name()
        tracer.enum_depth += enum
        frame = tracer.push(name, span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if name == "cli.main":
                tracer.counts["cli_uncaught"] += 1
            raise
        finally:
            tracer.pop(frame, span)
            tracer.enum_depth -= enum
        if hook is not None:
            hook(tracer.counts, args, kwargs, result, parent)
        return result

    return wrapper


def _rref_hook(counts, args, kwargs, result, parent):
    rows, ncols = args
    counts["rref_rows"] += len(rows)
    counts["rref_cells"] += len(rows) * ncols
    counts["rref_rank"] += len(result[1])


def _points_hook(name):
    def hook(counts, args, kwargs, result, parent):
        counts[name + ".points"] += len(result.points)
    return hook


def _text_in_hook(counts, args, kwargs, result, parent):
    counts["bytes_in"] += len(args[0])


def _text_out_hook(counts, args, kwargs, result, parent):
    counts["bytes_out"] += len(result)


def _act_hook(counts, args, kwargs, result, parent):
    if parent == "modaction.act_in_basis":
        counts["act_terms"] += len(result.terms)


def _act_in_basis_hook(counts, args, kwargs, result, parent):
    v = args[3] if len(args) > 3 else kwargs["v"]
    counts["input_terms"] += len(v.terms)


def _satisfies_hook(counts, args, kwargs, result, parent):
    if parent == "modaction.act_in_basis" and result:
        counts["in_basis"] += 1


def _cli_hook(counts, args, kwargs, result, parent):
    counts["cli_exit_nonzero"] += result != 0


HOOKS = {
    "linalg.rref": _rref_hook,
    "tiling.compute_tiling": lambda c, a, k, r, p: c.update(tiles=len(r.tiles)),
    "polyhedra.enumerate_integral": _points_hook("polyhedra.enumerate_integral"),
    "polyhedra.enumerate_integral_weight": _points_hook("polyhedra.enumerate_integral_weight"),
    "modaction.act": _act_hook,
    "modaction.act_in_basis": _act_in_basis_hook,
    "patterns.satisfies": _satisfies_hook,
    "cli.main": _cli_hook,
}
TEXT_IN = {"parse_relations", "parse_pattern", "load_json"}
TEXT_OUT = {"dump_relations", "dump_pattern"}


def install(tracer, pkg, modules):
    """Wrap every traced function of the imported relpoly package.

    modules: every loaded relpoly module (the package included), each of
    whose namespaces is searched for bindings of the traced functions.
    """
    for mod_name, attr, name, kind in TRACED:
        owner = getattr(pkg, mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner, attr = getattr(owner, cls_name), meth
        original = getattr(owner, attr)
        hook = HOOKS.get(name)
        if attr in TEXT_IN:
            hook = _text_in_hook
        elif attr in TEXT_OUT:
            hook = _text_out_hook
        wrapped = _wrap(tracer, name, kind, original, hook)
        targets = [owner] if isinstance(owner, type) else modules
        for ns in targets:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
                    tracer.restore.append((ns, key, original))


def uninstall(tracer):
    for ns, key, original in reversed(tracer.restore):
        setattr(ns, key, original)
    tracer.restore.clear()


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, jobs):
    """Per-layer metrics over the traced jobs; counts and times are per job."""
    c, calls, own = tracer.counts, tracer.calls, tracer.self_time

    def per_job(x):
        return x / jobs

    points = sum(c[name + ".points"] for name in ENUMERATORS)
    metrics = {
        "trace.job_s": (per_job(tracer.total["job"]), "s/job"),
        "linalg.rref.calls": (per_job(calls["linalg.rref"]), "count/job"),
        "linalg.rref.self_s": (per_job(own["linalg.rref"]), "s/job"),
        "linalg.rref.cells": (per_job(c["rref_cells"]), "count/job"),
        "linalg.rref.rank_ratio": (_ratio(c["rref_rank"], c["rref_rows"]), "ratio"),
        "polyhedra.face_dim_oracle.calls": (per_job(calls["polyhedra.face_dim_oracle"]), "count/job"),
        "polyhedra.face_dim_oracle.self_s": (per_job(own["polyhedra.face_dim_oracle"]), "s/job"),
        "tiling.compute_tiling.self_s": (per_job(own["tiling.compute_tiling"]), "s/job"),
        "tiling.kernel.self_s": (per_job(own["tiling.kernel"]), "s/job"),
        "tiling.tiles": (per_job(c["tiles"]), "count/job"),
    }
    for name in ENUMERATORS:
        metrics[name + ".calls"] = (per_job(calls[name]), "count/job")
        metrics[name + ".self_s"] = (per_job(own[name]), "s/job")
        metrics[name + ".points"] = (per_job(c[name + ".points"]), "count/job")
    metrics.update({
        "patterns.with_entry.calls": (per_job(calls["patterns.with_entry"]), "count/job"),
        "patterns.diff.calls": (per_job(calls["patterns.diff"]), "count/job"),
        "polyhedra.diff_per_point": (_ratio(c["enum_diff"], points), "count/point"),
        "patterns.satisfies.calls": (per_job(calls["patterns.satisfies"]), "count/job"),
        "patterns.satisfies.self_s": (per_job(own["patterns.satisfies"]), "s/job"),
        "modaction.check_commutators.self_s": (per_job(own["modaction.check_commutators"]), "s/job"),
        "modaction.act_in_basis.calls": (per_job(calls["modaction.act_in_basis"]), "count/job"),
        "modaction.act_in_basis.self_s": (per_job(own["modaction.act_in_basis"]), "s/job"),
        "modaction.act.calls": (per_job(calls["modaction.act"]), "count/job"),
        "modaction.act.self_s": (per_job(own["modaction.act"]), "s/job"),
        "modaction.kept_ratio": (_ratio(c["in_basis"] - c["input_terms"], c["act_terms"]), "ratio"),
        "relations.check_admissible.calls": (per_job(calls["relations.check_admissible"]), "count/job"),
        "relations.check_admissible.self_s": (per_job(own["relations.check_admissible"]), "s/job"),
        "relations.is_reduced.self_s": (per_job(own["relations.is_reduced"]), "s/job"),
        "relations.reach_cache.hit_ratio": (
            _ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]), "ratio"),
        "relations.cache_entries": (tracer.cache_entries(), "count"),
        "fileio.parse.calls": (per_job(calls["fileio.parse"]), "count/job"),
        "fileio.parse.self_s": (per_job(own["fileio.parse"]), "s/job"),
        "fileio.dump.calls": (per_job(calls["fileio.dump"]), "count/job"),
        "fileio.dump.self_s": (per_job(own["fileio.dump"]), "s/job"),
        "fileio.bytes_in": (per_job(c["bytes_in"]), "bytes/job"),
        "fileio.bytes_out": (per_job(c["bytes_out"]), "bytes/job"),
        "cli.main.calls": (per_job(calls["cli.main"]), "count/job"),
        "cli.main.self_s": (per_job(own["cli.main"]), "s/job"),
        "cli.exit_nonzero": (c["cli_exit_nonzero"], "count"),
        "cli.uncaught": (c["cli_uncaught"], "count"),
    })
    return metrics
