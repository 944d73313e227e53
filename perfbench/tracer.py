"""Per-layer tracing of hcchar, installed from the benchmark's own files.

Function wrappers replace every reference to a layer's public functions:
module globals in every hcchar module (modules import functions by name)
and values of module-level dicts such as ``characters.METHODS``.  Kernel
methods (``QPoly.__mul__`` and friends, ``GammaElement.__mul__``) are
patched on their classes.  Memos stay on the original functions, so their
``cache_info()`` gives misses and hit ratios.

Every wrapped call pushes a frame, so a layer's self time is its span time
minus the time of the wrapped calls inside it.  Entry points record a span
(name, start, end, parent) in columnar arrays.  Kernel operations and
generator steps are aggregated per (caller layer, operation) instead of
recording one span each, so memory grows only with entry-point calls.

A target that does not exist at the measured commit, a layer the run never
enters and a ratio with nothing to divide by are reported as absent, with
the reason.  ``uninstall`` restores every original object.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

SPAN_LIMIT = 1_000_000

# metric prefix -> (module, function names); each listed function counts
# towards the prefix.
FUNCTIONS = {
    "qpoly.exact_div_qminus1_pow": ("qpoly", ("exact_div_qminus1_pow",)),
    "partitions.classify_skew": ("partitions", ("classify_skew",)),
    "partitions.pieri_strips": ("partitions", ("pieri_strips",)),
    "partitions.bounded_compositions": ("partitions", ("bounded_compositions",)),
    "characters.gds_expansion": ("characters", ("gds_expansion",)),
    "characters.pfaffian_expansion": ("characters", ("pfaffian_expansion",)),
    "characters.char_oracle": ("characters", ("char_oracle",)),
    "characters.char_recursive": ("characters", ("char_recursive",)),
    "characters.char_pfaffian": ("characters", ("char_pfaffian",)),
    "characters.char_combinatorial": ("characters", ("char_combinatorial",)),
    "characters.char_pieri": ("characters", ("char_pieri",)),
    "characters.closed_forms": (
        "characters", ("char_one_row", "char_two_row", "char_column", "char_hook_mu"),
    ),
    "bitrace.sbtr": ("bitrace", ("sbtr",)),
    "bitrace.T_mu_nu": ("bitrace", ("T_mu_nu",)),
    "bitrace.alpha_product": ("bitrace", ("alpha_product",)),
    "bitrace.sbtr_matrix": ("bitrace", ("sbtr_matrix",)),
    "gamma.inner_product": ("gamma", ("inner_product",)),
    "gamma.apply_g_star_pbasis": ("gamma", ("apply_g_star_pbasis",)),
    "vertex.straighten": ("vertex", ("straighten",)),
    "vertex.apply_Q_m": ("vertex", ("apply_Q_m",)),
    "vertex.g_star_vacuum_coeff": ("vertex", ("g_star_vacuum_coeff",)),
    "pfaffian.pfaffian": ("pfaffian", ("pfaffian",)),
    "cli.load_cached_table": ("cli", ("load_cached_table",)),
    "cli.store_cached_table": ("cli", ("store_cached_table",)),
    "cli.render": ("cli", ("render_table_json", "render_table_csv", "render_table_latex")),
}

# A function reached through a given module's namespace also counts under a
# second prefix: the normalization step as each caller looks it up.
ALIASES = {
    ("qpoly.exact_div_qminus1_pow", "characters"): "characters.normalize",
    ("qpoly.exact_div_qminus1_pow", "bitrace"): "bitrace.normalize",
}

# metric prefix -> (module, class, method names); aggregated, no spans.
METHODS = {
    "qpoly.mul": ("qpoly", "QPoly", ("__mul__", "__rmul__")),
    "qpoly.add": ("qpoly", "QPoly", ("__add__",)),
    "qpoly.scale": ("qpoly", "QPoly", ("scale",)),
    "gamma.GammaElement.mul": ("gamma", "GammaElement", ("__mul__",)),
}

# metric prefix -> (module, generator function); steps aggregated, no spans.
GENERATORS = {
    "partitions.strict_subpartitions": ("partitions", "strict_subpartitions"),
}

# metric prefix -> (module, memoized function) read through cache_info().
MEMOS = {
    "partitions.classify_skew": ("partitions", "classify_skew"),
    "characters.gds_expansion": ("characters", "gds_expansion"),
    "characters.pfaffian_expansion": ("characters", "pfaffian_expansion"),
    "characters._g_combinatorial": ("characters", "_g_combinatorial"),
    "characters._g_pfaffian": ("characters", "_g_pfaffian"),
    "characters._g_pieri": ("characters", "_g_pieri"),
    "bitrace._T": ("bitrace", "_T"),
    "gamma.g_product": ("gamma", "g_product"),
    "vertex.Q_lambda_vacuum": ("vertex", "Q_lambda_vacuum"),
    "pfaffian.skew_Q_principal": ("pfaffian", "skew_Q_principal"),
}

# The reported metrics, in order: prefix -> fields.
REPORT = {
    "qpoly.mul": ("calls", "self_s", "coeff_ops"),
    "qpoly.add": ("calls", "self_s"),
    "qpoly.scale": ("calls", "self_s"),
    "qpoly.exact_div_qminus1_pow": ("calls", "passes", "self_s"),
    "partitions.classify_skew": ("calls", "misses", "self_s", "gds_ratio"),
    "partitions.strict_subpartitions": ("calls", "yielded", "self_s"),
    "partitions.pieri_strips": ("calls", "self_s"),
    "partitions.bounded_compositions": ("calls", "yielded", "self_s"),
    "characters.gds_expansion": ("calls", "misses", "self_s", "kept_ratio"),
    "characters.pfaffian_expansion": ("calls", "misses", "self_s", "kept_ratio"),
    "characters.char_oracle": ("calls", "self_s"),
    "characters.char_recursive": ("calls", "self_s"),
    "characters.char_pfaffian": ("calls", "self_s"),
    "characters.char_combinatorial": ("calls", "self_s"),
    "characters.char_pieri": ("calls", "self_s"),
    "characters._g_combinatorial": ("hit_ratio",),
    "characters._g_pfaffian": ("hit_ratio",),
    "characters._g_pieri": ("hit_ratio",),
    "characters.normalize": ("calls", "self_s"),
    "characters.closed_forms": ("calls", "self_s"),
    "bitrace.sbtr": ("calls", "self_s"),
    "bitrace.T_mu_nu": ("calls", "self_s"),
    "bitrace.alpha_product": ("calls", "self_s"),
    "bitrace.sbtr_matrix": ("calls", "self_s"),
    "bitrace._T": ("misses", "hit_ratio"),
    "bitrace.normalize": ("calls", "self_s"),
    "gamma.inner_product": ("calls", "self_s"),
    "gamma.GammaElement.mul": ("calls", "self_s"),
    "gamma.apply_g_star_pbasis": ("calls", "self_s"),
    "gamma.g_product": ("misses",),
    "vertex.straighten": ("calls", "self_s", "terms_out"),
    "vertex.apply_Q_m": ("calls", "self_s"),
    "vertex.g_star_vacuum_coeff": ("calls", "self_s"),
    "vertex.Q_lambda_vacuum": ("misses",),
    "pfaffian.pfaffian": ("calls", "self_s", "size_sum"),
    "pfaffian.skew_Q_principal": ("misses",),
    "cli.load_cached_table": ("calls", "hits", "rejected", "self_s", "bytes_read"),
    "cli.store_cached_table": ("calls", "self_s", "bytes_written"),
    "cli.render": ("calls", "self_s", "bytes"),
    "qpoly": ("max_degree",),
    "memo": ("entries_total",),
    "trace": ("spans", "overhead_s"),
}

# field -> (unit, better)
FIELDS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "coeff_ops": ("count", "lower"),
    "passes": ("count", "lower"),
    "misses": ("count", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "gds_ratio": ("ratio", "higher"),
    "kept_ratio": ("ratio", "higher"),
    "yielded": ("count", "lower"),
    "terms_out": ("count", "lower"),
    "size_sum": ("count", "lower"),
    "hits": ("count", "higher"),
    "rejected": ("count", "lower"),
    "bytes_read": ("bytes", "lower"),
    "bytes_written": ("bytes", "lower"),
    "bytes": ("bytes", "lower"),
    "max_degree": ("degree", "lower"),
    "entries_total": ("count", "lower"),
    "spans": ("count", "lower"),
    "overhead_s": ("s", "lower"),
}

MEMO_FIELDS = ("misses", "hit_ratio")

# why a metric is absent
MISSING = "missing at this commit"
UNUSED = "not entered in this run"


def metric_catalog() -> list[dict]:
    """Every per-layer metric of the printed report."""
    return [
        {"name": f"{prefix}.{field}", "unit": FIELDS[field][0], "better": FIELDS[field][1]}
        for prefix, fields in REPORT.items()
        for field in fields
    ]


def result_line_catalog() -> list[dict]:
    """The per-layer metrics of BENCHMARK.json, which every traced run's
    result line must hold although most workloads leave some layers alone
    (table never enters bitrace).  They are the counts, where 0 is the true
    count for a layer the run never entered or a target missing at the
    commit, and the only times every workload measures: the qpoly kernel's
    and the tracer's overhead.  Ratios and the other self times, undefined
    or 0 on some workload, are in the printed report only."""
    return [
        m for m in metric_catalog()
        if m["unit"] not in ("s", "ratio") or m["name"].startswith("qpoly.")
        or m["name"] == "trace.overhead_s"
    ]


def find_memos(modules: dict) -> dict:
    """Every functools memo defined in the given modules, keyed by
    (defining module, name)."""
    found = {}
    for mod in modules.values():
        for value in vars(mod).values():
            if callable(value) and hasattr(value, "cache_info"):
                owner = getattr(value, "__module__", "") or ""
                if owner.startswith("hcchar"):
                    key = (owner.rsplit(".", 1)[-1], getattr(value, "__name__", "?"))
                    found.setdefault(key, value)
    return found


# ---------------------------------------------------------------------------
# hooks: extra counters read from a call's arguments and result

def _passes(tracer, c, args, kwargs, result, frame):
    c["passes"] = c.get("passes", 0) + (args[1] if len(args) > 1 else kwargs.get("m", 0))


def _gds(tracer, c, args, kwargs, result, frame):
    kind = getattr(getattr(result, "kind", None), "name", "NOT_GDS")
    c["gds"] = c.get("gds", 0) + (kind != "NOT_GDS")


def _yielded_len(tracer, c, args, kwargs, result, frame):
    c["yielded"] = c.get("yielded", 0) + len(result)


def _kept(tracer, c, args, kwargs, result, frame):
    # frame[3] counts the strict subpartitions the call iterated; a memo
    # hit iterates none and is left out of the ratio.
    if frame[3]:
        c["attempted"] = c.get("attempted", 0) + frame[3]
        c["kept"] = c.get("kept", 0) + len(result)


def _terms_out(tracer, c, args, kwargs, result, frame):
    c["terms_out"] = c.get("terms_out", 0) + len(result)


def _size_sum(tracer, c, args, kwargs, result, frame):
    c["size_sum"] = c.get("size_sum", 0) + args[0].size


def _bytes(tracer, c, args, kwargs, result, frame):
    c["bytes"] = c.get("bytes", 0) + len(result.encode())


def _cache_file_size(tracer, n):
    cache_path = getattr(tracer.modules.get("cli"), "_cache_path", None)
    path = cache_path(n) if cache_path else None
    return os.path.getsize(path) if path and os.path.exists(path) else None


def _load(tracer, c, args, kwargs, result, frame):
    nbytes = _cache_file_size(tracer, args[0])
    c["hits"] = c.get("hits", 0) + (result is not None)
    c["rejected"] = c.get("rejected", 0) + (nbytes is not None and result is None)
    c["bytes_read"] = c.get("bytes_read", 0) + (nbytes or 0)


def _store(tracer, c, args, kwargs, result, frame):
    c["bytes_written"] = c.get("bytes_written", 0) + (_cache_file_size(tracer, args[0]) or 0)


HOOKS = {
    "qpoly.exact_div_qminus1_pow": _passes,
    "partitions.classify_skew": _gds,
    "partitions.bounded_compositions": _yielded_len,
    "characters.gds_expansion": _kept,
    "characters.pfaffian_expansion": _kept,
    "vertex.straighten": _terms_out,
    "pfaffian.pfaffian": _size_sum,
    "cli.render": _bytes,
    "cli.load_cached_table": _load,
    "cli.store_cached_table": _store,
}


class Tracer:
    """Installs the wrappers on a set of imported hcchar modules and turns
    what they record into per-layer metrics.

    ``modules`` maps short names ("qpoly", "characters", ...; "hcchar" for
    the package) to module objects.  Create the tracer after the inputs are
    set up: memo statistics are taken relative to that moment.
    """

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        # frame: [child seconds, span id, layer, subpartitions seen, prefix]
        self.stack = [[0.0, -1, "bench", 0, None]]
        self.counters: dict[str, dict] = {}
        self.absent: set[str] = set()
        self.ops: dict[tuple[str, str], list] = {}
        self.max_degree = -1
        self.span_names: dict[str, int] = {}
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.spans_dropped = 0
        self._undo: list[tuple[object, str, object]] = []
        self.memos = find_memos(modules)
        self._memo_start = {key: fn.cache_info() for key, fn in self.memos.items()}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for prefix, (module, names) in FUNCTIONS.items():
            self._wrap_functions(prefix, module, names)
        for prefix, (module, cls_name, names) in METHODS.items():
            self._wrap_methods(prefix, module, cls_name, names)
        for prefix, (module, name) in GENERATORS.items():
            self._wrap_generator(prefix, module, name)
        for (prefix, _site), alias in ALIASES.items():
            if alias not in self.counters:
                self.absent.add(alias)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo.clear()

    def _stat(self, prefix: str) -> dict:
        return self.counters.setdefault(prefix, {"calls": 0, "self_s": 0.0})

    def _references(self, original):
        """(site module name, container, key) for every reference."""
        refs = []
        for site, mod in self.modules.items():
            for key, value in vars(mod).items():
                if value is original:
                    refs.append((site, mod, key))
                elif type(value) is dict:
                    refs.extend((site, value, k) for k, v in value.items() if v is original)
        return refs

    def _replace(self, container, key, new) -> None:
        if isinstance(container, dict):
            self._undo.append((container, key, container[key]))
            container[key] = new
        else:
            self._undo.append((container, key, getattr(container, key)))
            setattr(container, key, new)

    def _wrap_functions(self, prefix, module, names) -> None:
        mod = self.modules.get(module)
        originals = [getattr(mod, n, None) for n in names] if mod else []
        originals = [fn for fn in originals if callable(fn)]
        if not originals:
            self.absent.add(prefix)
            return
        stat = self._stat(prefix)
        for original in originals:
            for site, container, key in self._references(original):
                stats = [stat]
                alias = ALIASES.get((prefix, site))
                if alias:
                    stats.append(self._stat(alias))
                wrapper = self._function_wrapper(prefix, module, original, stats, HOOKS.get(prefix))
                self._replace(container, key, wrapper)

    def _open_span(self, prefix: str, start: float, parent: int) -> int:
        if len(self.span_start) >= SPAN_LIMIT:
            self.spans_dropped += 1
            return -1
        self.span_name.append(self.span_names.setdefault(prefix, len(self.span_names)))
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(parent)
        return len(self.span_start) - 1

    def _function_wrapper(self, prefix, layer, original, stats, hook):
        stack, clock, open_span, span_end = self.stack, time.perf_counter, self._open_span, self.span_end
        primary = stats[0]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[4] == prefix:
                # direct recursion: only the outermost call is an entry
                return original(*args, **kwargs)
            start = clock()
            span = open_span(prefix, start, parent[1])
            frame = [0.0, span, layer, 0, prefix]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if span >= 0:
                    span_end[span] = end
                elapsed = end - start
                parent[0] += elapsed
                own = elapsed - frame[0]
                for c in stats:
                    c["calls"] += 1
                    c["self_s"] += own
            if hook is not None:
                t = clock()
                hook(self, primary, args, kwargs, result, frame)
                parent[0] += clock() - t
            return result

        return wrapper

    def _wrap_methods(self, prefix, module, cls_name, names) -> None:
        cls = getattr(self.modules.get(module), cls_name, None)
        originals = {n: cls.__dict__.get(n) for n in names} if cls is not None else {}
        originals = {n: fn for n, fn in originals.items() if callable(fn)}
        if not originals:
            self.absent.add(prefix)
            return
        stat = self._stat(prefix)
        wrapped = {}
        for name, original in originals.items():
            if id(original) not in wrapped:
                wrapped[id(original)] = self._method_wrapper(prefix, module, original, stat)
            self._replace(cls, name, wrapped[id(original)])

    def _method_wrapper(self, prefix, layer, original, stat):
        stack, clock, ops = self.stack, time.perf_counter, self.ops
        is_mul = prefix == "qpoly.mul"
        tracer = self

        def wrapper(*args):
            parent = stack[-1]
            frame = [0.0, parent[1], layer, 0, prefix]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                own = elapsed - frame[0]
                stat["calls"] += 1
                stat["self_s"] += own
                key = (parent[2], prefix)
                agg = ops.get(key)
                if agg is None:
                    ops[key] = [1, own]
                else:
                    agg[0] += 1
                    agg[1] += own
            if is_mul:
                t = clock()
                a, b = args
                if type(b) is type(a):
                    stat["coeff_ops"] = stat.get("coeff_ops", 0) + len(a.coeffs) * len(b.coeffs)
                degree = len(result.coeffs) - 1
                if degree > tracer.max_degree:
                    tracer.max_degree = degree
                parent[0] += clock() - t
            return result

        wrapper.__name__ = getattr(original, "__name__", prefix)
        return wrapper

    def _wrap_generator(self, prefix, module, name) -> None:
        original = getattr(self.modules.get(module), name, None)
        if not callable(original):
            self.absent.add(prefix)
            return
        stat = self._stat(prefix)
        stat["yielded"] = 0
        stack, clock, ops = self.stack, time.perf_counter, self.ops

        def steps(iterator):
            while True:
                parent = stack[-1]
                frame = [0.0, parent[1], module, 0, prefix]
                stack.append(frame)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    parent[0] += elapsed
                    stat["self_s"] += elapsed - frame[0]
                    key = (parent[2], prefix)
                    agg = ops.setdefault(key, [0, 0.0])
                    agg[0] += 1
                    agg[1] += elapsed - frame[0]
                stat["yielded"] += 1
                parent[3] += 1
                yield item

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            return steps(original(*args, **kwargs))

        for _site, container, key in self._references(original):
            self._replace(container, key, wrapper)

    # -- results ------------------------------------------------------------

    def _memo_fields(self, prefix: str) -> dict | str:
        """The memo's misses and hit ratio since the tracer was made, or why
        they are absent."""
        module, name = MEMOS[prefix]
        fn = self.memos.get((module, name))
        if fn is None:
            return MISSING
        now, before = fn.cache_info(), self._memo_start[(module, name)]
        hits, misses = now.hits - before.hits, now.misses - before.misses
        if hits + misses == 0:
            return UNUSED
        return {"misses": misses, "hit_ratio": hits / (hits + misses)}

    def _field(self, prefix: str, field: str) -> float | str:
        """One metric's value, or why it is absent."""
        if prefix in self.absent:
            return MISSING
        if prefix == "qpoly":
            if "qpoly.mul" in self.absent:
                return MISSING
            return self.max_degree if self.max_degree >= 0 else UNUSED
        if prefix == "memo":
            return sum(fn.cache_info().currsize for fn in self.memos.values())
        if prefix == "trace":
            return len(self.span_start) + self.spans_dropped
        c = self.counters[prefix]
        if not c["calls"]:
            return UNUSED
        if field == "gds_ratio":
            return c.get("gds", 0) / c["calls"]
        if field == "kept_ratio":
            # every call was a memo hit: nothing was iterated
            attempted = c.get("attempted", 0)
            return c.get("kept", 0) / attempted if attempted else UNUSED
        return c.get(field, 0)

    def metrics(self) -> tuple[dict[str, float], dict[str, str]]:
        """(metric name -> value, metric name -> why it is absent).

        A metric is absent, not 0, when its target does not exist at the
        measured commit (MISSING) or when the run never entered the layer or
        a ratio has nothing to divide by (UNUSED).  A count that is 0 is a
        count of events in a layer that did run.  trace.overhead_s needs
        untraced runs; run.py adds it.
        """
        values: dict[str, float] = {}
        absent: dict[str, str] = {}
        for prefix, fields in REPORT.items():
            memo = self._memo_fields(prefix) if prefix in MEMOS else None
            for field in fields:
                name = f"{prefix}.{field}"
                if name == "trace.overhead_s":
                    continue
                if field in MEMO_FIELDS:
                    value = memo if isinstance(memo, str) else memo[field]
                else:
                    value = self._field(prefix, field)
                if isinstance(value, str):
                    absent[name] = value
                else:
                    values[name] = value
        return values, absent

    def trace_record(self) -> dict:
        """The whole trace, for writing out after the run."""
        return {
            "span_names": list(self.span_names),
            "spans": {
                "name": list(self.span_name),
                "start": list(self.span_start),
                "end": list(self.span_end),
                "parent": list(self.span_parent),
            },
            "spans_dropped": self.spans_dropped,
            "ops": [[layer, op, n, s] for (layer, op), (n, s) in sorted(self.ops.items())],
            "counters": self.counters,
        }
