"""In-process span tracer for one `dickson` invocation.

`Tracer.install()` rebinds each traced public function in every
`dicksonrs` module namespace that holds it, and patches traced methods on
their class.  Each wrapper records a span (name, parent span, start, end)
into in-memory aggregates keyed by (parent, name); nothing is written
until `report()`.  Work counters are computed at the call boundary from
the arguments (or the result), never from inside the package.

Each span belongs to a layer (the module it lives in) and a group.  A
group's time counts only outermost spans of that group, so nested calls
such as value_set -> value_counts -> values_vector are not double
counted.  A layer's self time is its spans' durations minus the time of
their direct child spans.  `gf` is deliberately not traced: a wrapper
would cost more than a field op, so gf time lands in its callers' self
time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from math import comb
from time import perf_counter


_SIGNATURES = {}


def _bound(fn, args, kwargs):
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# --- counter hooks: (tracer, fn, args, kwargs) -> result --------------------


def _dp_hook(t, fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    elems = tuple(a["elems"])
    t.counters["rscode.dp_cells"] += len(elems) * a["r"] * a["field"].q
    t.counters["rscode.dp_targets"] += 1
    t.counters["rscode.dp_tables"] += 1
    return fn(a["field"], elems, a["r"], a["target"], a["budget"])


def _bf_hook(t, fn, args, kwargs):
    code = _bound(fn, args, kwargs)["word"].code
    t.counters["rscode.bf_subsets"] += comb(code.length, code.k)
    return fn(*args, **kwargs)


def _interp_hook(t, fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    pts = list(a["points"])
    t.counters["polyring.interp_points"] += len(pts)
    return fn(a["field"], pts)


def _cache_hook(on_miss):
    """Count cache misses of an lru_cache'd function by its cache_info()."""

    def hook(t, fn, args, kwargs):
        before = fn.cache_info().misses
        out = fn(*args, **kwargs)
        if fn.cache_info().misses != before:
            on_miss(t, _bound(fn, args, kwargs), out)
        return out

    return hook


def _psi_miss(t, a, out):
    t.counters["charsum.table_entries"] += len(out)


def _values_miss(t, a, out):
    spec = a["spec"]
    t.counters["dickson.field_enumerations"] += 1
    t.counters["dickson.recurrence_steps"] += spec.field.q * max(spec.n - 1, 0)


def _eval_hook(t, fn, args, kwargs):
    t.counters["dickson.recurrence_steps"] += max(_bound(fn, args, kwargs)["spec"].n - 1, 0)
    return fn(*args, **kwargs)


def _bound_hook(t, fn, args, kwargs):
    # two log-falling-factorial sums of k+1 terms each
    t.counters["sieve.bound_log_terms"] += 2 * (_bound(fn, args, kwargs)["k"] + 1)
    return fn(*args, **kwargs)


def _emit_hook(t, fn, args, kwargs):
    obj = _bound(fn, args, kwargs)["obj"]
    if "suites" in obj:
        n = sum(sum(s["counts"].values()) for s in obj["suites"])
    else:
        n = len(obj.get("reports", (None,)))
    t.counters["cli.instances"] += n
    return fn(*args, **kwargs)


def _region_hook(t, fn, args, kwargs):
    out = fn(*args, **kwargs)
    # the upward scan evaluates k_min..k_max and the first failing k
    t.counters["sieve.region_scan_steps"] += out.k_max - out.k_min + 2
    return out


# (module, attribute, group, hook); "Class.method" patches the class.
TRACED = [
    ("cli", "main", "main", None),
    ("cli", "emit", "emit", None),
    ("cli", "_dump_json", "emit", _emit_hook),
    ("cli", "_write_output", "emit", None),
    ("rscode", "subset_sum_find", "dp_find", _dp_hook),
    ("rscode", "subset_sum_count", "dp_count", _dp_hook),
    ("rscode", "error_distance_bf", "bf", _bf_hook),
    ("rscode", "deg_k1_deep_hole_test", "decide", None),
    ("rscode", "count_Nu", "count_nu", None),
    ("rscode", "deg_k1_reduction", "reduce", None),
    ("rscode", "ReceivedWord.__init__", "word", None),
    ("polyring", "lagrange_interpolate", "interp", _interp_hook),
    ("polyring", "Polynomial.evaluate", "eval", None),
    ("polyring", "Polynomial.__mul__", "arith", None),
    ("polyring", "Polynomial.__add__", "arith", None),
    ("polyring", "Polynomial.__sub__", "arith", None),
    ("polyring", "Polynomial.monic", "arith", None),
    ("charsum", "sum_over_value_set", "sum", None),
    ("charsum", "weil_sum_1", "sum", None),
    ("charsum", "weil_sum_2", "sum", None),
    ("charsum", "weil_sum_3", "sum", None),
    ("charsum", "weighted_identity_check", "identity", None),
    ("charsum", "_psi_table", "table", _cache_hook(_psi_miss)),
    ("charsum", "_eta_vector", "table", None),
    ("charsum", "_weil3_shift_tables", "table", None),
    ("charsum", "_preimage_weights", "table", None),
    ("dickson", "value_set", "enum", None),
    ("dickson", "value_counts", "enum", None),
    ("dickson", "values_vector", "enum", _cache_hook(_values_miss)),
    ("dickson", "dickson_eval", "eval", _eval_hook),
    ("dickson", "value_set_size_formula", "formula", None),
    ("dickson", "preimage_count", "preimage", None),
    ("sieve", "main_bound_check", "bound", _bound_hook),
    ("sieve", "region_solve", "region", _region_hook),
    ("sieve", "sieve_identity_F", "identity", None),
    ("sieve", "cycle_types", "combinatorics", None),
    ("sieve", "perm_count", "combinatorics", None),
    ("sieve", "C_k_eval", "combinatorics", None),
    ("sieve", "C_k_periodic_bound", "combinatorics", None),
]


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [name, child_seconds]
        self._group_depth = Counter()
        self.edges = {}  # (parent, name) -> [calls, total_s, self_s]
        self.groups = {}  # "layer.group" -> [outermost calls, outermost total_s]
        self.counters = Counter()
        self._originals = {}

    def _wrap(self, fn, name, group, hook):
        stack, depth = self._stack, self._group_depth
        edges, groups = self.edges, self.groups

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[group] += 1
            t0 = perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[group] -= 1
                if stack:
                    stack[-1][1] += dt
                e = edges.get((parent, name))
                if e is None:
                    e = edges[(parent, name)] = [0, 0.0, 0.0]
                e[0] += 1
                e[1] += dt
                e[2] += dt - frame[1]
                if depth[group] == 0:
                    g = groups.get(group)
                    if g is None:
                        g = groups[group] = [0, 0.0]
                    g[0] += 1
                    g[1] += dt

        return span

    def install(self):
        modules = {
            name: importlib.import_module(f"dicksonrs.{name}")
            for name in ("cli", "rscode", "polyring", "charsum", "dickson", "sieve")
        }
        namespaces = [m for n, m in sys.modules.items() if n.startswith("dicksonrs")]
        for mod_name, attr, group, hook in TRACED:
            mod = modules[mod_name]
            full = f"{mod_name}.{attr}"
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                orig = owner.__dict__[method]
                setattr(owner, method, self._wrap(orig, full, f"{mod_name}.{group}", hook))
                self._originals[full] = orig
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, full, f"{mod_name}.{group}", hook)
            self._originals[full] = orig
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapper)

    def original(self, full_name):
        return self._originals[full_name]

    def report(self) -> dict:
        """Aggregates as plain JSON-able data, written out once per run."""
        self.counters["charsum.psi_tables"] += self.original("charsum._psi_table").cache_info().currsize
        return {
            "edges": [[p, n, *v] for (p, n), v in sorted(self.edges.items(), key=str)],
            "groups": {k: v for k, v in sorted(self.groups.items())},
            "counters": dict(sorted(self.counters.items())),
        }
