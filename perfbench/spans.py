"""Spans around the public functions of each starklayer layer.

The wrappers are installed from here, at every module attribute that holds
one of the wrapped functions, so a call from any layer (or from the CLI) is
recorded.  Spans are kept in memory, one list per op, and written out when the
benchmark ends.  A span is ``[name, start, end, parent, error, attrs]`` with
``parent`` the index of the enclosing span in the same list, or -1.
"""

from __future__ import annotations

import functools
import statistics
import time

# Layer module -> its public functions that the per-layer metrics time.
WRAPPED = {
    "specfun": ("airy_grid", "bessel_zero", "integrate"),
    "transverse": ("levels", "chi"),
    "bracket": ("window", "dirichlet_disc_levels", "count_certified",
                "sorted_bessel_zeros", "sufficient_radius", "figure_curves"),
    "certify": ("certify", "coefficients", "q_functional"),
    "fd2d": ("assemble", "lowest_eigs", "window_ground_state", "splu"),
}

NAME, START, END, PARENT, ERROR, ATTRS = range(6)


class Tracer:
    """Collects the spans of the op in flight; ``begin_op`` starts a new list."""

    def __init__(self):
        self.ops: dict = {}
        self._spans: list = []
        self._stack: list = []

    def begin_op(self, op_id) -> None:
        self._spans = []
        self._stack = []
        self.ops[op_id] = self._spans

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, time.perf_counter(), None, parent, None, None])
        idx = len(self._spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error=None, attrs=None) -> None:
        span = self._spans[idx]
        span[END] = time.perf_counter()
        span[ERROR] = error
        span[ATTRS] = attrs
        self._stack.pop()

    def add(self, name: str, start: float, end: float, attrs=None) -> None:
        """Record a finished top-level span measured elsewhere."""
        self._spans.append([name, start, end, -1, None, attrs])


class _CountingLU:
    """SuperLU stand-in that counts ``solve`` calls."""

    def __init__(self, lu, counter):
        self._lu = lu
        self._counter = counter

    def solve(self, rhs, *args, **kwargs):
        self._counter[0] += 1
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _wrap(tracer: Tracer, name: str, fn, modules):
    """Span-recording wrapper; per-function attributes are collected here."""
    if name == "specfun.integrate":
        def wrapper(f, *args, **kwargs):
            nodes = [0]

            def counted(x):
                nodes[0] += 1
                return f(x)
            idx = tracer.open(name)
            try:
                result = fn(counted, *args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, type(exc).__name__, {"nodes": nodes[0]})
                raise
            tracer.close(idx, None, {"nodes": nodes[0]})
            return result
        return functools.wraps(fn)(wrapper)

    if name == "specfun.bessel_zero":
        table = modules["specfun"]._DEFAULT_ZEROS

        def attrs_before(args, kwargs):
            explicit = args[2] if len(args) > 2 else kwargs.get("table")
            tab = explicit if explicit is not None else table
            return {"hit": tab.get(int(args[0]), int(args[1])) is not None}
    else:
        attrs_before = None

    if name == "fd2d.splu":
        def attrs_after(args, kwargs, result):
            nnz = max(int(args[0].nnz), 1)
            return {"fill": (result.L.nnz + result.U.nnz) / nnz}
    elif name in ("specfun.airy_grid", "transverse.chi"):
        def attrs_after(args, kwargs, result):
            z = args[2] if name == "transverse.chi" else args[0]
            return {"points": int(getattr(z, "size", 1))}
    elif name == "transverse.levels":
        def attrs_after(args, kwargs, result):
            return {"n": len(result)}
    elif name == "fd2d.assemble":
        def attrs_after(args, kwargs, result):
            return {"nnz": int(result.matrix.nnz)}
    else:
        attrs_after = None

    def wrapper(*args, **kwargs):
        attrs = attrs_before(args, kwargs) if attrs_before else {}
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx, type(exc).__name__, attrs)
            raise
        if attrs_after:
            attrs.update(attrs_after(args, kwargs, result))
        if name == "fd2d.splu":
            solves = [0]
            result = _CountingLU(result, solves)
            attrs["solves"] = solves
        tracer.close(idx, None, attrs)
        return result
    return functools.wraps(fn)(wrapper)


def install(tracer: Tracer) -> None:
    """Replace each wrapped function at every starklayer module attribute holding it."""
    import starklayer
    from starklayer import bracket, certify, cli, fd2d, specfun, transverse
    modules = {"specfun": specfun, "transverse": transverse, "bracket": bracket,
               "certify": certify, "fd2d": fd2d}
    holders = [starklayer, specfun, transverse, bracket, certify, fd2d, cli]
    for layer, names in WRAPPED.items():
        for fname in names:
            original = getattr(modules[layer], fname)
            wrapped = _wrap(tracer, f"{layer}.{fname}", original, modules)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)


def finish_spans(spans: list) -> list:
    """Resolve deferred attributes (LU solve counters) into plain numbers."""
    for span in spans:
        attrs = span[ATTRS]
        if attrs and isinstance(attrs.get("solves"), list):
            attrs["solves"] = attrs["solves"][0]
    return spans


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict = {}
    for i, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span[START]
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children.get(i, ())):
            lo = max(lo, cursor)
            hi = min(hi, span[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span[END] - span[START] - covered)
    return out


def _ancestors(spans: list, i: int):
    p = spans[i][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


# Per-layer metric name -> unit.  Counts and times are per op attempted in the
# traced pass; ratios are over the whole pass.
PER_LAYER_UNITS = {
    "cli.spawn_s": "s/op", "cli.import_s": "s/op", "cli.run.self_s": "s/op",
    "specfun.airy_grid.calls": "1/op", "specfun.airy_grid.points": "1/op",
    "specfun.airy_grid.self_s": "s/op",
    "specfun.integrate.calls": "1/op", "specfun.integrate.nodes": "1/op",
    "specfun.integrate.self_s": "s/op", "specfun.integrate.failures": "1/op",
    "specfun.bessel_zero.calls": "1/op", "specfun.bessel_zero.computed": "1/op",
    "specfun.bessel_zero.hit_ratio": "ratio", "specfun.bessel_zero.self_s": "s/op",
    "transverse.levels.calls": "1/op", "transverse.levels.self_s": "s/op",
    "transverse.levels.airy_calls_per_level": "1/level",
    "transverse.chi.calls": "1/op", "transverse.chi.points": "1/op",
    "transverse.chi.self_s": "s/op",
    "bracket.window.self_s": "s/op", "bracket.count_certified.self_s": "s/op",
    "bracket.count_certified.levels_solved": "1/op",
    "bracket.sorted_bessel_zeros.self_s": "s/op",
    "bracket.sufficient_radius.self_s": "s/op", "bracket.failures": "1/op",
    "certify.certify.self_s": "s/op", "certify.q_functional.calls": "1/op",
    "certify.halvings": "1/op", "certify.nodes_per_certificate": "1/cert",
    "fd2d.assemble.self_s": "s/op", "fd2d.assemble.nnz": "count",
    "fd2d.splu.self_s": "s/op", "fd2d.splu.fill_ratio": "ratio",
    "fd2d.lu_solves": "1/op", "fd2d.lowest_eigs.self_s": "s/op",
    "fd2d.lowest_eigs.failures": "1/op",
    "trace.overhead_ratio": "ratio", "trace.overhead_p50_s": "s",
    "trace.unattributed_s": "s/op",
}


def aggregate(op_spans: dict, n_ops: int) -> dict:
    """Per-layer metrics (name -> value) from ``{op_id: spans}`` of ``n_ops`` ops.

    ``cli.spawn_s`` is measured outside the spans and left at 0 here.
    """
    total: dict = {}
    calls: dict = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    hits = 0
    fills = []
    nnzs = []
    levels_returned = 0
    airy_in_levels = 0
    certs = 0
    cert_nodes = 0
    for spans in op_spans.values():
        selfs = self_times(spans)
        for i, span in enumerate(spans):
            name, err, attrs = span[NAME], span[ERROR], span[ATTRS] or {}
            calls[name] = calls.get(name, 0) + 1
            add(name + ".self_s", selfs[i])
            anc = [spans[p][NAME] for p in _ancestors(spans, i)]
            if name == "specfun.airy_grid":
                add(name + ".points", attrs.get("points", 0))
                if "transverse.levels" in anc:
                    airy_in_levels += 1
            elif name == "transverse.chi":
                add(name + ".points", attrs.get("points", 0))
            elif name == "specfun.integrate":
                add(name + ".nodes", attrs.get("nodes", 0))
                if err:
                    add(name + ".failures", 1)
                if "certify.certify" in anc:
                    cert_nodes += attrs.get("nodes", 0)
            elif name == "specfun.bessel_zero":
                hits += bool(attrs.get("hit"))
            elif name == "transverse.levels":
                levels_returned += attrs.get("n", 0)
                if "bracket.count_certified" in anc:
                    add("bracket.count_certified.levels_solved", attrs.get("n", 0))
            elif name == "certify.certify" and not err:
                certs += 1
            elif name == "certify.q_functional" and "certify.certify" in anc:
                add("certify.halvings", 1)
            elif name == "fd2d.assemble" and "nnz" in attrs:
                nnzs.append(attrs["nnz"])
            elif name == "fd2d.splu" and "fill" in attrs:
                fills.append(attrs["fill"])
                add("fd2d.lu_solves", attrs.get("solves", 0))
            elif name == "fd2d.lowest_eigs" and err:
                add(name + ".failures", 1)
            if (name.startswith("bracket.") and err
                    and not any(a.startswith("bracket.") for a in anc)):
                add("bracket.failures", 1)

    bz = calls.get("specfun.bessel_zero", 0)
    cert_calls = calls.get("certify.certify", 0)
    out = {}
    for key in PER_LAYER_UNITS:
        if key.startswith("trace."):
            continue
        if key.endswith(".calls"):
            out[key] = calls.get(key[:-len(".calls")], 0) / n_ops
        else:
            out[key] = total.get(key, 0.0) / n_ops
    out["specfun.bessel_zero.computed"] = (bz - hits) / n_ops
    out["specfun.bessel_zero.hit_ratio"] = hits / bz if bz else 0.0
    out["transverse.levels.airy_calls_per_level"] = (
        airy_in_levels / levels_returned if levels_returned else 0.0)
    # certify() verifies once and halves on failure: extra q_functional calls.
    out["certify.halvings"] = max(total.get("certify.halvings", 0.0) - cert_calls, 0.0) / n_ops
    out["certify.nodes_per_certificate"] = cert_nodes / certs if certs else 0.0
    out["fd2d.assemble.nnz"] = statistics.fmean(nnzs) if nnzs else 0.0
    out["fd2d.splu.fill_ratio"] = statistics.fmean(fills) if fills else 0.0
    out["cli.import_s"] = total.get("cli.import.self_s", 0.0) / n_ops
    return out


def attributed(spans: list) -> float:
    """Sum of the self times of all spans of one op."""
    return sum(self_times(spans))
