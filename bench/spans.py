"""Span recorder for the traced benchmark run.

`Recorder.install` wraps the public functions of each dilatree layer so
that every call made while the recorder is active becomes one span:
name, start, end, parent span and operation id, plus one integer the
span's measure extracts from the call (the requested bits of a
`sqrt_interval`, the term count of a `SqrtSum.sign`, the verdict of a
`compare_to_threshold`, the bytes a file call moved).  Spans live in
flat arrays until the run ends; `layer_metrics` then derives the
per-layer counts and self times from them.  `PointSet.dist_ints` is
the one exception: it runs up to a million times per pass, so its calls
and cache misses are counted instead, and its time stays in its
caller's self time.

A wrapped name is replaced in every dilatree module that holds it, so
`solver`'s own imported `tree_dilation` is traced as well as the
package export.  Calls made while the recorder is inactive (input
generation and answer checks) pass straight through.
"""

import os
import sys
from array import array
from time import perf_counter

# a span is a layer boundary; its measure turns (args, kwargs, result)
# into the integer stored with the span, or into a tuple kept in `extra`;
# `result` is RAISED when the call raised, and None means "store nothing"
RAISED = object()


def _bits_arg(args, kwargs, result):
    return kwargs["bits"] if "bits" in kwargs else args[1]


def _term_count(args, kwargs, result):
    return len(args[0].terms)


def _is_greater(args, kwargs, result):
    return None if result is RAISED else int(result.value == "greater")


def _report_fields(args, kwargs, result):
    return None if result is RAISED \
        else (result.precision_used, int(result.tied))


def _solver_fields(args, kwargs, result):
    return None if result is RAISED \
        else (result.trees_examined, result.pruned)


def _written_bytes(args, kwargs, result):
    return None if result is RAISED else os.path.getsize(args[1])


def _read_bytes(args, kwargs, result):
    return None if result is RAISED else os.path.getsize(args[0])


def replace_everywhere(original, replacement):
    """Rebind every dilatree module attribute that is `original`.

    Returns the (module, name, old value) triples that undo the change.
    """
    undo = []
    for modname, mod in sorted(sys.modules.items()):
        if modname != "dilatree" and not modname.startswith("dilatree."):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                undo.append((mod, key, val))
                setattr(mod, key, replacement)
    return undo


class Recorder:
    """Collects spans for the calls into dilatree made during operations."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.failed = array("b")
        self.extra = {}
        # PointSet.dist_ints runs up to a million times per pass, so it is
        # counted (per enclosing search or decide span) rather than spanned
        self.dist_calls = {}
        self.dist_misses = 0
        self.active = False
        self.op_id = -1
        self._current = -1
        self._scope = -1
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, measure=None, scope=False):
        """Return `fn` recording a span per call; `name` may be a callable
        of the call's arguments when one function serves several spans.
        A `scope` span is the one dist_ints calls beneath it are
        attributed to."""
        rec = self
        fixed = None if callable(name) else self._name_id(name)

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None \
                else rec._name_id(name(args, kwargs))
            idx = len(rec.name)
            rec.name.append(nid)
            rec.parent.append(rec._current)
            rec.op.append(rec.op_id)
            rec.end.append(0.0)
            rec.value.append(0)
            rec.failed.append(0)
            outer = rec._current
            rec._current = idx
            outer_scope = rec._scope
            if scope:
                rec._scope = idx
            rec.start.append(perf_counter())
            result = RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec.end[idx] = perf_counter()
                rec._current = outer
                rec._scope = outer_scope
                if result is RAISED:
                    rec.failed[idx] = 1
                got = None if measure is None \
                    else measure(args, kwargs, result)
                if isinstance(got, tuple):
                    rec.extra[idx] = got
                elif got is not None:
                    rec.value[idx] = got

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def count_dist_ints(self, fn):
        """Return `fn` counting calls; a call that opened a span (its
        sqrt_interval) missed the enclosure cache."""
        rec = self

        def counted(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            spans_before = len(rec.name)
            try:
                return fn(*args, **kwargs)
            finally:
                scope = rec.name[rec._scope] if rec._scope >= 0 else -1
                rec.dist_calls[scope] = rec.dist_calls.get(scope, 0) + 1
                if len(rec.name) > spans_before:
                    rec.dist_misses += 1

        counted.__wrapped__ = fn
        return counted

    def _patch_attr(self, owner, key, wrapper):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def install(self):
        """Wrap every traced function of the dilatree package."""
        from dilatree import (cli, dilation, exactgeom, fileio, gadget,
                              radical, solver)
        def everywhere(original, name, measure=None, scope=False):
            self._undo += replace_everywhere(
                original, self.wrap(original, name, measure, scope))

        everywhere(exactgeom.sqrt_interval, "exactgeom.sqrt_interval",
                   _bits_arg)

        sqrt_sum = radical.SqrtSum
        self._patch_attr(sqrt_sum, "sign",
                         self.wrap(sqrt_sum.sign, "radical.sign", _term_count))
        self._patch_attr(sqrt_sum, "sqrt_of", classmethod(self.wrap(
            sqrt_sum.__dict__["sqrt_of"].__func__, "radical.sqrt_of")))

        self._patch_attr(dilation.PointSet, "dist_ints",
                         self.count_dist_ints(dilation.PointSet.dist_ints))
        self._patch_attr(dilation.Tree, "__init__", self.wrap(
            dilation.Tree.__init__, "dilation.tree_init"))
        everywhere(dilation.compare_to_threshold,
                   "dilation.compare_to_threshold", _is_greater)
        everywhere(dilation.tree_dilation, "dilation.tree_dilation",
                   _report_fields)
        everywhere(dilation.pair_dilation, "dilation.pair_dilation")
        everywhere(dilation.critical_edges, "dilation.critical_edges")

        def mdst_name(args, kwargs):
            opts = kwargs.get("opts", args[1] if len(args) > 1 else None)
            mode = opts.mode.value if opts is not None else "tree"
            return f"solver.mdst_{mode}"

        everywhere(solver.mdst_exact, mdst_name, _solver_fields, True)
        everywhere(solver.exhaustive_mdst, "solver.exhaustive",
                   _solver_fields, True)

        for fn in ("build_gadget", "verify_gadget", "decide_partition"):
            everywhere(getattr(gadget, fn), f"gadget.{fn}",
                       scope=fn == "decide_partition")

        file_measures = {"dump_json": _written_bytes,
                         "load_json": _read_bytes}
        for key, val in sorted(vars(fileio).items()):
            if callable(val) and not key.startswith("_") \
                    and getattr(val, "__module__", "") == fileio.__name__:
                everywhere(val, f"fileio.{key}", file_measures.get(key))

        for sub in ("gen", "verify", "decide"):
            everywhere(getattr(cli, f"_cmd_{sub}"), f"cli.{sub}")

    def uninstall(self):
        while self._undo:
            owner, key, val = self._undo.pop()
            setattr(owner, key, val)

    # -- aggregation ------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time its children cover.

        Calls are nested on one thread, so children never overlap and
        their durations simply add up.
        """
        n = len(self.name)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        return array("d", (dur[i] - child[i] for i in range(n)))


# per-layer metrics: name -> unit; counts and self times are per pass
LAYER_UNITS = {
    "exactgeom.sqrt_interval.calls": "count",
    "exactgeom.sqrt_interval.calls_ge256": "count",
    "exactgeom.sqrt_interval.max_bits": "bits",
    "exactgeom.sqrt_interval.self_s": "s",
    "radical.sign.calls": "count",
    "radical.sign.max_terms": "count",
    "radical.sign.exhausted": "count",
    "radical.sign.self_s": "s",
    "radical.sqrt_of.calls": "count",
    "radical.sqrt_of.self_s": "s",
    "dilation.dist_ints.calls": "count",
    "dilation.dist_ints.miss_ratio": "ratio",
    "dilation.tree_init.calls": "count",
    "dilation.tree_init.self_s": "s",
    "dilation.compare_to_threshold.calls": "count",
    "dilation.compare_to_threshold.self_s": "s",
    "dilation.compare_to_threshold.greater_ratio": "ratio",
    "dilation.tree_dilation.calls": "count",
    "dilation.tree_dilation.self_s": "s",
    "dilation.tree_dilation.max_precision_used": "bits",
    "dilation.tree_dilation.tied": "count",
    "dilation.pair_dilation.calls": "count",
    "dilation.critical_edges.calls": "count",
    "dilation.critical_edges.self_s": "s",
    "solver.mdst_tree.self_s": "s",
    "solver.mdst_path.self_s": "s",
    "solver.mdst_tour.self_s": "s",
    "solver.exhaustive.self_s": "s",
    "solver.candidates_examined": "count",
    "solver.pruned": "count",
    "solver.certified_per_candidate": "ratio",
    "gadget.build_gadget.self_s": "s",
    "gadget.verify_gadget.self_s": "s",
    "gadget.decide_partition.self_s": "s",
    "gadget.trees_tried": "count",
    "gadget.dist_ints_per_tree": "ratio",
    "fileio.self_s": "s",
    "fileio.bytes": "bytes",
    "cli.gen.self_s": "s",
    "cli.verify.self_s": "s",
    "cli.decide.self_s": "s",
    "failed_ratio": "ratio",
    "known_defects.failed": "count",
    "trace.spans": "count",
    "trace.throughput_ops_s": "1/s",
}

_SOLVERS = ("solver.mdst_tree", "solver.mdst_path", "solver.mdst_tour",
            "solver.exhaustive")
_SCOPES = _SOLVERS + ("gadget.decide_partition",)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec, passes):
    """Per-layer metrics from the recorded spans, per pass.

    Work counts repeat exactly from pass to pass, so they are whole
    numbers; the maxima are over the whole run.
    """
    own = rec.self_times()
    names = rec.names
    k = len(names)
    calls = [0] * k
    self_s = [0.0] * k
    failed = [0] * k
    value_sum = [0] * k
    value_max = [0] * k
    # the innermost enclosing search or decide span, by name id
    scope = array("i", bytes(4 * len(rec.name)))
    scoped = {}
    scope_ids = {names.index(s) for s in _SCOPES if s in names}
    sqrt_id = names.index("exactgeom.sqrt_interval") \
        if "exactgeom.sqrt_interval" in names else -1
    for i, nid in enumerate(rec.name):
        p = rec.parent[i]
        outer = scope[p] if p >= 0 else -1
        scope[i] = nid if nid in scope_ids else outer
        if outer >= 0:
            key = (names[outer], names[nid])
            scoped[key] = scoped.get(key, 0) + 1
        calls[nid] += 1
        self_s[nid] += own[i]
        failed[nid] += rec.failed[i]
        value_sum[nid] += rec.value[i]
        value_max[nid] = max(value_max[nid], rec.value[i])

    def by(name, table, default=0):
        return table[names.index(name)] if name in names else default

    def per_pass(x):
        return x / passes

    dist_calls = sum(rec.dist_calls.values())
    td_id = names.index("dilation.tree_dilation") \
        if "dilation.tree_dilation" in names else -1
    precision = tied = 0
    examined = pruned = 0
    for i, fields in rec.extra.items():
        if rec.name[i] == td_id:
            precision = max(precision, fields[0])
            tied += fields[1]
        else:
            examined += fields[0]
            pruned += fields[1]
    in_solver = sum(scoped.get((s, "dilation.tree_dilation"), 0)
                    for s in _SOLVERS)
    tried = scoped.get(("gadget.decide_partition",
                        "dilation.compare_to_threshold"), 0)
    decide_dist = rec.dist_calls.get(
        names.index("gadget.decide_partition")
        if "gadget.decide_partition" in names else -2, 0)
    compares = by("dilation.compare_to_threshold", calls)
    fileio_ids = [i for i, n in enumerate(names) if n.startswith("fileio.")]
    out = {
        "exactgeom.sqrt_interval.calls":
            per_pass(by("exactgeom.sqrt_interval", calls)),
        "exactgeom.sqrt_interval.calls_ge256": per_pass(sum(
            1 for i, nid in enumerate(rec.name)
            if nid == sqrt_id and rec.value[i] >= 256)),
        "exactgeom.sqrt_interval.max_bits":
            by("exactgeom.sqrt_interval", value_max),
        "radical.sign.calls": per_pass(by("radical.sign", calls)),
        "radical.sign.max_terms": by("radical.sign", value_max),
        "radical.sign.exhausted": per_pass(by("radical.sign", failed)),
        "radical.sqrt_of.calls": per_pass(by("radical.sqrt_of", calls)),
        "dilation.dist_ints.calls": per_pass(dist_calls),
        "dilation.dist_ints.miss_ratio": _ratio(rec.dist_misses, dist_calls),
        "dilation.tree_init.calls": per_pass(by("dilation.tree_init", calls)),
        "dilation.compare_to_threshold.calls": per_pass(compares),
        "dilation.compare_to_threshold.greater_ratio": _ratio(
            by("dilation.compare_to_threshold", value_sum),
            compares - by("dilation.compare_to_threshold", failed)),
        "dilation.tree_dilation.calls":
            per_pass(by("dilation.tree_dilation", calls)),
        "dilation.tree_dilation.max_precision_used": precision,
        "dilation.tree_dilation.tied": per_pass(tied),
        "dilation.pair_dilation.calls":
            per_pass(by("dilation.pair_dilation", calls)),
        "dilation.critical_edges.calls":
            per_pass(by("dilation.critical_edges", calls)),
        "solver.candidates_examined": per_pass(examined),
        "solver.pruned": per_pass(pruned),
        "solver.certified_per_candidate": _ratio(in_solver, examined),
        "gadget.trees_tried": per_pass(tried),
        "gadget.dist_ints_per_tree": _ratio(decide_dist, tried),
        "fileio.self_s": per_pass(sum(self_s[i] for i in fileio_ids)),
        "fileio.bytes": per_pass(sum(value_sum[i] for i in fileio_ids)),
        "trace.spans": per_pass(len(rec.name)),
    }
    for metric in LAYER_UNITS:
        if metric.endswith(".self_s") and metric not in out:
            out[metric] = per_pass(by(metric[:-len(".self_s")], self_s, 0.0))
    return out
