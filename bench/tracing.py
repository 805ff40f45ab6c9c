"""Spans around each layer's public functions, installed from outside src/.

A layer is a planefol module. Every module-level public function defined in
a layer module is replaced, in every planefol namespace that binds it, by a
wrapper that records one span: name, start, end, parent span and task index.
``Foliation.__init__`` and ``RootBox.refine`` are patched on their classes.
``numbers`` is not wrapped: QuadExt has no entry point coarse enough, so its
cost shows as self time of the layers that call it. MPoly methods are not
wrapped either; their time is self time of their callers.

The work is single-threaded and does no I/O to speak of, so no layer ever
waits; the report says so instead of printing zero waiting times.

Spans are kept in flat arrays while the pass runs and written out, gzipped,
when it ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

LAYERS = ("mpoly", "roots", "algebraic", "foliation", "singularities", "blowup",
          "curves", "bounds", "families", "cli")

# Functions the per-layer metrics name, with the workload that must call each.
# A listed function with zero calls there means a wrapper missed a binding,
# and the traced run fails.
HOME = {
    "algebraic.invert_mod": "pullback",
    "algebraic.xgcd_univar": "pullback",
    "algebraic.zero_split": "pullback",
    "singularities.milnor_clusters": "pullback",
    "singularities.singular_points": "pullback",
    "families.dicritical_count": "pullback",
    "singularities.classify_singularity": "generic",
    "mpoly.subresultant_prs": "generic",
    "mpoly.resultant": "generic",
    "roots.isolate_real_roots": "generic",
    "roots.isolate_roots": "generic",
    "roots.RootBox.refine": "generic",
    "mpoly.exact_div": "extactic",
    "mpoly.poly_gcd": "extactic",
    "curves.extactic": "extactic",
    "foliation.Foliation.__init__": "resolve",
    "blowup.blow_up": "resolve",
    "curves.genus": "resolve",
    "cli.main": "resolve",
}

NO_WAITING = ("no layer waits: the program is single-threaded and does no I/O "
              "to speak of, so every span is busy time")


def _planefol_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "planefol" or name.startswith("planefol.")]


def _coeff_bits(p):
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in p.terms.values()), default=0)


class Tracer:
    """Records spans for one pass; `task` is set by the caller per task."""

    def __init__(self, workload):
        self.workload = workload
        self.task = -1
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.task_of = array("l")
        self.name_of = array("l")
        self.stack = []
        self.first = 0  # first span of the current task
        self.patched = []  # (owner, attribute, original)
        # counters read from arguments, results and exceptions
        self.split_needed = 0
        self.max_modulus_deg = 0
        self.max_coeff_bits = 0
        self.zero_split_splits = 0
        self.kinds = 0
        self.undetermined = 0
        self.max_tree_depth = 0

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original) for every wrapped callable."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module("planefol." + layer)
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and callable(value)
                        and getattr(value, "__module__", None) == mod.__name__
                        and type(value).__name__ == "function"):
                    out.append((f"{layer}.{attr}", mod, attr, value))
        foliation = importlib.import_module("planefol.foliation")
        roots = importlib.import_module("planefol.roots")
        out.append(("foliation.Foliation.__init__", foliation.Foliation, "__init__",
                    foliation.Foliation.__init__))
        out.append(("roots.RootBox.refine", roots.RootBox, "refine", roots.RootBox.refine))
        return out

    def install(self):
        targets = self._targets()
        wrappers = {id(orig): self._wrap(name, orig) for name, _, _, orig in targets}
        originals = {id(orig): orig for _, _, _, orig in targets}
        for _, owner, attr, orig in targets:
            if isinstance(owner, type):
                setattr(owner, attr, wrappers[id(orig)])
                self.patched.append((owner, attr, orig))
        # rebind every alias: `from .x import f` copied the binding
        for mod in _planefol_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)] is value:
                    setattr(mod, attr, wrappers[id(value)])
                    self.patched.append((mod, attr, value))
        self._check_no_stray_binding(originals)

    @staticmethod
    def _check_no_stray_binding(originals):
        """Fail if an original is still reachable from a planefol container
        (a dict, list or tuple at module level), where no wrapper reaches."""
        for mod in _planefol_modules():
            for attr, value in vars(mod).items():
                items = (value.values() if isinstance(value, dict)
                         else value if isinstance(value, (list, tuple)) else ())
                for item in items:
                    if id(item) in originals and originals[id(item)] is item:
                        raise RuntimeError(f"{mod.__name__}.{attr} holds unwrapped "
                                           f"{item.__qualname__}")

    def uninstall(self):
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched = []

    def _wrap(self, name, fn):
        name_idx = len(self.names)
        self.names.append(name)
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        start, end, parent, task_of, name_of, stack = (
            self.start, self.end, self.parent, self.task_of, self.name_of, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(name_idx)
            parent.append(stack[-1] if stack else -1)
            task_of.append(self.task)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            result = err = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                err = e
                raise
            finally:
                end[i] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, result, err)

        return wrapper

    def finish_task(self):
        """Repair the arrays after a task: a ceiling alarm can land between a
        wrapper's appends or inside its `finally`."""
        n = min(len(self.start), len(self.end), len(self.parent), len(self.task_of),
                len(self.name_of))
        for col in (self.start, self.end, self.parent, self.task_of, self.name_of):
            del col[n:]
        now = time.perf_counter()
        for i in range(self.first, n):
            if self.end[i] < self.start[i]:
                self.end[i] = now
        self.first = n
        self.stack.clear()

    # -- counters at the same boundaries ---------------------------------------

    def _hook_algebraic_invert_mod(self, args, result, err):
        a, f, var = args[:3]
        self.max_modulus_deg = max(self.max_modulus_deg, f.deg_in(var))
        self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(a), _coeff_bits(f))
        if type(err).__name__ == "SplitNeeded":
            self.split_needed += 1

    def _hook_algebraic_zero_split(self, args, result, err):
        if result is not None and result[0] == "split":
            self.zero_split_splits += 1

    def _hook_singularities_classify_singularity(self, args, result, err):
        for _, kind in result or ():
            self.kinds += 1
            self.undetermined += kind == "undetermined"

    def _tree_depth(self, nodes):
        self.max_tree_depth = max([self.max_tree_depth] + [n.depth() for n in nodes])

    def _hook_blowup_seidenberg_reduce(self, args, result, err):
        if result is not None:
            self._tree_depth(result.nodes)

    _hook_blowup_safe_resolution = _hook_blowup_seidenberg_reduce

    def _hook_blowup_reduce_local_field(self, args, result, err):
        if result is not None:
            self._tree_depth([result])

    # -- results ---------------------------------------------------------------

    def report(self, task_ids, spans_path=None):
        """Per-layer metrics of the pass; writes the spans if a path is given."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        gcd_in_init = 0.0
        init_idx = self.names.index("foliation.Foliation.__init__")
        gcd_idx = self.names.index("mpoly.poly_gcd")
        for i in range(n):
            nm = self.names[self.name_of[i]]
            own = dur[i] - child[i]
            calls[nm] += 1
            self_s[nm] += own
            layer = nm.split(".", 1)[0]
            layer_calls[layer] += 1
            layer_self[layer] += own
            p = self.parent[i]
            if self.name_of[i] == gcd_idx and p >= 0 and self.name_of[p] == init_idx:
                gcd_in_init += dur[i]

        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = (layer_calls[layer], "count")
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        for fn in ("algebraic.invert_mod", "mpoly.poly_gcd", "algebraic.zero_split",
                   "singularities.singular_points", "blowup.blow_up"):
            m[f"{fn}.calls"] = (calls[fn], "count")
        for fn in ("algebraic.invert_mod", "algebraic.xgcd_univar",
                   "singularities.milnor_clusters", "singularities.classify_singularity",
                   "mpoly.subresultant_prs", "mpoly.resultant", "roots.isolate_real_roots",
                   "roots.isolate_roots", "mpoly.exact_div", "mpoly.poly_gcd",
                   "curves.extactic", "blowup.blow_up", "cli.main", "curves.genus",
                   "families.dicritical_count"):
            m[f"{fn}.self_s"] = (self_s[fn], "s")
        zs = calls["algebraic.zero_split"]
        m.update({
            "algebraic.split_needed": (self.split_needed, "count"),
            "algebraic.invert_mod.max_modulus_deg": (self.max_modulus_deg, "deg"),
            "algebraic.invert_mod.max_coeff_bits": (self.max_coeff_bits, "bits"),
            "algebraic.zero_split.split_share": (self.zero_split_splits / zs if zs else 0.0,
                                                 "share"),
            "singularities.undetermined_share": (
                self.undetermined / self.kinds if self.kinds else 0.0, "share"),
            "roots.refine.calls": (calls["roots.RootBox.refine"], "count"),
            "foliation.constructions": (calls["foliation.Foliation.__init__"], "count"),
            "foliation.coprime_gcd_s": (gcd_in_init, "s"),
            "blowup.max_tree_depth": (self.max_tree_depth, "count"),
        })
        missing = sorted(fn for fn, home in HOME.items()
                         if home == self.workload and calls[fn] == 0)
        if spans_path:
            with gzip.open(spans_path, "wt") as fh:
                json.dump({"workload": self.workload, "note": NO_WAITING,
                           "names": self.names, "tasks": task_ids,
                           "name": list(self.name_of), "start": list(self.start),
                           "end": list(self.end), "parent": list(self.parent),
                           "task": list(self.task_of)}, fh)
        return {"metrics": {k: {"value": v, "unit": u} for k, v, u in
                            ((k, v[0], v[1]) for k, v in m.items())},
                "spans": n, "missing_calls": missing, "note": NO_WAITING}
