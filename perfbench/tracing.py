"""Spans around simspec's public functions, recorded from the benchmark.

``Tracer.install`` wraps each traced function or method and rebinds the
wrapper under every public name that held the original in any ``simspec``
module, because ``separators``, ``canonical`` and others import functions by
name.  A span is (name, parent, start, end); spans stay in memory in flat
arrays and are written out once, at the end of the run.  A span's self time
is its duration minus the durations of its direct children.

Only a root span (``bench.op``, one operation) opens outside every other
span.  Traced functions called outside an operation, as when the benchmark
builds its inputs or warms up, run untraced, so every span and count belongs
to the program's own work inside an operation.

``FieldElement`` construction is only counted: a span per scalar would cost
more than the work it measures.
"""

import functools
import json
import sys
import time
from array import array

# module -> public functions traced under "<module>.<name>"
FUNCTIONS = {
    "matrices": ("rank", "det", "inverse", "charpoly", "nullspace_basis",
                 "eigs_in_field"),
    "kernels": ("matmul_mod", "rref_mod", "rank_mod", "inverse_mod", "det_mod",
                "charpoly_mod", "eval_words_mod", "conjugator_search_mod"),
    "canonical": ("canonicalize", "has_simple_spectrum", "find_conjugator"),
    "separators": ("type_separation", "build_param_probe", "orbit_eq_by_ranks"),
    "staircase": ("staircase_cert",),
    "idempotents": ("entry_probe_poly",),
}

# (module, class, method) -> span name
METHODS = {
    ("matrices", "Mat", "__init__"): "matrices.Mat.new",
    ("matrices", "Mat", "__matmul__"): "matrices.Mat.matmul",
    ("ncpoly", "NcPoly", "eval"): "ncpoly.NcPoly.eval",
    ("ncpoly", "NcExpr", "eval"): "ncpoly.NcExpr.eval",
    ("separators", "InvariantProbe", "evaluate"): "separators.InvariantProbe.evaluate",
}

class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.counts = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn, on_call=None, root=False):
        """fn inside a span; on_call(args, result) may add to the counts.
        A span that is not a root opens only inside another span."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        tracer = self
        stack = self.stack

        def traced(*args, **kwargs):
            if len(stack) == 1 and not root:
                return fn(*args, **kwargs)
            sid = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1])
            tracer.span_end.append(0)
            stack.append(sid)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[sid] = clock()
                stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self, package):
        """Wrap and rebind in every loaded module of ``package``."""
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__ or name.startswith(prefix))]
        hooks = {"eval_words_mod": self._count_letters,
                 "conjugator_search_mod": self._count_candidates}
        for short, names in FUNCTIONS.items():
            home = sys.modules[prefix + short]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap("%s.%s" % (short, fname), orig, hooks.get(fname))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig and not attr.startswith("_"):
                            setattr(mod, attr, wrapped)
        for (short, cls, meth), name in METHODS.items():
            klass = getattr(sys.modules[prefix + short], cls)
            setattr(klass, meth, self.wrap(name, getattr(klass, meth)))
        element = sys.modules[prefix + "fields"].FieldElement
        orig_init = element.__init__
        counts, stack = self.counts, self.stack
        counts["fields.FieldElement.new"] = 0

        def counted_init(obj, field, value):
            if len(stack) > 1:
                counts["fields.FieldElement.new"] += 1
            orig_init(obj, field, value)

        element.__init__ = counted_init

    def _count_letters(self, args, result):
        self._add("kernels.eval_words_mod.letters", len(args[0]))

    def _count_candidates(self, args, result):
        # the kernel scans all p^(n*n) matrices and does not report how many
        # it scanned, so the ratio built from these counts is the constant
        # |GL_n(F_p)| / p^(n*n) on every correct answer: a sanity check
        n, p = args[0].shape[0], args[4]
        self._add("kernels.conjugator_search_mod.candidates", p ** (n * n))
        self._add("kernels.conjugator_search_mod.invertible", int(result[0]))

    def layer_totals(self):
        """{span name: [calls, self ns]} over every span recorded."""
        n = len(self.span_name)
        child = [0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[sid]
        totals = {name: [0, 0] for name in self.names}
        for sid in range(n):
            t = totals[self.names[self.span_name[sid]]]
            t[0] += 1
            t[1] += dur[sid] - child[sid]
        return totals

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "parent", "start_ns", "end_ns"],
                       "spans": [list(row) for row in zip(
                           self.span_name, self.span_parent,
                           self.span_start, self.span_end)]}, fh)
