"""Outside-in tracer for the ialex layers.

`Tracer.install()` rebinds the public functions of every layer in every
`ialex` module namespace that holds them (`from .laurent import gcd` copies
the binding), and the two public `FgGammaModule` constructors on the class.
Each call becomes one span: id, function name, layer, metric group, start,
end, parent span id, case id, a size (degree for `laurent`, matrix shape for
SNF, simplex count and stalk rank for twisted homology) and its self time,
which is its duration minus the time its child spans cover.  Spans stay in memory;
`write` saves them when the run ends.  `uninstall()` restores every binding.

The coercion helper `laurent.as_laurent` is not traced: it runs once per
matrix entry and would turn the trace into a count of entries.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "engine", "exactseq", "bounds", "gmodule", "laurent",
          "twisted")

# functions with a metric group of their own; the other public functions of
# these layers fall into "<layer>.other", those of the rest into "<layer>"
GROUPS = {
    "laurent": {"parse": "laurent.parse", "normalize": "laurent.normalize",
                "gcd": "laurent.gcd", "divides": "laurent.division",
                "exact_quotient": "laurent.division",
                "multiplicity": "laurent.division",
                "factor": "laurent.factor"},
    "gmodule": {"smith_normal_form": "gmodule.snf",
                "snf_transforms": "gmodule.snf",
                "kernel_basis": "gmodule.kernel_solve",
                "solve_left": "gmodule.kernel_solve",
                "kunneth": "gmodule.kunneth", "tensor": "gmodule.kunneth",
                "tor": "gmodule.kunneth", "cokernel": "gmodule.module",
                "order_polynomial": "gmodule.module",
                "primary_component": "gmodule.module",
                "from_summands": "gmodule.module",
                "direct_sum": "gmodule.module"},
    "twisted": {"twisted_homology": "twisted.homology",
                "e2_link_page": "twisted.e2", "e2_cone_page": "twisted.e2"},
    "cli": {"run_case": "cli.run_case", "render_report": "cli.render"},
}
UNTRACED = {"as_laurent"}


def _group(layer: str, name: str) -> str:
    if layer in GROUPS:
        return GROUPS[layer].get(name, f"{layer}.other")
    return layer


def _degree(value) -> int:
    degree = getattr(value, "degree", None)
    if isinstance(degree, int):
        return degree
    if getattr(value, "_terms", None):
        return value.span
    return 0


class Tracer:
    def __init__(self):
        # (id, name, group, start, end, parent, case, size, self)
        self.spans = []
        self.case = None
        self.max_degree = 0
        self.max_cells = 0
        self.max_simplices = 0
        self.snf_units = 0
        self.snf_rank = 0
        self.homology_calls = 0
        self.homology_repeats = 0
        self._seen_case = None
        self._seen = set()
        self._stack = []  # [span id, seconds covered by child spans]
        self._next = 0
        self._saved = []  # (namespace owner, attribute, original value)

    # -- installation ------------------------------------------------------

    def install(self):
        import ialex.cli  # noqa: F401  (imports every layer)
        from ialex.gmodule import FgGammaModule

        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "ialex" or name.startswith("ialex.")]
        for module in namespaces:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or name in UNTRACED:
                    continue
                wrapped = self._wrap(fn, f"{layer}.{name}",
                                     _group(layer, name))
                for owner in namespaces:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._rebind(owner, attr, wrapped)
        for name in ("from_summands", "direct_sum"):
            raw = vars(FgGammaModule)[name]
            qualified = f"gmodule.FgGammaModule.{name}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, qualified,
                                                 _group("gmodule", name)))
            else:
                wrapped = self._wrap(raw, qualified, _group("gmodule", name))
            self._rebind(FgGammaModule, name, wrapped)

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name: str, group: str):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        size_of = self._sizer(group)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, name, group, start, end, parent, self.case,
                              size_of(args, result),
                              end - start - frame[1]))

        return traced

    def _sizer(self, group: str):
        if group.startswith("laurent."):
            return self._laurent_size
        if group == "gmodule.snf":
            return self._snf_size
        if group == "twisted.homology":
            return self._homology_size
        return lambda args, result: None

    def _laurent_size(self, args, result) -> int:
        degree = max(max(map(_degree, args), default=0), _degree(result))
        self.max_degree = max(self.max_degree, degree)
        return degree

    def _snf_size(self, args, result) -> list:
        m = args[0]
        self.max_cells = max(self.max_cells, m.rows * m.cols)
        if result is None:
            return [m.rows, m.cols]
        if len(result) == 2:  # smith_normal_form: (factors, rank)
            factors, rank = result
            self.snf_units += sum(1 for f in factors if f.is_one)
            self.snf_rank += rank
        else:                 # snf_transforms: (U, S, V)
            s = result[1]
            diagonal = [s.entry(i, i) for i in range(min(s.rows, s.cols))]
            self.snf_units += sum(1 for e in diagonal if e.is_unit)
            self.snf_rank += sum(1 for e in diagonal if not e.is_zero)
        return [m.rows, m.cols]

    def _homology_size(self, args, result) -> list:
        tc = args[0]
        if self._seen_case != self.case:
            self._seen_case, self._seen = self.case, set()
        key = (tc.simplices, tuple(sorted(tc.monodromy.items())))
        self.homology_calls += 1
        self.homology_repeats += key in self._seen
        self._seen.add(key)
        self.max_simplices = max(self.max_simplices, len(tc.simplices))
        return [len(tc.simplices), tc.stalk.rank]

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict:
        """{group: [calls, self seconds]} over every recorded span."""
        out: dict = {}
        for span in self.spans:
            entry = out.setdefault(span[2], [0, 0.0])
            entry[0] += 1
            entry[1] += span[8]
        return out

    def covered(self, prefixes: tuple) -> float:
        """Seconds inside spans whose group starts with one of the prefixes,
        counting nested spans of those groups once."""
        parent_of = {span[0]: (span[5], span[2]) for span in self.spans}
        total = 0.0
        for sid, _, group, start, end, parent, *_ in self.spans:
            if not group.startswith(prefixes):
                continue
            while parent != -1 and not parent_of[parent][1].startswith(prefixes):
                parent = parent_of[parent][0]
            if parent == -1:
                total += end - start
        return total

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for (sid, name, group, start, end, parent, case, size,
                 own) in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "layer": name.split(".")[0],
                    "group": group,
                    "start": start, "end": end, "parent": parent,
                    "case": case, "size": size, "self": own}) + "\n")
