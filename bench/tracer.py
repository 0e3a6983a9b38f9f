"""Outside-in tracer for the benchmark's traced runs.

`Tracer.install` wraps every public function of every loaded `maninforge`
module, and every public method of the classes those modules define, without
touching the package's files.  Modules import each other's names with
`from .core import ...`, so each module attribute that *is* an original
function is rebound to its wrapper.  `uninstall` puts every original back.

A wrapped call records a span: its name, start, end, parent span and the op
it belongs to.  Spans stay in memory in flat arrays until `write`.  Functions
called a million times or more in one run get a wrapper that only counts,
because a span each would cost more than the call.  Some wrappers also count
the work a call was given, to form ratios where the work happens.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

# Called a million times or more per run: counted, never spanned.
COUNT_ONLY = frozenset({"homlie.HomLieAlgebra.bracket_basis", "core.SparseTensor.add_into"})

# Private functions traced as well: `manin_triple_checks` hands them out as the
# triple certifier's sub-checks, and the CLI's `verify` calls them directly.
PRIVATE = frozenset({"manin._part_report", "manin._splitting_report"})


def span_name(qualified: str) -> str:
    """Metric name of a traced function.  Methods of the algebra type are named
    after their module alone, and the parse and format families of `fileio`
    are grouped."""
    module, _, rest = qualified.partition(".")
    if module == "homlie" and rest.startswith("HomLieAlgebra."):
        return "homlie." + rest.partition(".")[2]
    if module == "fileio" and rest.startswith(("parse_", "format_")):
        return "fileio." + rest.partition("_")[0]
    return qualified


def _mat_vec_products(counters: Counter, args: tuple, result) -> None:
    m, v = args[0], args[1]
    nonzero = [j for j, x in enumerate(v) if x]
    counters["core.mat_vec.products"] += len(m) * len(v)
    counters["core.mat_vec.useful"] += sum(1 for row in m for j in nonzero if row[j])


def _rref_cells(counters: Counter, args: tuple, result) -> None:
    m = args[0]
    counters["core.rref.cells"] += len(m) * (len(m[0]) if m else 0)


def _parsed_bytes(counters: Counter, args: tuple, result) -> None:
    counters["fileio.parse.bytes"] += len(args[0].encode())


def _formatted_bytes(counters: Counter, args: tuple, result) -> None:
    counters["fileio.format.bytes"] += len(result.encode())


# Work counted after a span closes, keyed by span name.
WORK = {
    "core.mat_vec": _mat_vec_products,
    "core.rref": _rref_cells,
    "fileio.parse": _parsed_bytes,
    "fileio.format": _formatted_bytes,
}


class Tracer:
    """The spans and counts of one traced run, and the rebindings that make them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_outer = array("b")  # 1 when no span of the same name encloses it
        self.span_start = array("d")
        self.span_end = array("d")
        self.tallies: dict[str, list[int]] = {}  # count-only name -> [calls, nonempty returns]
        self.counters: Counter[str] = Counter()  # work counted by WORK
        self.op = -1
        self._stack = [-1]
        self._active: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def install(self, package: str = "maninforge") -> None:
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        wrappers: dict[int, Callable] = {}  # id of an original -> its wrapper
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                qualified = f"{short}.{attr}"
                if inspect.isfunction(value) and (not attr.startswith("_") or qualified in PRIVATE):
                    wrappers[id(value)] = self._wrap(value, qualified)
                elif inspect.isclass(value) and not attr.startswith("_"):
                    self._patch_class(value, short)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])

    def _patch_class(self, cls: type, short: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualified = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, qualified))
            elif isinstance(raw, (classmethod, staticmethod)) and inspect.isfunction(raw.__func__):
                self._set(cls, attr, type(raw)(self._wrap(raw.__func__, qualified)))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every attribute `install` rebound."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn: Callable, qualified: str) -> Callable:
        name = span_name(qualified)
        if qualified in COUNT_ONLY:
            return self._counting(fn, name)
        return self._spanning(fn, name)

    def _counting(self, fn: Callable, name: str) -> Callable:
        tally = self.tallies.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tally[0] += 1
            if result:
                tally[1] += 1
            return result

        return wrapper

    def _spanning(self, fn: Callable, name: str) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        nid = self._ids[name]
        work = WORK.get(name)
        counters, stack, active = self.counters, self._stack, self._active
        names, parents, ops, outer = self.span_name, self.span_parent, self.span_op, self.span_outer
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            outer.append(active[nid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            active[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[nid] -= 1
                stack.pop()
                starts[index] = start
                ends[index] = end
            if work is not None:
                work(counters, args, result)
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = [end - start for start, end in zip(starts, ends)]
        for index, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[index] - starts[index]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, and total_s counting only outermost
        spans of that name, so that recursion is not counted twice."""
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for nid, own, outer, start, end in zip(
            self.span_name, self.self_times(), self.span_outer, self.span_start, self.span_end
        ):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += own
            if outer:
                entry["total_s"] += end - start
        for name, (calls, nonempty) in self.tallies.items():
            out[name] = {"calls": calls, "hit_ratio": nonempty / calls if calls else 0.0}
        return out

    def self_by_op(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for op, own in zip(self.span_op, self.self_times()):
            out[op] = out.get(op, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        """Write every span as `name start end parent op`, gzip-compressed,
        after a header line listing the span names in id order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("# names " + " ".join(self.names) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op):
                handle.write("%d %.9f %.9f %d %d\n" % row)
