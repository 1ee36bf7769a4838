"""In-memory span tracer for the traced benchmark run.

The tracer replaces, for the duration of one plan, every package
function that the CLI module binds from another package module, plus
`run_pipeline` itself and `realization.subset_select`, with a wrapper
that records a span (name, layer, start, end, parent span, plan id)
and a few exact work counters. The package source is never edited;
`uninstall` restores the original bindings.

A function's layer is the package module that defines it; `cli` holds
`run_pipeline` and everything it does between child spans (argument
parsing, dispatch, printing).
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "solvers", "realization", "io", "plan", "oracle")


class Tracer:
    def __init__(self, cli, realization):
        package = cli.__name__.rpartition(".")[0] + "."
        targets = [
            (cli, name, fn)
            for name, fn in vars(cli).items()
            if inspect.isfunction(fn) and fn.__module__.startswith(package) and fn.__module__ != cli.__name__
        ]
        targets.append((cli, "run_pipeline", cli.run_pipeline))
        targets.append((realization, "subset_select", realization.subset_select))
        # (name, layer, start, end, parent index or -1, plan id)
        self.spans: list[tuple[str, str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.plan = -1
        self._stack: list[int] = []
        self._targets = [(mod, name, fn, self._wrap(name, fn)) for mod, name, fn in targets]

    def install(self, plan: int) -> None:
        self.plan = plan
        for mod, name, _, wrapper in self._targets:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn, _ in self._targets:
            setattr(mod, name, fn)

    def _wrap(self, name: str, fn):
        layer = fn.__module__.rpartition(".")[2]
        spans, stack, observe = self.spans, self._stack, self._observe

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.plan)
            observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        if name.startswith("solve_"):
            counts["solvers.visited_states"] += result.visited_states
        elif name == "subset_select":
            items, capacity = len(args[0].items), args[0].capacity
            counts["realization.subset_calls"] += 1
            counts["realization.donor_items"] += items
            counts["realization.subset_cells"] += items * capacity
        elif name == "realize_transfers":
            for x, residual in zip(args[1].x, result.residuals):
                if x:
                    counts["requests"] += 1
                    counts["exact_hits"] += residual == 0
        elif name == "brute_force_transfers":
            counts["oracle.states"] += result.visited_states
        elif name == "brute_force_subset":
            counts["oracle.states"] += 1 << len(args[0].items)

    def self_times(self, field: str = "name") -> dict[str, float]:
        """Seconds per span name, or per layer with field="layer", child spans subtracted."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0) if field == "layer" else defaultdict(float)
        for (name, layer, start, end, _, _), inner in zip(self.spans, child):
            out[name if field == "name" else layer] += end - start - inner
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, layer, start, end, parent, plan) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent, "plan": plan}) + "\n")
