"""In-memory span recorder for the traced in-process run.

The benchmark does not modify the package.  While a :class:`Tracer` is
installed it replaces each traced public function (and the ``__init__`` of
the traced dataclasses) with a wrapper, in every ``cvteleport`` module
that holds a reference to it, so calls made inside the package are
recorded too.  Each call becomes one span: name, start, end, parent span
and workload.  Spans live in flat arrays and are written out once, after
the run.  Uninstalling restores every replaced attribute.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter_ns


def _length(result) -> int:
    return len(result)


# (module, attribute path) -> (span name, size of the call's result or None).
# Dataclass constructors are traced through ``__init__``, which includes
# their validation in ``__post_init__``.  Sizes are taken after the span
# ends, so counting does not add to the span's time.
TRACED = {
    ("cvteleport.cli", "main"): ("cli.main", None),
    ("cvteleport.serialize", "config_from_json"): ("serialize.config_from_json", None),
    ("cvteleport.serialize", "to_json"): ("serialize.to_json", None),
    ("cvteleport.serialize", "sweep_to_csv"): (
        "serialize.sweep_to_csv",
        lambda text: text.count("\n") - 1,
    ),
    ("cvteleport.channel", "to_unity_gain_budget"): ("channel.to_unity_gain_budget", None),
    ("cvteleport.channel", "budget_to_channel"): ("channel.budget_to_channel", None),
    ("cvteleport.channel", "NoiseBudget.__init__"): ("channel.NoiseBudget", None),
    ("cvteleport.channel", "NoiseBudget.state"): ("channel.budget_state", None),
    ("cvteleport.gaussian", "GaussianVector.__init__"): ("gaussian.GaussianVector", None),
    ("cvteleport.gaussian", "conditional_variance"): ("gaussian.conditional_variance", None),
    ("cvteleport.gaussian", "sample"): ("gaussian.sample", _length),
    ("cvteleport.gaussian", "apply_form"): ("gaussian.apply_form", _length),
    ("cvteleport.criteria", "full_report"): ("criteria.full_report", None),
    ("cvteleport.criteria", "epr_criterion"): ("criteria.epr_criterion", None),
    ("cvteleport.criteria", "inequality_trace"): ("criteria.inequality_trace", None),
    ("cvteleport.criteria", "random_budgets"): ("criteria.random_budgets", _length),
    ("cvteleport.criteria", "run_chain_verification"): (
        "criteria.run_chain_verification",
        lambda summary: summary.trials,
    ),
    ("cvteleport.epr", "sweep"): ("epr.sweep", _length),
    ("cvteleport.epr", "closed_form"): ("epr.closed_form", None),
    ("cvteleport.epr", "to_noise_budget"): ("epr.to_noise_budget", None),
    ("cvteleport.montecarlo", "simulate_protocol"): (
        "montecarlo.simulate_protocol",
        lambda report: report.samples,
    ),
}


class Tracer:
    """Records spans into flat arrays; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.workloads: list[str] = []
        self.name_id = array("H")
        self.workload_id = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.size = array("q")
        self._stack: list[int] = []
        self._workload = 0
        self._patches: list[tuple[object, str, object, object]] = []

    def set_workload(self, workload: str) -> None:
        if workload not in self.workloads:
            self.workloads.append(workload)
        self._workload = self.workloads.index(workload)

    def _wrap(self, name: str, fn, sizer):
        nid = len(self.names)
        self.names.append(name)
        stack, name_id, workload_id = self._stack, self.name_id, self.workload_id
        start, end, parent, size = self.start, self.end, self.parent, self.size

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            workload_id.append(self._workload)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            size.append(-1)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if sizer is not None:
                size[idx] = sizer(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Put the wrappers in place; built once, on the first call."""
        if not self._patches:
            modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cvteleport"]
            for (module_name, path), (name, sizer) in TRACED.items():
                owner = sys.modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, sizer)
                for holder in [owner] if outer else modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original, wrapper))
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._patches:
            setattr(holder, key, original)

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self time in ns, summed size.

        Self time is a span's duration minus the durations of its direct
        children (calls nest strictly, so children never overlap).
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            rec = out.setdefault(
                self.names[self.name_id[i]],
                {"calls": 0, "total_ns": 0, "self_ns": 0, "size": 0},
            )
            rec["calls"] += 1
            rec["total_ns"] += dur[i]
            rec["self_ns"] += dur[i] - child[i]
            rec["size"] += max(self.size[i], 0)
        return out

    def durations(self, name: str, workload: str) -> list[int]:
        """Durations in ns of the spans with this name under this workload."""
        nid, wid = self.names.index(name), self.workloads.index(workload)
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_id[i] == nid and self.workload_id[i] == wid
        ]

    def write(self, path) -> None:
        """Write every span as gzipped TSV: id, name, workload, start, end, parent, size."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tworkload\tstart_ns\tend_ns\tparent\tsize\n")
            names, workloads = self.names, self.workloads
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{workloads[self.workload_id[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\t{self.size[i]}\n"
                )
