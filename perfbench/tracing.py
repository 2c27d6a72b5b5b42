"""Outside-in tracing of the chernmather layers.

A Tracer replaces each public function of the package's modules by a
wrapper that records a span: (span id, parent span id, name, start ns,
end ns, outermost-for-this-function flag, outermost-for-this-module flag).
Every module that bound the function by name gets the wrapper, so calls
through `from .grassmann import lr_multiply` are seen too.  Nothing under
the package changes; the tracer is installed only inside a job's own
process, after the fork, so the runner stays untraced.

Spans stay in memory for the life of the job process and are handed back
to the runner, which reduces them to per-layer numbers with `summarize`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYER_MODULES = ("classpoly", "detvar", "grassmann", "linsolve", "quadric", "strata")

# Partition-shape helpers run per term inside the Chow ring arithmetic; a
# span around them would cost more than the work it times.
UNTRACED = {"normalize_partition", "fits_box", "conjugate", "box_complement"}

ROOT = "cli.main"


class Tracer:
    """Collects spans and counts for one job."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack = [0]
        self.next_id = 1
        self.active_fn: Counter = Counter()
        self.active_mod: Counter = Counter()
        self.counts: Counter = Counter()
        self.involute_inputs: set = set()
        self.cached: dict[str, object] = {}

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere it is bound."""
        import chernmather.strata as strata

        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "chernmather" or name.startswith("chernmather."))]
        wrappers = {}
        for layer in LAYER_MODULES:
            module = sys.modules[f"chernmather.{layer}"]
            for attr, fn in vars(module).items():
                plain = inspect.unwrap(fn) if callable(fn) else None
                if (attr.startswith("_") or attr in UNTRACED or not inspect.isfunction(plain)
                        or plain.__module__ != module.__name__
                        or inspect.isgeneratorfunction(plain)):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self._wrap(name, layer, fn)
                if hasattr(fn, "cache_info"):
                    self.cached[name] = fn
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        from_dict = strata.StratifiedPair.__dict__["from_dict"].__func__
        strata.StratifiedPair.from_dict = classmethod(
            self._wrap("strata.from_dict", "strata", from_dict))

    def _wrap(self, name: str, layer: str, fn):
        probe = _PROBES.get(name)
        spans, stack = self.spans, self.stack
        active_fn, active_mod = self.active_fn, self.active_mod
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(self, *args, **kwargs)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            outer_fn = active_fn[name] == 0
            outer_mod = active_mod[layer] == 0
            active_fn[name] += 1
            active_mod[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active_fn[name] -= 1
                active_mod[layer] -= 1
                stack.pop()
                spans.append((sid, parent, name, start, end, outer_fn, outer_mod))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- the job --------------------------------------------------------

    def run(self, call):
        """Run call() as the root span; return its result."""
        start = time.perf_counter_ns()
        try:
            return call()
        finally:
            self.spans.append((0, -1, ROOT, start, time.perf_counter_ns(), True, True))

    def finish(self) -> dict:
        counts = dict(self.counts)
        for name, fn in self.cached.items():
            info = fn.cache_info()
            counts[f"{name}.hits"] = info.hits
            counts[f"{name}.misses"] = info.misses
        counts["classpoly.involute.inputs"] = len(self.involute_inputs)
        return {"spans": self.spans, "counts": counts}


def _probe_solve(tracer: Tracer, rows, rhs, context=""):
    tracer.counts["linsolve.exact_solve.equations"] += len(rows)
    tracer.counts["linsolve.exact_solve.unknowns"] += len(rows[0]) if rows else 0


def _probe_involute(tracer: Tracer, f, d):
    tracer.involute_inputs.add((f.coeffs, d))


_PROBES = {"linsolve.exact_solve": _probe_solve, "classpoly.involute": _probe_involute}


# -- reduction --------------------------------------------------------------


def summarize(spans: list[tuple]) -> tuple[dict, dict]:
    """Per-job times and call counts from one job's spans.

    Returns (times in seconds, counts).  For a function f: `f.s` sums the
    spans of f not nested in another f span, `f.self_s` sums the part of
    each f span that no child span covers.  For a module m: `m.s` and
    `m.self_s` do the same over every span of the module.
    """
    covered: dict[int, int] = defaultdict(int)
    for _sid, parent, _name, start, end, _of, _om in spans:
        covered[parent] += end - start
    times: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, _parent, name, start, end, outer_fn, outer_mod in spans:
        module = name.split(".")[0]
        dur = end - start
        own = (dur - covered[sid]) / 1e9
        times[f"{name}.self_s"] += own
        times[f"{module}.self_s"] += own
        if outer_fn:
            times[f"{name}.s"] += dur / 1e9
        if outer_mod:
            times[f"{module}.s"] += dur / 1e9
        calls[f"{name}.calls"] += 1
    return dict(times), dict(calls)


def report_counts(text: str) -> dict:
    """Size of a rendered report and the largest integer bit length in it
    (integers beyond 64 bits are rendered as decimal strings)."""
    bits = 0
    stack = [json.loads(text)]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
        elif isinstance(value, int) and not isinstance(value, bool):
            bits = max(bits, abs(value).bit_length())
        elif isinstance(value, str) and value.lstrip("-").isdigit() and len(value) > 18:
            bits = max(bits, abs(int(value)).bit_length())
    return {"cli.report_bytes": len(text.encode()), "cli.max_int_bits": bits}


def write_spans(path: str, traced: list[tuple[str, list[tuple]]]) -> None:
    """One JSON line per span, tagged with its job id."""
    with open(path, "w", encoding="utf-8") as fh:
        for job_id, spans in traced:
            for sid, parent, name, start, end, _of, _om in spans:
                fh.write(json.dumps({"job": job_id, "span": sid, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
