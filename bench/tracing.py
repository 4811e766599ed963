"""Layer tracing for the benchmark's traced run.

The tracer wraps refflow's public entry points at each module boundary,
from outside: every module attribute that names a wrapped function is
replaced, so calls between modules go through the wrapper too.  Each
wrapped call adds its duration to its layer's total and to its caller's
child time, so a layer's self time is its time minus the wrapped calls
it made; the self times of all layers, the harness's own time and the
bookkeeping below add up to the traced wall time.

The wrappers allocate, and on ``cases`` that alone changes how often
freed memory goes back to the system and is faulted in again: traced
passes can take fewer page faults than untraced ones, so
``trace_overhead_s`` can come out negative there.

Coarse calls (one or a few per program) are also kept as spans: name,
start, end, parent span and program.  Hot fine-grained calls, such as
``Pi.precedes`` and the judge's per-event callback, are kept only as a
count plus summed time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute, hot)
FUNCTIONS = (
    ("syntax.parse", "syntax", "parse", False),
    ("typesys.typecheck", "typesys", "typecheck", False),
    ("typesys.linear", "typesys", "linear_use_check", False),
    ("typesys.ip_type", "typesys", "ip_type", True),
    ("approx.pi", "approx", "approximate_pi", False),
    ("approx.alias", "approx", "build_alias_base", False),
    ("approx.sites", "approx", "binding_sites", False),
    ("semantics.eval", "semantics", "evaluate", False),
    ("agreement.check", "agreement", "check_soundness", False),
    ("agreement.gen", "agreement", "gen_program", False),
    ("security.nifc", "security", "check_noninterference", False),
    ("security.origins", "security", "expanded_origins", True),
    ("cli.main", "cli", "main", False),
)
# (span name, attribute of typesys.Pi, hot)
PI_METHODS = (
    ("typesys.precedes", "precedes", True),
    ("typesys.pi_closure", "closure", False),
)

# Every span name by the layer (module) that owns it.
LAYERS = {
    "syntax": ("syntax.parse",),
    "typesys": ("typesys.typecheck", "typesys.linear", "typesys.ip_type",
                "typesys.precedes", "typesys.pi_closure"),
    "approx": ("approx.pi", "approx.alias", "approx.sites"),
    "semantics": ("semantics.eval",),
    "agreement": ("agreement.check", "agreement.judge", "agreement.gen"),
    "security": ("security.nifc", "security.origins"),
    "cli": ("cli.main",),
}

# Time spent reading sizes off results; tracing cost, not layer time.
BOOKKEEPING = "trace.bookkeeping"


def _clause_checks(report) -> int:
    return sum(v.activity for v in report.clauses.values()) + report.binding_lemma.activity


# Sizes read off a wrapped call's result: span name -> (count name, reader).
RESULT_COUNTS = {
    "typesys.typecheck": (("typesys.gamma_entries", lambda a: len(a.gamma.entries)),),
    "approx.pi": (("approx.pi_points", lambda pi: len(pi.points)),
                  ("approx.pi_edges", lambda pi: len(pi.edges))),
    "semantics.eval": (("semantics.steps", lambda out: out.steps),
                       ("semantics.w_entries", lambda out: len(out.dep.w))),
    "typesys.pi_closure": (("typesys.pi_closure_pairs", len),),
    "agreement.check": (("agreement.clause_checks", _clause_checks),),
    "security.nifc": (("security.flows", lambda v: len(v.flows)),),
}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.patches: list = []
        self.time_s: defaultdict = defaultdict(float)  # self seconds per span name
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []  # [name, start, end, parent span, program]
        self.stack: list = []  # open frames: [child seconds, span index]
        self.program = None

    def reset(self):
        """Forget everything recorded; the wrappers keep these objects."""

        for record in (self.time_s, self.calls, self.counts, self.spans, self.stack):
            record.clear()

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, hot: bool):
        readers = RESULT_COUNTS.get(name, ())
        time_s, calls, counts, stack, spans = self.time_s, self.calls, self.counts, self.stack, self.spans

        def traced(*args, **kwargs):
            span = None
            if not hot:
                span = len(spans)
                parent = stack[-1][1] if stack else None
                spans.append([name, 0.0, 0.0, parent, self.program])
            frame = [0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                time_s[name] += elapsed - frame[0]
                calls[name] += 1
                if span is not None:
                    spans[span][1:3] = [start, end]
                if stack:
                    stack[-1][0] += elapsed
            if readers:
                for key, read in readers:
                    counts[key] += read(result)
                spent = perf_counter() - end
                time_s[BOOKKEEPING] += spent
                if stack:
                    stack[-1][0] += spent
            return result

        return traced

    def wrap_evaluate(self, fn):
        """``evaluate`` with its ``on_step`` callback traced as the judge,
        so the evaluator's self time excludes the judge."""

        traced = self.wrap("semantics.eval", fn, hot=False)

        def evaluate(*args, **kwargs):
            callback = kwargs.get("on_step")
            if callback is not None:
                kwargs["on_step"] = self.wrap("agreement.judge", callback, hot=True)
            return traced(*args, **kwargs)

        return evaluate

    def install(self):
        modules = [getattr(self.lib, name) for name in LAYERS]
        for name, module_name, attr, hot in FUNCTIONS:
            original = getattr(getattr(self.lib, module_name), attr)
            if name == "semantics.eval":
                wrapper = self.wrap_evaluate(original)
            else:
                wrapper = self.wrap(name, original, hot)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.patches.append((module, key, original))
                        setattr(module, key, wrapper)
        pi_class = self.lib.typesys.Pi
        for name, attr, hot in PI_METHODS:
            original = pi_class.__dict__[attr]
            self.patches.append((pi_class, attr, original))
            setattr(pi_class, attr, self.wrap(name, original, hot))

    def uninstall(self):
        while self.patches:
            owner, key, original = self.patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        """The wrappers in place, recording afresh."""

        self.install()
        try:
            self.reset()
            yield self
        finally:
            self.uninstall()

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        return dict(self.time_s)

    def layer_times(self, before: dict) -> dict:
        """Self seconds per layer since ``before`` (a snapshot)."""

        return {
            layer: sum(self.time_s.get(n, 0.0) - before.get(n, 0.0) for n in names)
            for layer, names in LAYERS.items()
        }
