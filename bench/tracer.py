"""Spans and counters recorded from outside the package.

``install`` wraps the package's public functions, layer by layer, and puts
each wrapper into every ``relators`` module namespace that holds the
original, so calls made inside the package are seen too (``embed`` calls
``check_small_cancellation`` through its own import of it).  A span is
(name, start ns, end ns, parent index); spans and counters stay in memory
and are summarised per phase (set-up, then one phase per round).

Span names are part of the benchmark's interface: spans placed inside the
package later must keep them so that per-layer figures stay comparable.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(perf_counter_ns())
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def take(self) -> dict:
        """Hand over this phase's spans and counters and start a new phase."""
        phase = {
            "spans": list(zip(self.names, self.starts, self.ends, self.parents)),
            "counters": dict(self.counters),
        }
        self.__init__()
        return phase


# -- what is wrapped ------------------------------------------------------


def _count_slopes(c, args, kwargs, result):
    c["abelian.slopes"] += len(result)


def _count_letters(c, args, kwargs, result):
    c["smallcanc.letters"] += sum(len(r) for r in args[0])


def _count_products(c, args, kwargs, result):
    c["fox.term_products"] += args[0].term_count() * args[1].term_count()


def _count_witness(c, args, kwargs, result):
    c["mincond.check.witnesses"] += bool(result)


def _count_inverse_terms(c, args, kwargs, result):
    c["novikov.inverse_terms"] += result.term_count


def _count_target(c, args, kwargs, result):
    c["embed.target_letters"] += sum(len(s) for s in result[1].target)


def _count_trials(c, args, kwargs, result):
    c["experiment.trials"] += sum(row.trials for row in result)


_ABELIAN = (
    "abelianization_matrix",
    "smith_normal_form",
    "hermite_row_basis",
    "matrix_rank",
    "first_betti_number",
    "slope_basis",
    "enumerate_kernel_slopes",
    "enumerate_valid_slopes",
    "count_slope_classes",
)

# (module, function, span name or None for a counter only, counter hook)
SPANS = (
    ("words", "sample_cyclically_reduced", "words.sample", None),
    ("words", "sample_reduced", "words.sample", None),
    ("words", "count_cyclically_reduced", "words.count", None),
    ("smallcanc", "check_small_cancellation", "smallcanc.check", _count_letters),
    ("smallcanc", "longest_piece", "smallcanc.longest_piece", _count_letters),
    *(
        ("abelian", f, "abelian." + f, _count_slopes if f.startswith("enumerate_") else None)
        for f in _ABELIAN
    ),
    ("fox", "ring_multiply", "fox.ring_multiply", _count_products),
    ("fox", "jacobian", "fox.jacobian", None),
    ("mincond", "check_minimum_condition", "mincond.check", _count_witness),
    ("mincond", "standard_witness", "mincond.standard_witness", None),
    ("novikov", "injectivity_certificate", "novikov.certificate", None),
    ("novikov", "truncated_neumann_inverse", "novikov.neumann", _count_inverse_terms),
    ("novikov", "verify_fox_lowest_terms", "novikov.lowest_terms", None),
    ("embed", "embed_presentation", "embed", _count_target),
    ("experiment", "run_experiment", "experiment.run", _count_trials),
    ("experiment", "evaluate_predicate", "experiment.predicate", None),
    ("experiment", "tau_count", "experiment.tau_count", None),
    ("cli", "main", "cli", None),
)

# called too often for a span each: counted only
COUNTERS = (
    ("words", "reduce", "words.reduce.calls"),
    ("embed", "build_w_words", "embed.block_heights"),
)

GENERATORS = (("words", "enumerate_cyclically_reduced", "words.enumerate.words"),)


def _span_wrapper(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer.counters, args, kwargs, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counters[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _generator_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters = tracer.counters
        for item in fn(*args, **kwargs):
            counters[name] += 1
            yield item

    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every listed function in every loaded ``relators`` module;
    returns what ``uninstall`` needs to put the originals back."""
    modules = [m for name, m in sys.modules.items() if name == "relators" or name.startswith("relators.")]
    replace = {}
    for mod, fn_name, span, hook in SPANS:
        fn = getattr(sys.modules[f"relators.{mod}"], fn_name)
        replace[id(fn)] = (fn, _span_wrapper(tracer, span, fn, hook))
    for mod, fn_name, counter in COUNTERS:
        fn = getattr(sys.modules[f"relators.{mod}"], fn_name)
        replace[id(fn)] = (fn, _count_wrapper(tracer, counter, fn))
    for mod, fn_name, counter in GENERATORS:
        fn = getattr(sys.modules[f"relators.{mod}"], fn_name)
        replace[id(fn)] = (fn, _generator_wrapper(tracer, counter, fn))
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    return undo


def uninstall(undo) -> None:
    for module, attr, value in undo:
        setattr(module, attr, value)


# -- per-layer figures ------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def raw_figures(phase: dict) -> dict[str, float]:
    """Additive figures of one phase: counts, busy and self seconds."""
    spans = phase["spans"]
    names = [s[0] for s in spans]
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    parent = [s[3] for s in spans]
    child_time = [0.0] * len(spans)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += dur[i]

    def ancestors(i):
        p = parent[i]
        while p >= 0:
            yield p
            p = parent[p]

    out: Counter = Counter(phase["counters"])
    for i, name in enumerate(names):
        layer = _layer(name)
        # busy time counts a span only when no ancestor has the same name
        if all(names[a] != name for a in ancestors(i)):
            out[name + ".s"] += dur[i]
            out[name + ".calls"] += 1
        if layer == "abelian" and all(_layer(names[a]) != "abelian" for a in ancestors(i)):
            out["abelian.s"] += dur[i]
            out["abelian.calls"] += 1
        if layer == "smallcanc" and all(_layer(names[a]) != "smallcanc" for a in ancestors(i)):
            out["smallcanc.busy_s"] += dur[i]
            if any(names[a] == "embed" for a in ancestors(i)):
                out["embed.scans"] += 1
        out[layer + ".self_s"] += dur[i] - child_time[i]
        if name != layer:
            out[name + ".self_s"] += dur[i] - child_time[i]
    return dict(out)


PER_LAYER = (
    ("words.reduce.calls", "count"),
    ("words.sample.s", "s"),
    ("words.count.s", "s"),
    ("words.enumerate.words", "count"),
    ("smallcanc.check.calls", "count"),
    ("smallcanc.check.s", "s"),
    ("smallcanc.longest_piece.calls", "count"),
    ("smallcanc.longest_piece.s", "s"),
    ("smallcanc.letters", "count"),
    ("smallcanc.letters_per_s", "1/s"),
    ("abelian.calls", "count"),
    ("abelian.s", "s"),
    ("abelian.slopes", "count"),
    ("fox.ring_multiply.calls", "count"),
    ("fox.ring_multiply.s", "s"),
    ("fox.term_products", "count"),
    ("fox.term_products_per_s", "1/s"),
    ("fox.jacobian.calls", "count"),
    ("mincond.check.calls", "count"),
    ("mincond.check.s", "s"),
    ("mincond.check.witness_rate", "ratio"),
    ("mincond.standard_witness.s", "s"),
    ("novikov.neumann.s", "s"),
    ("novikov.neumann.self_s", "s"),
    ("novikov.inverse_terms", "count"),
    ("novikov.lowest_terms.s", "s"),
    ("embed.s", "s"),
    ("embed.self_s", "s"),
    ("embed.block_heights", "count"),
    ("embed.scans", "count"),
    ("embed.target_letters", "count"),
    ("experiment.trials", "count"),
    ("experiment.predicate.s", "s"),
    ("experiment.self_s", "s"),
    ("experiment.tau_count.s", "s"),
    ("cli.commands", "count"),
    ("cli.self_s", "s"),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(setup: dict, rounds: list[dict]) -> dict[str, float]:
    """Figures for one set-up plus one average round."""
    keys = set(setup) | {k for r in rounds for k in r}
    raw = {k: setup.get(k, 0) + sum(r.get(k, 0) for r in rounds) / len(rounds) for k in keys}
    g = lambda k: raw.get(k, 0)  # noqa: E731
    derived = {
        "smallcanc.letters_per_s": _ratio(g("smallcanc.letters"), g("smallcanc.busy_s")),
        "fox.term_products_per_s": _ratio(g("fox.term_products"), g("fox.ring_multiply.s")),
        "mincond.check.witness_rate": _ratio(g("mincond.check.witnesses"), g("mincond.check.calls")),
        "cli.commands": g("cli.calls"),
    }
    return {name: derived.get(name, g(name)) for name, _unit in PER_LAYER}
