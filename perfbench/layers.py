"""Per-layer spans and counters for the dfra modules, read from outside.

Every public function of the eight modules becomes a span (see tracer.py).
GROUPS sums spans into the layer metrics the benchmark reports, and the
Counters hooks count work at the same boundaries.  The comment on each group
names the end-to-end metric it should move, and on which workload.
"""

from __future__ import annotations

import inspect

import tracer as tr

MODULES = ("symcore", "algebra", "constraints", "reps", "oscillator",
           "clifford", "field", "cli")

DIRAC_CALL = "constraints.DiracBracket.__call__"

# Layer group -> spans summed into <group>.calls and <group>.self_s.
GROUPS = {
    # suite-all wall_s; no change on numeric-oracles
    "symcore.normal_form": ("symcore.normal_form",),
    "symcore.bracket": ("symcore.bracket",),
    # table construction: suite-all wall_s
    "algebra.build": ("algebra.build",),
    "constraints.build_phase_space": ("constraints.build_phase_space",),
    # derived operators X, J, M: suite-all wall_s and peak_rss_mb
    "algebra.derived": ("algebra.shifted_coordinate", "algebra.angular_momentum",
                        "algebra.lorentz_generator"),
    # suite-all wall_s
    "constraints.dirac_bracket": (DIRAC_CALL,),
    "reps.rep": ("reps.d1", "reps.d2", "reps.d3", "reps.d4", "reps.d5"),
    "reps.compose": ("reps.compose",),
    # numeric kernels: numeric-oracles wall_s and peak_rss_mb
    "oscillator.moment_oracle": ("oscillator.moment_oracle",),
    "field.greens_solve": ("field.greens_solve",),
    "field.evolve_leapfrog": ("field.evolve_leapfrog",),
    "field.moyal_star": ("field.moyal_star",),
    "clifford.spinor_boost": ("clifford.spinor_boost",),
}

# Span names of the cli suites; their wall time moves wall_s on the suite
# workloads.  algebra runs once per D in (2, 3, 4): the SO(D) scaling ladder.
CLI_SUITES = ("algebra.D2", "algebra.D3", "algebra.D4", "constraints", "reps",
              "clifford", "oscillator", "field")

COUNTERS = {
    # output terms / (2 |a| |b|), and share of calls with arguments seen
    # before in the run: suite-all wall_s
    "symcore.bracket.yield": "frac",
    "symcore.bracket.repeat_frac": "frac",
    "algebra.derived.repeat_frac": "frac",
    # share of repeats among the bracket(A, Xi) calls of Dirac brackets
    "constraints.dirac_bracket.inner_repeat_frac": "frac",
    # numeric-oracles wall_s and peak_rss_mb
    "oscillator.mc_samples": "count",
    "oscillator.quad_nodes": "count",
    "field.greens_solve.cells": "count",
    "field.leapfrog.ns_per_cell_step": "ns",
}

TRACE_METRICS = {
    "cli.self_s": "s",          # wall time not covered by any layer span
    "trace.wall_s": "s",        # traced wall time of the workload pass
    "trace.other_self_s": "s",  # layer self time in spans outside GROUPS
    "trace.counter_s": "s",     # time spent in the counter hooks
    "trace.overhead_frac": "frac",
}


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for group in GROUPS:
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_s"] = "s"
    units.update(COUNTERS)
    for suite in CLI_SUITES:
        units[f"cli.{suite}.wall_s"] = "s"
    units.update(TRACE_METRICS)
    return units


def _table_key(table) -> tuple:
    # a table built twice with the same mode, dimension and generators
    # counts as the same table
    return table.mode, table.dimension, hash(table.universe)


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Counters:
    """Counter hooks for one traced run.

    Seen-sets hold hashes of the arguments, not the arguments, so memory
    stays small; a hash collision would count one false repeat.
    """

    def __init__(self, modules: dict):
        self.sig = {
            "bracket": inspect.signature(modules["symcore"].bracket),
            "moment_oracle": inspect.signature(modules["oscillator"].moment_oracle),
            "evolve_leapfrog": inspect.signature(modules["field"].evolve_leapfrog),
            "greens_solve": inspect.signature(modules["field"].greens_solve),
        }
        self.bracket_seen: set = set()
        self.derived_seen: set = set()
        self.inner_seen: set = set()

    def hooks(self) -> dict:
        hooks = {
            "symcore.bracket": self.bracket,
            "oscillator.moment_oracle": self.moment_oracle,
            "field.greens_solve": self.greens_solve,
            "field.evolve_leapfrog": self.evolve_leapfrog,
        }
        for span in GROUPS["algebra.derived"]:
            hooks[span] = self.derived
        return hooks

    def bracket(self, t, args, kwargs, out):
        arg = _arguments(self.sig["bracket"], args, kwargs)
        a, b = arg["a"], arg["b"]
        c = t.counters
        c["bracket.out_terms"] += len(out.terms)
        c["bracket.pair_terms"] += 2 * len(a.terms) * len(b.terms)
        key = (hash(a), hash(b), _table_key(arg["table"]))
        c["bracket.repeats"] += key in self.bracket_seen
        self.bracket_seen.add(key)
        parent = t.parent()
        if parent and parent[0] == DIRAC_CALL:
            dirac = parent[1][0]
            if any(a is xi or b is xi for xi in dirac.cs.constraints):
                c["dirac.inner_calls"] += 1
                c["dirac.inner_repeats"] += key in self.inner_seen
                self.inner_seen.add(key)

    def derived(self, t, args, kwargs, out):
        alg, *rest = args
        key = (_table_key(alg.table), tuple(rest), tuple(sorted(kwargs.items())))
        t.counters["derived.repeats"] += key in self.derived_seen
        self.derived_seen.add(key)

    def moment_oracle(self, t, args, kwargs, out):
        if out.method == "monte-carlo":
            t.counters["mc_samples"] += out.samples
            return
        arg = _arguments(self.sig["moment_oracle"], args, kwargs)
        modes, nodes = arg["cfg"].n_modes, arg["nodes"]
        # the quadrature oracle evaluates tensor grids at nodes and nodes + 8
        t.counters["quad_nodes"] += nodes ** modes + (nodes + 8) ** modes

    def greens_solve(self, t, args, kwargs, out):
        arg = _arguments(self.sig["greens_solve"], args, kwargs)
        t.counters["greens_cells"] += arg["src"].values.size

    def evolve_leapfrog(self, t, args, kwargs, out):
        arg = _arguments(self.sig["evolve_leapfrog"], args, kwargs)
        t.counters["leapfrog_cell_steps"] += arg["phi"].size * arg["steps"]


def install(tracer: tr.Tracer, modules: dict):
    """Trace the eight dfra modules (short name -> module); return the undo."""
    names = {}
    for suite in ("algebra", "constraints", "reps", "clifford", "oscillator", "field"):
        names[f"cli.{suite}_suite"] = _suite_span_name(suite)
    hooks = Counters(modules).hooks()
    return tr.install(tracer, [modules[m] for m in MODULES], names, hooks)


def _suite_span_name(suite):
    if suite != "algebra":
        return f"cli.{suite}"

    def name(args, kwargs):
        params = args[0] if args else kwargs["p"]
        return f"cli.algebra.D{params['D']}"

    return name


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: tr.Tracer, wall_s: float) -> dict:
    """Per-layer metric values of a traced pass that took wall_s.

    trace.overhead_frac needs an untraced pass too, so the caller adds it.

    Layer spans are all spans but the cli ones; their self times partition
    the time they cover, so cli.self_s = wall_s - sum of layer self times,
    and the GROUPS self times, trace.other_self_s, trace.counter_s and
    cli.self_s add up to trace.wall_s.
    """
    c = t.counters
    out = {}
    grouped = set()
    for group, spans in GROUPS.items():
        out[f"{group}.calls"] = sum(t.calls.get(s, 0) for s in spans)
        out[f"{group}.self_s"] = sum(t.self_s.get(s, 0.0) for s in spans)
        grouped.update(spans)
    out["symcore.bracket.yield"] = _ratio(c["bracket.out_terms"], c["bracket.pair_terms"])
    out["symcore.bracket.repeat_frac"] = _ratio(c["bracket.repeats"],
                                                out["symcore.bracket.calls"])
    out["algebra.derived.repeat_frac"] = _ratio(c["derived.repeats"],
                                                out["algebra.derived.calls"])
    out["constraints.dirac_bracket.inner_repeat_frac"] = _ratio(
        c["dirac.inner_repeats"], c["dirac.inner_calls"])
    out["oscillator.mc_samples"] = c["mc_samples"]
    out["oscillator.quad_nodes"] = c["quad_nodes"]
    out["field.greens_solve.cells"] = c["greens_cells"]
    out["field.leapfrog.ns_per_cell_step"] = 1e9 * _ratio(
        out["field.evolve_leapfrog.self_s"], c["leapfrog_cell_steps"])
    for suite in CLI_SUITES:
        out[f"cli.{suite}.wall_s"] = t.total_s.get(f"cli.{suite}", 0.0)
    layer_self = {s: v for s, v in t.self_s.items() if not s.startswith("cli.")}
    out["trace.counter_s"] = layer_self.pop(tr.COUNTER_SPAN, 0.0)
    out["trace.other_self_s"] = sum(v for s, v in layer_self.items() if s not in grouped)
    out["cli.self_s"] = wall_s - sum(layer_self.values()) - out["trace.counter_s"]
    out["trace.wall_s"] = wall_s
    return out
