"""In-memory span tracer that wraps gfaloha's layer functions from outside.

Each wrapped function records one span (name, parent, start, end) and may
add counts taken from its arguments and return value. Wrappers replace
the module attribute that the caller looks up at call time: `mcsim` binds
`generate_arrivals` at import, so the arrival draw is wrapped on `mcsim`,
while `experiment` calls `mcsim.run_trial` through the module, so
`run_trial` is wrapped there. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0


class Tracer:
    """Spans and counts of one traced call, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, module, attr: str, name, on_return=None) -> None:
        """Replace module.attr by a span-recording wrapper.

        name is the span name, or a function of the bound arguments that
        returns it. on_return(tracer, bound_arguments, result) adds
        counts after the call, with the caller's span on top of the stack.
        """
        fn = getattr(module, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            label = name(bound.arguments) if callable(name) else name
            idx = len(self.spans)
            self.spans.append(Span(label, self._stack[-1] if self._stack else -1,
                                   time.perf_counter()))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, bound.arguments, result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    # -- aggregation ----------------------------------------------------

    def durations(self) -> dict[str, float]:
        """Total inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by its child spans."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
            if s.parent >= 0:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


# ---------------------------------------------------------------------------
# What gets wrapped, and the counts taken at each boundary
# ---------------------------------------------------------------------------

def _arrivals(tr, args, res):
    tr.counts["traffic.arrivals"] += res.size
    if tr.parent_name() == "mcsim.run_granted_baseline":
        tr.counts["mcsim.granted.reports"] += res.size


def _graph(tr, args, g):
    tr.counts["mcsim.replicas"] += g.n_replicas
    tr.counts["mcsim.edges"] += len(g.ea)


def _sic(tr, args, out):
    policy = args["policy"]
    tr.counts[f"mcsim.sic.rounds.{policy}"] += out.rounds
    tr.counts["mcsim.sic.residual_replicas"] += out.residual_replicas
    tr.counts[f"mcsim.sic.edge_rounds.{policy}"] += len(args["graph"].ea) * out.rounds
    decodable = args["decodable"]
    if decodable is None:
        tr.counts["mcsim.sic.decodable"] += out.decoded.size
        tr.counts["mcsim.sic.decoded"] += int(out.decoded.sum())
    else:
        tr.counts["mcsim.sic.decodable"] += int(decodable.sum())
        tr.counts["mcsim.sic.decoded"] += int((out.decoded & decodable).sum())


def _granted(tr, args, res):
    tr.counts["mcsim.granted.periods"] += int(args["horizon"] // args["period"])


def _solve(tr, args, res):
    tr.counts["interference.solve.iterations"] += res.iterations
    tr.counts["interference.solve.overload"] += res.status == "overload"


def _count_len(key):
    def hook(tr, args, res):
        tr.counts[key] += len(res)
    return hook


def _peaks(tr, args, pm):
    tr.counts["sigchain.peaks"] += sum(b.positions.size for b in pm.branches)


# (module, attribute, span name or span-name function, count hook)
WRAPS = (
    ("gfaloha.experiment", "run_experiment", "experiment.run_experiment", None),
    ("gfaloha.experiment", "validate_receiver", "experiment.validate_receiver", None),
    ("gfaloha.mcsim", "generate_arrivals", "traffic.generate_arrivals", _arrivals),
    ("gfaloha.mcsim", "run_trial", "mcsim.run_trial", None),
    ("gfaloha.mcsim", "run_granted_baseline", "mcsim.run_granted_baseline", _granted),
    ("gfaloha.mcsim", "build_collision_graph", "mcsim.build_collision_graph", _graph),
    ("gfaloha.mcsim", "sic_decode", lambda a: f"mcsim.sic_decode.{a['policy']}", _sic),
    ("gfaloha.interference", "build_base_cdf", "interference.build_base_cdf", None),
    ("gfaloha.interference", "solve_offered_load", "interference.solve_offered_load", _solve),
    ("gfaloha.interference", "analytic_outage", "interference.analytic_outage", None),
    ("gfaloha.interference", "unconditional_cdf", "interference.unconditional_cdf", None),
    ("gfaloha.kpi", "grant_free_kpis", "kpi.grant_free_kpis", None),
    ("gfaloha.kpi", "granted_kpis", "kpi.granted_kpis", None),
    ("gfaloha.kpi", "ra_contention", "kpi.ra_contention", None),
    ("gfaloha.sigchain", "build_drift_table", "sigchain.build_drift_table", None),
    ("gfaloha.sigchain", "synthesize_packet", "sigchain.synthesize_packet", None),
    ("gfaloha.sigchain", "awgn", "sigchain.awgn", None),
    ("gfaloha.sigchain", "frame_events", "sigchain.frame_events", _count_len("sigchain.events")),
    ("gfaloha.sigchain", "periodogram_cfos", "sigchain.periodogram_cfos",
     _count_len("sigchain.cfo_branches")),
    ("gfaloha.sigchain", "peak_map", "sigchain.peak_map", _peaks),
    ("gfaloha.sigchain", "spc_resolve", "sigchain.spc_resolve", _count_len("sigchain.validated")),
    ("gfaloha.sigchain", "extract_sequences", "sigchain.extract_sequences", None),
    ("gfaloha.sigchain", "demap_payload", "sigchain.demap_payload", None),
)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer function of WRAPS; undo with tracer.uninstall()."""
    for mod, attr, name, hook in WRAPS:
        tracer.wrap(importlib.import_module(mod), attr, name, hook)
    return tracer


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced call, by the names BENCHMARK.json lists.

    A layer the call never reached reports 0.
    """
    dur, own, c = tr.durations(), tr.self_times(), tr.counts
    sc_s = dur.get("mcsim.sic_decode.sc", 0.0)
    m = {
        "mcsim.sic_decode.sc.s": sc_s,
        "mcsim.sic_decode.sc.calls": tr.calls("mcsim.sic_decode.sc"),
        "mcsim.sic_decode.mrc.s": dur.get("mcsim.sic_decode.mrc", 0.0),
        "mcsim.sic_decode.mrc.calls": tr.calls("mcsim.sic_decode.mrc"),
        "mcsim.sic.rounds.sc": c["mcsim.sic.rounds.sc"],
        "mcsim.sic.rounds.mrc": c["mcsim.sic.rounds.mrc"],
        "mcsim.sic.residual_replicas": c["mcsim.sic.residual_replicas"],
        "mcsim.sic.decoded_ratio": _ratio(c["mcsim.sic.decoded"], c["mcsim.sic.decodable"]),
        "mcsim.build_collision_graph.s": dur.get("mcsim.build_collision_graph", 0.0),
        "mcsim.replicas": c["mcsim.replicas"],
        "mcsim.edges": c["mcsim.edges"],
        "mcsim.sic_decode.sc.us_per_edge_round":
            _ratio(1e6 * sc_s, c["mcsim.sic.edge_rounds.sc"]),
        "mcsim.run_trial.self_s": own.get("mcsim.run_trial", 0.0),
        "mcsim.retry_waves": sum(1 for s in tr.spans if s.name.startswith("mcsim.sic_decode.")
                                 and s.parent >= 0
                                 and tr.spans[s.parent].name == "mcsim.run_trial")
                             - tr.calls("mcsim.run_trial"),
        "mcsim.run_granted_baseline.s": dur.get("mcsim.run_granted_baseline", 0.0),
        "mcsim.granted.periods": c["mcsim.granted.periods"],
        "mcsim.granted.reports_per_period":
            _ratio(c["mcsim.granted.reports"], c["mcsim.granted.periods"]),
        "traffic.generate_arrivals.s": dur.get("traffic.generate_arrivals", 0.0),
        "traffic.arrivals": c["traffic.arrivals"],
        "interference.build_base_cdf.s": dur.get("interference.build_base_cdf", 0.0),
        "interference.solve_offered_load.s": dur.get("interference.solve_offered_load", 0.0),
        "interference.solve.iterations": c["interference.solve.iterations"],
        "interference.solve.overload": c["interference.solve.overload"],
        "interference.analytic_outage.calls": tr.calls("interference.analytic_outage"),
        "interference.unconditional_cdf.s": dur.get("interference.unconditional_cdf", 0.0),
        # kpi functions may nest; count only the outermost kpi span
        "kpi.s": sum(s.end - s.start for s in tr.spans if s.name.startswith("kpi.")
                     and not (s.parent >= 0
                              and tr.spans[s.parent].name.startswith("kpi."))),
        "sigchain.build_drift_table.s": dur.get("sigchain.build_drift_table", 0.0),
        "sigchain.build_drift_table.calls": tr.calls("sigchain.build_drift_table"),
        "sigchain.synthesize_packet.s": dur.get("sigchain.synthesize_packet", 0.0),
        "sigchain.awgn.s": dur.get("sigchain.awgn", 0.0),
        "sigchain.frame_events.s": dur.get("sigchain.frame_events", 0.0),
        "sigchain.events": c["sigchain.events"],
        "sigchain.periodogram_cfos.s": dur.get("sigchain.periodogram_cfos", 0.0),
        "sigchain.cfo_branches": c["sigchain.cfo_branches"],
        "sigchain.peak_map.s": dur.get("sigchain.peak_map", 0.0),
        "sigchain.peaks": c["sigchain.peaks"],
        "sigchain.spc_resolve.s": dur.get("sigchain.spc_resolve", 0.0),
        "sigchain.validated": c["sigchain.validated"],
        "sigchain.validated_per_peak": _ratio(c["sigchain.validated"], c["sigchain.peaks"]),
        "sigchain.extract_sequences.s": dur.get("sigchain.extract_sequences", 0.0),
        "sigchain.demap_payload.s": dur.get("sigchain.demap_payload", 0.0),
        "experiment.run_experiment.self_s": own.get("experiment.run_experiment", 0.0),
        "experiment.cells": tr.calls("mcsim.run_trial") + tr.calls("mcsim.run_granted_baseline"),
        "experiment.validate_receiver.self_s": own.get("experiment.validate_receiver", 0.0),
    }
    return {k: float(v) for k, v in m.items()}


def attribution(tr: Tracer, wall: float) -> list[tuple[str, float, float]]:
    """(span name, self seconds, share of wall) rows, largest self time first.

    The remainder of wall outside every root span is listed as
    "(outside spans)".
    """
    own = tr.self_times()
    roots = sum(s.end - s.start for s in tr.spans if s.parent < 0)
    own["(outside spans)"] = max(0.0, wall - roots)
    rows = sorted(own.items(), key=lambda kv: -kv[1])
    return [(k, v, _ratio(v, wall)) for k, v in rows]
