"""Per-layer metrics from a traced run's spans and checked results.

Times are span *self* times: a span's duration minus the part of it
its child spans cover.  Unless a name says otherwise, a ``_s`` metric
is seconds per request, so the layer times and ``trace.unaccounted_s``
add up to ``trace.request_s``.  Counts come from the program's own
results (``RunTelemetry``, ``CIMChip``, op histories, the cluster
tree); only ``gateway.sse.frames`` and ``trace.spans_per_request``
count spans.

A layer that did work in this run (its results say so) but left no
span was not measured, for example because its work ran in another
process; its metrics are then ``None`` ("unmeasured"), never zero.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

BACKENDS = ("cluster-cim", "dense-ising", "maxcut-sb", "simcim")

#: (name, unit, better): every per-layer metric a traced run reports.
#: For the exact counts (cim.*, problems.* ops) the direction is
#: nominal: a host-only change must leave them identical.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("annealer.solve_s", "s", "lower"),
    ("annealer.level_s", "s", "lower"),
    ("annealer.trials", "count", "lower"),
    ("annealer.accept_ratio", "ratio", "higher"),
    ("annealer.ns_per_trial", "ns", "lower"),
    ("annealer.host_ns_per_mac", "ns", "lower"),
    ("annealer.solve_cpu_s", "s", "lower"),
    ("annealer.solve_wait_s", "s", "lower"),
    ("clustering.build_s", "s", "lower"),
    ("clustering.levels", "count", "lower"),
    ("clustering.clusters", "count", "lower"),
    ("cim.mac_cycles", "count", "lower"),
    ("cim.macs_performed", "count", "lower"),
    ("cim.writeback_events", "count", "lower"),
    ("cim.weight_bits_written", "count", "lower"),
    ("hardware.chip_latency_us_p50", "us", "lower"),
    ("hardware.chip_energy_uj_p50", "uJ", "lower"),
    ("problems.kernel_s", "s", "lower"),
    ("problems.macs", "count", "lower"),
    ("problems.spin_flips", "count", "lower"),
    ("problems.rng_draws", "count", "lower"),
    ("problems.host_ns_per_mac", "ns", "lower"),
    ("backends.reference_s", "s", "lower"),
    *((f"backends.{b}.solve_s", "s", "lower") for b in BACKENDS),
    ("backends.objective_gap_p50", "ratio", "lower"),
    ("runtime.executor.run_s", "s", "lower"),
    ("runtime.executor.overhead_s", "s", "lower"),
    ("runtime.executor.runs", "count", "higher"),
    ("runtime.executor.retries", "count", "lower"),
    ("runtime.service.queue_wait_s", "s", "lower"),
    ("gateway.protocol.encode_s", "s", "lower"),
    ("gateway.protocol.decode_s", "s", "lower"),
    ("gateway.protocol.request_bytes", "bytes", "lower"),
    ("gateway.protocol.frame_parse_s", "s", "lower"),
    ("gateway.sse.frames", "count", "higher"),
    ("gateway.router.submit_s", "s", "lower"),
    ("gateway.router.metrics_s", "s", "lower"),
    ("gateway.router.jobs_retained", "count", "lower"),
    ("gateway.http.overhead_s", "s", "lower"),
    ("trace.request_s", "s", "lower"),
    ("trace.latency_p50_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
    ("trace.layer_share", "ratio", "higher"),
    ("trace.spans_per_request", "count", "lower"),
)


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for lo, hi in sorted(intervals):
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Any]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Any]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.index, ())
            if c.end > span.start and c.start < span.end
        )
        out[span.index] = span.duration - covered
    return out


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(
    spans: Sequence[Any],
    outcomes: Sequence[Any],
    *,
    gateway: bool,
    jobs_retained: int,
) -> Dict[str, Optional[float]]:
    """Every :data:`PER_LAYER` metric for one traced run."""
    clean = [o for o in outcomes if o.clean]
    rids = {o.rid for o in clean}
    n_req = max(len(clean), 1)
    mine = [s for s in spans if s.request in rids]
    selfs = self_times(mine)
    by_name: Dict[str, List[Any]] = defaultdict(list)
    for span in mine:
        by_name[span.name].append(span)

    def self_per_request(*names: str) -> float:
        return sum(selfs[s.index] for n in names for s in by_name[n]) / n_req

    def dur_per_request(name: str) -> float:
        return sum(s.duration for s in by_name[name]) / n_req

    runs = [r for o in clean for r in o.runs]
    tsp_runs = [r for o in clean if o.kind == "tsp" for r in o.runs]
    counted = [r for r in runs if r[-1]]
    # Digest row layout: [seed, objective, trials_proposed,
    # trials_accepted, writeback_events, mac_cycles, macs_performed,
    # weight_bits_written, ops]
    proposed = sum(r[2] for r in tsp_runs)
    accepted = sum(r[3] for r in tsp_runs)
    macs = sum(r[6] for r in tsp_runs)
    level_s = sum(selfs[s.index] for s in by_name["annealer.level"])
    solves = by_name["annealer.solve"] + by_name["annealer.solve_batch"]
    qubo_macs = sum(r[-1].get("macs", 0) for r in counted)
    qubo_kernel_s = sum(selfs[s.index] for s in by_name["problems.qubo_kernel"])

    # solve_batch returns one result per seed of its group.
    solved = [r for s in solves for r in (
        s.attrs["result"] if isinstance(s.attrs["result"], list)
        else [s.attrs["result"]])]
    chips = [r.chip for r in solved if r.chip is not None]
    trees = [s.attrs["result"] for s in by_name["clustering.build"]]
    from repro.hardware import EnergyModel, LatencyModel

    chip_us = [LatencyModel().report(c).total_time_s * 1e6 for c in chips]
    chip_uj = [EnergyModel().report(c).total_energy_j * 1e6 for c in chips]

    by_request: Dict[str, List[Any]] = defaultdict(list)
    for span in mine:
        by_request[span.request].append(span)
    roots = {s.request: s for s in by_name["request"]}
    request_s, unaccounted, queue_waits, http_overhead = [], [], [], []
    for rid, root in roots.items():
        inner = [s for s in by_request[rid] if s is not root]
        request_s.append(root.duration)
        unaccounted.append(root.duration - _union_length(
            (max(s.start, root.start), min(s.end, root.end)) for s in inner))
        submits = [s.start for s in inner if s.name == "runtime.service.submit"]
        starts = [s.start for s in inner
                  if s.name in ("backends.reference", "runtime.executor.run")]
        if submits and starts:
            queue_waits.append(min(starts) - submits[0])
        if gateway:
            http_overhead.append(root.duration - sum(
                s.duration for s in inner if s.name == "runtime.executor.run"))
    layer_self = sum(selfs.values()) - sum(selfs[s.index] for s in roots.values())

    metrics_calls = [s for s in spans if s.name == "gateway.router.metrics"]
    encoded = [len(json.dumps(s.attrs["doc"])) for s in by_name["gateway.protocol.encode"]]

    values: Dict[str, Optional[float]] = {
        "annealer.solve_s": self_per_request("annealer.solve", "annealer.solve_batch"),
        "annealer.level_s": level_s / n_req,
        "annealer.trials": _ratio(proposed, len(tsp_runs)),
        "annealer.accept_ratio": _ratio(accepted, proposed),
        "annealer.ns_per_trial": _ratio(level_s, proposed, 1e9),
        "annealer.host_ns_per_mac": _ratio(level_s, macs, 1e9),
        "annealer.solve_cpu_s": _mean([s.cpu_s for s in solves]),
        "annealer.solve_wait_s": _mean([s.duration - s.cpu_s for s in solves]),
        "clustering.build_s": self_per_request("clustering.build"),
        "clustering.levels": _mean([t.n_levels for t in trees]),
        "clustering.clusters": _mean(
            [max(lv.n_clusters for lv in t.levels) for t in trees]),
        "cim.mac_cycles": _mean([r[5] for r in tsp_runs]),
        "cim.macs_performed": _mean([r[6] for r in tsp_runs]),
        "cim.writeback_events": _mean([r[4] for r in tsp_runs]),
        "cim.weight_bits_written": _mean([r[7] for r in tsp_runs]),
        "hardware.chip_latency_us_p50": statistics.median(chip_us) if chip_us else 0.0,
        "hardware.chip_energy_uj_p50": statistics.median(chip_uj) if chip_uj else 0.0,
        "problems.kernel_s": self_per_request("problems.qubo_kernel", "problems.spin_kernel"),
        "problems.macs": _mean([r[-1].get("macs", 0) for r in counted]),
        "problems.spin_flips": _mean([r[-1].get("spin_flips", 0) for r in counted]),
        "problems.rng_draws": _mean([r[-1].get("rng_draws", 0) for r in counted]),
        "problems.host_ns_per_mac": _ratio(qubo_kernel_s, qubo_macs, 1e9),
        "backends.reference_s": self_per_request("backends.reference"),
        **{f"backends.{b}.solve_s": self_per_request(f"backends.{b}.solve")
           for b in BACKENDS},
        "backends.objective_gap_p50": (
            statistics.median([g for o in clean for g in o.gaps])
            if any(o.gaps for o in clean) else 0.0),
        "runtime.executor.run_s": dur_per_request("runtime.executor.run"),
        "runtime.executor.overhead_s": self_per_request("runtime.executor.run"),
        "runtime.executor.runs": _mean([o.attempted for o in clean]),
        "runtime.executor.retries": _mean([o.retries for o in clean]),
        "runtime.service.queue_wait_s": _mean(queue_waits),
        "gateway.protocol.encode_s": self_per_request("gateway.protocol.encode"),
        "gateway.protocol.decode_s": self_per_request("gateway.protocol.decode"),
        "gateway.protocol.request_bytes": _mean(encoded),
        "gateway.protocol.frame_parse_s": self_per_request("gateway.protocol.frame_parse"),
        "gateway.sse.frames": len(by_name["gateway.protocol.frame_parse"]) / n_req,
        "gateway.router.submit_s": self_per_request("gateway.router.submit"),
        "gateway.router.metrics_s": _mean([s.duration for s in metrics_calls]),
        "gateway.router.jobs_retained": float(jobs_retained),
        "gateway.http.overhead_s": _mean(http_overhead),
        "trace.request_s": _mean(request_s),
        "trace.latency_p50_s": (
            statistics.median([o.latency_s for o in clean]) if clean else 0.0),
        "trace.unaccounted_s": _mean(unaccounted),
        "trace.unaccounted_share": _ratio(sum(unaccounted), sum(request_s)),
        "trace.layer_share": _ratio(layer_self, sum(request_s)),
        "trace.spans_per_request": len(mine) / n_req,
    }

    # Work the results prove happened, but no span saw: unmeasured.
    unmeasured: List[str] = []
    if tsp_runs and not solves:
        unmeasured += ["annealer.", "clustering.", "hardware."]
    if counted and not by_name["problems.qubo_kernel"]:
        unmeasured += ["problems."]
    if clean and not by_name["runtime.executor.run"]:
        unmeasured += ["runtime.executor.", "gateway.http."]
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name in values:
        from_spans = units[name] in ("s", "ns") or name.startswith(
            ("hardware.", "clustering."))
        if from_spans and name.startswith(tuple(unmeasured)):
            values[name] = None
    return values
