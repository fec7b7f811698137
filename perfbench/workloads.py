"""The benchmark workloads, their inputs and their result checks.

Every workload is a closed loop: a caller sends its next request only
after the previous one has returned and been checked.  Inputs are a
pure function of the workload seed and the request index, so the same
seed replays the same requests, and no two requests share an instance.
Every request runs with default ``AnnealerConfig``, ``EnsembleOptions``
and ``repro serve`` settings.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Requests that form one indivisible unit of a run's loop: a run
#: always ends on a whole rotation, so its request mix never changes.
#: Most pairs solve about 100 QUBO variables.  The dense-ising pairs
#: (47-56) and knapsack on cluster-cim (37) are smaller: at about 100
#: they took 2.3 s and 6.5 s a request, a rotation took 16 s, and a
#: 30 s run held two or three rotations, as the clock happened to fall.
_SPIN_ROTATION: Tuple[Tuple[str, str, int], ...] = (
    ("ising", "simcim", 100),
    ("maxcut", "maxcut-sb", 100),
    ("coloring", "cluster-cim", 34),
    ("coloring", "dense-ising", 16),
    ("coloring", "simcim", 34),
    ("knapsack", "cluster-cim", 30),
    ("knapsack", "dense-ising", 40),
    ("knapsack", "simcim", 100),
    ("maxsat", "cluster-cim", 36),
    ("maxsat", "dense-ising", 20),
    ("maxsat", "simcim", 36),
)
_GATEWAY_QUBO: Tuple[Tuple[str, str, int], ...] = (
    ("coloring", "cluster-cim", 30),
    ("knapsack", "simcim", 30),
    ("maxsat", "simcim", 20),
)
GATEWAY_CLIENTS = 2
GATEWAY_ROTATION = 4
SCRAPE_EVERY = 8


class CheckError(Exception):
    """A returned solution that does not survive recomputation."""


@dataclass
class Job:
    """One request: its payload, and what is needed to check the answer."""

    rid: str
    kind: str
    backend: str
    problem: Any
    seeds: Tuple[int, ...]
    family: Any = None
    client: int = 0

    def solve_request(self) -> Any:
        from repro.runtime.options import SolveRequest

        return SolveRequest.build(
            self.problem, self.seeds, tag=self.rid, backend=self.backend
        )


def _instance_seed(seed: int, index: int, salt: int = 0) -> int:
    return (seed * 1_000_003 + index * 7919 + salt) % (2**31 - 1)


def _spin_job(
    rid: str, kind: str, backend: str, size: int,
    inst_seed: int, seeds: Sequence[int], client: int = 0,
) -> Job:
    family = None
    if kind == "ising":
        from repro.ising.simcim import random_ising_model

        problem = random_ising_model(size, seed=inst_seed)
        kind_tag = "ising"
    elif kind == "maxcut":
        from repro.maxcut import gset_style

        problem = gset_style(size, seed=inst_seed)
        kind_tag = "maxcut"
    else:
        from repro.problems import make_problem

        family = make_problem(kind, size, inst_seed)
        problem = family.to_qubo()
        kind_tag = "qubo"
    return Job(rid, kind_tag, backend, problem, tuple(seeds), family, client)


def make_job(workload: str, seed: int, index: int, client: int = 0) -> Job:
    """The ``index``-th request of a workload under ``seed``."""
    inst_seed = _instance_seed(seed, index, salt=client)
    # Fresh run seeds per request too, so a run samples as many seed sets
    # as it has requests rather than one set for all of them.
    run_seeds = [(inst_seed * 8 + i) % (2**31 - 1) for i in range(8)]
    if workload == "tsp-ensemble":
        from repro.tsp.generators import rl_style

        return Job(f"r{index:05d}", "tsp", "cluster-cim",
                   rl_style(96, seed=inst_seed), tuple(run_seeds[:4]))
    if workload == "tsp-large":
        from repro.tsp.generators import make_paper_instance

        return Job(f"r{index:05d}", "tsp", "cluster-cim",
                   make_paper_instance("pcb3038", seed=inst_seed),
                   tuple(run_seeds[:1]))
    if workload == "spin-ensemble":
        kind, backend, size = _SPIN_ROTATION[index % len(_SPIN_ROTATION)]
        return _spin_job(f"r{index:05d}", kind, backend, size, inst_seed,
                         run_seeds[:8])
    if workload == "gateway-mixed":
        rid = f"c{client}r{index:05d}"
        slot = index % GATEWAY_ROTATION
        if slot == 0:
            from repro.tsp.generators import random_uniform

            return Job(rid, "tsp", "cluster-cim",
                       random_uniform(40, seed=inst_seed),
                       tuple(run_seeds[:2]), client=client)
        if slot == 1:
            return _spin_job(rid, "ising", "simcim", 100, inst_seed,
                             run_seeds[:1], client)
        if slot == 2:
            return _spin_job(rid, "maxcut", "maxcut-sb", 100, inst_seed,
                             run_seeds[:1], client)
        family, backend, size = _GATEWAY_QUBO[
            (index // GATEWAY_ROTATION) % len(_GATEWAY_QUBO)
        ]
        return _spin_job(rid, family, backend, size, inst_seed,
                         run_seeds[:1], client)
    raise ValueError(f"unknown workload {workload!r}")


def check_state(job: Job, state: Sequence[int], objective: float) -> None:
    """Recompute the objective of one returned solution state."""
    arr = np.asarray(state)

    def close(recomputed: float) -> None:
        if abs(recomputed - objective) > max(1e-6, 1e-9 * abs(recomputed)):
            raise CheckError(
                f"reported objective {objective} but the state "
                f"recomputes to {recomputed}"
            )

    if job.kind == "tsp":
        from repro.tsp.tour import tour_length

        n = job.problem.n
        if arr.shape != (n,) or not np.array_equal(np.sort(arr), np.arange(n)):
            raise CheckError(f"tour is not a permutation of {n}")
        close(float(tour_length(job.problem, arr.astype(np.int64))))
    elif job.kind == "ising":
        close(float(job.problem.energy(arr.astype(np.float64))))
    elif job.kind == "maxcut":
        close(-float(job.problem.cut_value(arr.astype(np.float64))))
    else:
        close(float(job.problem.energy(arr.astype(np.float64))))
        try:
            job.family.validate(job.family.decode(arr.astype(np.int64)))
        except Exception as exc:  # any decode failure is a wrong answer
            raise CheckError(f"decode fails validate: {exc}") from exc


COUNTERS = ("trials_proposed", "trials_accepted", "writeback_events",
            "mac_cycles", "macs_performed", "weight_bits_written")


def digest_row(seed: int, objective: float, counters: Dict[str, Any]) -> List[Any]:
    """One seed's exact-repeat row: objective, chip counters, op counts."""
    return ([int(seed), float(objective)]
            + [int(counters.get(k, 0)) for k in COUNTERS]
            + [dict(sorted((counters.get("ops") or {}).items()))])


@dataclass
class RequestOutcome:
    """What one request returned, checked."""

    rid: str
    kind: str
    attempted: int
    ok_runs: int
    failed: int
    latency_s: float
    first_frame_s: float
    reference: float = 0.0
    # one digest_row per checked seed, for the exact-repeat check
    runs: List[List[Any]] = field(default_factory=list)
    gaps: List[float] = field(default_factory=list)
    chip_latency_us: List[float] = field(default_factory=list)
    chip_energy_uj: List[float] = field(default_factory=list)
    retries: int = 0
    wrong: int = 0
    error: str = ""

    @property
    def clean(self) -> bool:
        return self.failed == 0


def _gap(objective: float, reference: float) -> Optional[float]:
    # A zero reference is the program's "no reference" sentinel.
    if not reference:
        return None
    return (objective - reference) / max(abs(reference), 1.0)


def settle(
    job: Job,
    latency_s: float,
    first_frame_s: float,
    reference: float,
    runs: Sequence[Tuple[int, bool, Optional[Sequence[int]], float, Dict[str, Any]]],
    chips: Sequence[Any] = (),
) -> RequestOutcome:
    """Check every run of a request and fold it into an outcome.

    ``runs`` holds ``(seed, ok, state, objective, counters)`` per seed.
    """
    out = RequestOutcome(job.rid, job.kind,
                         attempted=len(job.seeds), ok_runs=0, failed=0,
                         latency_s=latency_s, first_frame_s=first_frame_s,
                         reference=float(reference))
    for seed, ok, state, objective, counters in runs:
        if not ok or state is None:
            out.failed += 1
            out.error = out.error or f"run for seed {seed} failed"
            continue
        try:
            check_state(job, state, objective)
        except CheckError as exc:
            out.failed += 1
            out.wrong += 1
            out.error = out.error or str(exc)
            continue
        out.ok_runs += 1
        out.retries += int(counters.get("retries", 0))
        out.runs.append(digest_row(seed, objective, counters))
        gap = _gap(objective, reference)
        if gap is not None:
            out.gaps.append(gap)
    out.failed += len(job.seeds) - len(runs)
    if chips:
        from repro.hardware import EnergyModel, LatencyModel

        for chip in chips:
            out.chip_latency_us.append(
                LatencyModel().report(chip).total_time_s * 1e6)
            out.chip_energy_uj.append(
                EnergyModel().report(chip).total_energy_j * 1e6)
    return out


def failed_outcome(job: Job, error: str) -> RequestOutcome:
    return RequestOutcome(job.rid, job.kind,
                          attempted=len(job.seeds), ok_runs=0,
                          failed=len(job.seeds), latency_s=0.0,
                          first_frame_s=0.0, error=error)


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def _counters_of(record: Any) -> Dict[str, Any]:
    out = {k: getattr(record, k) for k in COUNTERS}
    out["ops"] = dict(record.ops)
    out["retries"] = record.retries
    return out


def solve_in_process(job: Job, tracer: Any = None) -> RequestOutcome:
    """One closed-loop request through ``solve_ensemble``."""
    from repro.annealer.batch import solve_ensemble
    from repro.errors import ReproError

    request = job.solve_request()
    scope = tracer.request(job.rid) if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            result = solve_ensemble(request)
    except ReproError as exc:
        return failed_outcome(job, repr(exc))
    latency = time.perf_counter() - t0
    by_seed = dict(zip([r.seed for r in result.telemetry.runs if r.ok],
                       result.results))
    runs = []
    for record in result.telemetry.runs:
        solved = by_seed.get(record.seed)
        runs.append((record.seed, record.ok and solved is not None,
                     None if solved is None else solved.tour,
                     0.0 if solved is None else float(solved.length),
                     _counters_of(record)))
    chips = [r.chip for r in result.results if getattr(r, "chip", None)]
    return settle(job, latency, latency, result.reference, runs, chips)


def resolve_one(job: Job, seed: int) -> List[Any]:
    """Re-solve one seed directly through its backend (exact-repeat check)."""
    from repro.backends import resolve_backend
    from repro.runtime.telemetry import RunTelemetry

    impl = resolve_backend(job.backend)
    result = impl.solve(impl.compile(job.problem, None), seed)
    return digest_row(seed, result.length,
                      _counters_of(RunTelemetry.from_result(seed, result)))


def warm_up_jobs(workload: str) -> List[Job]:
    """One tiny request of each (kind, backend) the workload sends."""
    from repro.tsp.generators import random_uniform

    pairs: Sequence[Tuple[str, str, int]] = ()
    if workload == "spin-ensemble":
        pairs = _SPIN_ROTATION
    elif workload == "gateway-mixed":
        pairs = (("ising", "simcim", 0), ("maxcut", "maxcut-sb", 0),
                 *_GATEWAY_QUBO)
    return [Job("warm", "tsp", "cluster-cim", random_uniform(24, seed=1), (1,))] + [
        _spin_job(f"warm{i}", kind, backend, 12, 1, [1])
        for i, (kind, backend, _) in enumerate(pairs)
    ]


def warm_up(workload: str) -> None:
    """Solve the warm-up requests so lazy imports and first calls are done."""
    from repro.annealer.batch import solve_ensemble

    for job in warm_up_jobs(workload):
        solve_ensemble(job.solve_request())


def run_in_process(
    workload: str, seed: int, seconds: float, tracer: Any = None,
) -> Tuple[List[RequestOutcome], float, List[Job]]:
    """Closed loop from one caller until ``seconds`` have passed."""
    outcomes: List[RequestOutcome] = []
    jobs: List[Job] = []
    unit = len(_SPIN_ROTATION) if workload == "spin-ensemble" else 1
    start = time.perf_counter()
    index = 0
    while True:
        job = make_job(workload, seed, index)
        jobs.append(job)
        outcomes.append(solve_in_process(job, tracer))
        index += 1
        if index % unit == 0 and time.perf_counter() - start >= seconds:
            break
    return outcomes, time.perf_counter() - start, jobs


# ----------------------------------------------------------------------
# Gateway workload
# ----------------------------------------------------------------------
def gateway_router() -> Any:
    """The router ``repro serve`` builds with its default flags."""
    from repro.gateway import ShardRouter
    from repro.runtime.options import EnsembleOptions

    return ShardRouter(EnsembleOptions(), shards=2, policy="round-robin")


async def _gateway_request(client: Any, job: Job) -> RequestOutcome:
    from repro.errors import GatewayError
    from repro.gateway.client import GatewayHTTPError

    t0 = time.perf_counter()
    first: Optional[float] = None
    try:
        handle = await client.submit(job.solve_request())
        job_id = str(handle["job_id"])
        async for _record in client.stream(job_id):
            if first is None:
                first = time.perf_counter() - t0
        doc = await client.result(job_id)
    except GatewayHTTPError as exc:
        kind = "refused" if exc.status in (429, 503) else "failed"
        return failed_outcome(job, f"{kind}: HTTP {exc.status}")
    except (GatewayError, OSError) as exc:
        return failed_outcome(job, repr(exc))
    latency = time.perf_counter() - t0
    records = {int(r["seed"]): r for r in (doc.get("telemetry") or {}).get("runs", [])}
    solved = dict(zip(doc.get("seeds", []),
                      zip(doc.get("tours", []), doc.get("lengths", []))))
    runs = []
    for seed in job.seeds:
        record = records.get(int(seed), {})
        state, objective = solved.get(int(seed), (None, 0.0))
        counters = {k: record.get(k, 0) for k in COUNTERS}
        counters["ops"] = record.get("ops", {})
        counters["retries"] = record.get("retries", 0)
        runs.append((seed, bool(record.get("ok")) and state is not None,
                     state, float(objective), counters))
    return settle(job, latency, first if first is not None else latency,
                  float(doc.get("reference", 0.0)), runs)


async def run_gateway(
    seed: int, seconds: float, tracer: Any, server: Any,
) -> Tuple[List[RequestOutcome], float, List[Job], int]:
    """Two clients in lockstep rounds; client 0 also scrapes ``/metrics``.

    Each round both clients send their next job and wait until both are
    done, so their rotations stay aligned: the two TSP jobs run on the
    two shards at once, and the small jobs never share the process with
    a TSP job.  Left to drift, the clients' phases decided from seed to
    seed how many small jobs ran beside a TSP job, and that moved the
    median small-job latency by up to 2x.
    """
    from repro.gateway import AsyncGatewayClient

    clients = [AsyncGatewayClient(server.url) for _ in range(GATEWAY_CLIENTS)]
    outcomes: List[RequestOutcome] = []
    jobs: List[Job] = []
    scrapes = 0

    async def send(ci: int, job: Job) -> RequestOutcome:
        with tracer.request(job.rid) if tracer is not None else nullcontext():
            return await _gateway_request(clients[ci], job)

    start = time.perf_counter()
    index = 0
    while True:
        batch = [make_job("gateway-mixed", seed, index, client=ci)
                 for ci in range(GATEWAY_CLIENTS)]
        jobs.extend(batch)
        outcomes.extend(await asyncio.gather(
            *(send(ci, job) for ci, job in enumerate(batch))))
        index += 1
        if index % SCRAPE_EVERY == 0:
            await clients[0].metrics()
            scrapes += 1
        if index % GATEWAY_ROTATION == 0 and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    outcomes.sort(key=lambda o: o.rid)
    jobs.sort(key=lambda j: j.rid)
    return outcomes, wall, jobs, scrapes


async def gateway_warm_up(server: Any) -> None:
    """The warm-up requests, through the wire."""
    from repro.gateway import AsyncGatewayClient

    client = AsyncGatewayClient(server.url)
    for job in warm_up_jobs("gateway-mixed"):
        handle = await client.submit(job.solve_request())
        async for _ in client.stream(str(handle["job_id"])):
            pass
        await client.result(str(handle["job_id"]))
