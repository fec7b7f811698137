"""Process-pool ensemble executor.

Fans one solve per seed out across worker processes.  Every request is
compiled once, on the dispatching side, by its
:class:`~repro.backends.base.SolverBackend`, and becomes a list of
*work units* ``(backend name, compiled plan, seed group)``; a single
dispatch loop runs them all:

* **One worker entry point** — :func:`_solve_unit` resolves the backend
  by registry name worker-side and solves the unit, so only a string,
  the picklable :class:`~repro.backends.base.BackendPlan` and plain
  ints cross the pool boundary.  The default ``cluster-cim`` backend
  takes the same route (its ``solve`` calls :func:`_solve_one`, so
  results stay bit-identical to a direct annealer call).
* **Batching is a unit size** — a unit holds one seed, or, with
  ``options.batch_size > 1`` and a backend whose ``can_batch`` accepts
  the plan, a group of seeds solved as one vectorised batch (for the
  clustered annealer, :func:`repro.annealer.batched.solve_batch`,
  bit-identical per seed).  One :class:`RunTelemetry` per seed either
  way; the per-run ``timeout_s`` budget scales by the group size.
* **Deterministic ordering** — results come back keyed by seed and are
  reassembled in the caller's seed order, so the output is bit-identical
  to the serial path no matter which worker finishes first (each run is
  fully determined by its seed).
* **Chunked dispatch** — units are submitted in bounded waves
  (``chunk_size``, default ``2 × max_workers``) so a 10 000-seed
  ensemble never materialises 10 000 pickled plans at once.
* **Failure isolation** — a run that raises, times out
  (``timeout_s``), or returns a corrupted payload (integrity-checked
  at the pool boundary by the backend's ``validate_result``) is
  retried in-process by :meth:`EnsembleExecutor._attempt_serial`, up to
  ``max_retries`` extra attempts paced by a bounded, jittered
  :class:`~repro.runtime.faults.Backoff`, without disturbing its
  siblings; terminal failures surface as structured
  :class:`~repro.runtime.telemetry.RunTelemetry` records with
  ``ok=False`` instead of poisoning the whole ensemble, unless
  ``strict`` asks for an :class:`~repro.errors.AnnealerError`.
* **Self-healing pools** — a broken ``ProcessPoolExecutor``
  (``BrokenProcessPool``), or one whose worker slots are all occupied
  by hung runs, is rebuilt within a bounded ``self_heal_budget``
  (:class:`_PoolSupervisor`) instead of permanently degrading to the
  serial path; a *borrowed* shared pool is healed through the owner's
  ``on_pool_broken`` callback (the serving runtime's budget applies).
  Hung pool futures are cancelled when possible; an uncancellable one
  is accounted as an occupied slot until its worker finishes.
* **Serial is the same loop** — ``max_workers=1``, a missing
  ``concurrent.futures`` pool, or an exhausted self-heal budget all
  submit into an inline executor instead, which runs each unit
  in-process when it is collected; callers never have to care.
* **Chaos injection** — an :class:`~repro.runtime.faults.FaultPlan` in
  the options pins units to one seed and wraps every attempt of
  :func:`_solve_unit` in a :class:`~repro.runtime.faults.FaultInjector`,
  which injects seeded worker-crash / hang / corrupted-result /
  broken-pool faults; the dispatch side accounts each observed
  injection in ``RunTelemetry.faults_injected`` (see
  ``docs/robustness.md``).
* **Incremental surfacing** — an ``on_run_complete`` callback fires
  with each :class:`RunTelemetry` record as it lands, which is how the
  serving runtime (:mod:`repro.runtime.service`) streams telemetry
  while an ensemble is still in flight.  A *borrowed* pool (``pool=``)
  lets many concurrent ensembles multiplex one set of worker
  processes.

Tuning lives in a frozen
:class:`~repro.runtime.options.EnsembleOptions`; the pre-1.1 per-field
keyword form (``EnsembleExecutor(max_workers=4)``) was removed in 1.2
after its one-release deprecation window.  The executor is agnostic
about aggregation: it returns the ordered
:class:`~repro.runtime.telemetry.RunResultLike` list plus an
:class:`~repro.runtime.telemetry.EnsembleTelemetry`;
:func:`repro.annealer.batch.solve_ensemble` layers the quality
statistics on top.  Only :meth:`EnsembleExecutor.run` is supported
API; the worker functions and dispatch helpers are internal.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import AnnealerError
from repro.runtime.faults import (
    Backoff,
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    FaultPlan,
    InjectedFault,
    ResultIntegrityError,
)
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.runtime.telemetry import (
    EnsembleTelemetry,
    RunResultLike,
    RunTelemetry,
    Stopwatch,
)

if TYPE_CHECKING:  # import cycle: repro.annealer.batch uses this module
    from concurrent.futures import Executor, Future
    from threading import Event

    from repro.annealer.config import AnnealerConfig
    from repro.annealer.result import AnnealResult
    from repro.backends.base import BackendPlan, ProblemLike, SolverBackend
    from repro.tsp.instance import TSPInstance

#: Mirrors :data:`repro.backends.DEFAULT_BACKEND`.  Kept as a literal:
#: this module must not import :mod:`repro.backends` at import time
#: (the registrant modules sit above the runtime layer).
_DEFAULT_BACKEND = "cluster-cim"

#: Fires with each run's telemetry record the moment it is final.
RunCallback = Callable[[RunTelemetry], None]

#: Asked to replace a broken borrowed pool; returns the healed pool or
#: None when the owner's self-heal budget is spent (degrade serially).
PoolHealer = Callable[["Executor"], Optional["Executor"]]

#: One settled seed: its result (None when the run failed) + record.
Settled = Tuple[Optional[RunResultLike], RunTelemetry]


def _solve_one(
    instance: TSPInstance, config: AnnealerConfig, seed: int
) -> RunResultLike:
    """One clustered-CIM solve for one seed.

    :meth:`repro.backends.cluster_cim.ClusterCIMBackend.solve` runs
    every default TSP seed through this module-level name, which is
    the seam tests monkeypatch to script worker failures.
    """
    # Imported here so a worker process only pays for what it uses.
    from repro.annealer.hierarchical import ClusteredCIMAnnealer

    cfg = replace(config, seed=int(seed))
    return ClusteredCIMAnnealer(cfg).solve(instance)


def _solve_batch(
    instance: TSPInstance, config: AnnealerConfig, seeds: List[int]
) -> List[AnnealResult]:
    """One batched clustered-CIM solve for a group of seeds.

    The batched replica engine guarantees each returned result is
    bit-identical to :func:`_solve_one` for the same seed;
    ``ClusterCIMBackend.solve_batch`` calls it through this seam.
    """
    from repro.annealer.batched import solve_batch

    return solve_batch(instance, config, seeds)


def _solve_unit(
    backend: str,
    plan: BackendPlan,
    seeds: List[int],
    chaos: Optional[FaultPlan] = None,
    attempt: int = 0,
    in_pool: bool = False,
) -> List[RunResultLike]:
    """Worker entry point: solve one work unit, one result per seed.

    Module-level (not a closure) so it pickles into pool workers; the
    backend is resolved by registry name *inside* the worker.  A unit
    of several seeds is one batched solve.  Under a chaos plan (units
    are then single seeds) the solve is wrapped in the plan's
    :class:`~repro.runtime.faults.FaultInjector`: crash / hang /
    broken-pool faults fire before it, and the corrupt fault tampers
    its result, so each backend's ``validate_result`` gate is
    exercised the same way.
    """
    from repro.backends import resolve_backend

    impl = resolve_backend(backend)
    if len(seeds) > 1:
        return impl.solve_batch(plan, seeds)
    seed = seeds[0]
    if chaos is None:
        return [impl.solve(plan, seed)]
    injector = FaultInjector(chaos)
    injector.pre_solve(seed, attempt, in_pool=in_pool)
    return [injector.post_solve(seed, attempt, impl.solve(plan, seed))]


class _InlineFuture:
    """An inline-submitted unit: it runs in-process when collected, so
    the cancel and breaker checks before each unit precede its solve.
    Inline runs never wait, so ``timeout`` is moot."""

    def __init__(
        self, fn: Callable[..., List[RunResultLike]], args: Tuple[Any, ...]
    ) -> None:
        self._fn = fn
        self._args = args

    def result(self, timeout: Optional[float] = None) -> List[RunResultLike]:
        return self._fn(*self._args)


class _InlineExecutor:
    """The serial "pool": same ``submit`` call, deferred in-process run."""

    def submit(
        self, fn: Callable[..., List[RunResultLike]], *args: Any
    ) -> _InlineFuture:
        return _InlineFuture(fn, args)


_INLINE = _InlineExecutor()


@dataclass(frozen=True)
class _Work:
    """What every unit of one :meth:`EnsembleExecutor.run` shares.

    Per-call, never stored on the executor: one executor instance may
    serve concurrent ``run()`` calls.
    """

    backend: str
    impl: SolverBackend
    plan: BackendPlan
    reference: Optional[float]
    breaker: Optional[CircuitBreaker]
    on_run_complete: Optional[RunCallback]
    worker_prefix: str
    worker_suffix: str

    def worker(self, where: str) -> str:
        """The ``worker`` label for a run settled ``where``."""
        return f"{self.worker_prefix}{where}{self.worker_suffix}"

    def emit(self, record: RunTelemetry) -> None:
        """Stamp the backend and surface one final record."""
        record.backend = self.backend
        if self.on_run_complete is not None:
            self.on_run_complete(record)


class _PoolSupervisor:
    """Owns the pool handle for one :meth:`EnsembleExecutor.run`.

    Centralises the self-healing state: (re)builds owned pools within
    a bounded rebuild budget, routes borrowed-pool breakage to the
    owner's ``on_pool_broken`` callback, and accounts worker slots
    occupied by hung (timed-out but uncancellable) runs so a starved
    pool is healed like a broken one.
    """

    def __init__(
        self,
        pool: Optional["Executor"],
        max_workers: int,
        budget: int,
        on_pool_broken: Optional[PoolHealer] = None,
    ) -> None:
        self.pool = pool
        self.owns_pool = pool is None
        self.max_workers = max_workers
        self.budget_left = budget
        self.rebuilds = 0
        self._on_pool_broken = on_pool_broken
        self._hung = 0
        self._lock = threading.Lock()

    def build(self) -> bool:
        """Create the initial owned pool; False → degrade serially."""
        try:
            from concurrent.futures import ProcessPoolExecutor

            self.pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return True
        # Pool construction cannot raise AnnealerError, and any failure
        # here (sandbox, no fork, ...) must degrade to the serial path.
        except Exception:  # repro-lint: ignore[RL005]
            self.pool = None
            return False

    def note_hung(self, fut: "Future[Any]") -> None:
        """A timed-out future could not be cancelled: its worker slot
        stays occupied until the hung run finishes on its own."""
        with self._lock:
            self._hung += 1

        def _reclaim(_done: "Future[Any]") -> None:
            with self._lock:
                self._hung = max(0, self._hung - 1)

        fut.add_done_callback(_reclaim)

    @property
    def hung_slots(self) -> int:
        """Worker slots currently occupied by hung runs."""
        with self._lock:
            return self._hung

    def starved(self) -> bool:
        """True when hung runs occupy every worker slot."""
        return self.hung_slots >= self.max_workers

    def heal(self) -> bool:
        """Replace a broken or starved pool; False → degrade serially.

        Owned pools are rebuilt directly (``budget_left`` bounded);
        borrowed pools defer to the owner's ``on_pool_broken`` (the
        owner enforces its own budget, and may hand back a pool a
        sibling already healed).
        """
        old = self.pool
        if self.owns_pool:
            if self.budget_left <= 0:
                return False
            self.budget_left -= 1
            if old is not None:
                # Abandon, don't wait: hung workers finish their sleep
                # and exit on their own; queued tasks are cancelled.
                old.shutdown(wait=False, cancel_futures=True)
            if not self.build():
                return False
        else:
            if self._on_pool_broken is None:
                return False
            healed = self._on_pool_broken(old) if old is not None else None
            if healed is None:
                return False
            self.pool = healed
        with self._lock:
            self._hung = 0
        self.rebuilds += 1
        return True

    def shutdown(self) -> None:
        """Release an owned pool (borrowed pools stay with the owner)."""
        if self.owns_pool and self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)


class EnsembleExecutor:
    """Configurable parallel runner for seed ensembles.

    Construct with a frozen :class:`EnsembleOptions`::

        EnsembleExecutor(EnsembleOptions(max_workers=4, timeout_s=30))

    The pre-1.1 per-field keyword form
    (``EnsembleExecutor(max_workers=4)``) was removed in 1.2 after its
    one-release deprecation window (see ``docs/serving.md``).
    """

    def __init__(self, options: Optional[EnsembleOptions] = None) -> None:
        self.options = options if options is not None else EnsembleOptions()

    @property
    def _chaos(self) -> Optional[FaultPlan]:
        """The active chaos plan, or None."""
        plan = self.options.fault_plan
        return plan if plan is not None and plan.enabled else None

    # ------------------------------------------------------------------
    def run(
        self,
        instance: "ProblemLike",
        seeds: Sequence[int],
        config: Optional[AnnealerConfig] = None,
        reference: Optional[float] = None,
        *,
        backend: str = _DEFAULT_BACKEND,
        on_run_complete: Optional[RunCallback] = None,
        pool: Optional["Executor"] = None,
        worker_prefix: str = "",
        worker_suffix: str = "",
        cancel: Optional["Event"] = None,
        breaker: Optional[CircuitBreaker] = None,
        on_pool_broken: Optional[PoolHealer] = None,
    ) -> Tuple[List[RunResultLike], EnsembleTelemetry]:
        """Solve ``instance`` once per seed.

        Returns the successful results **in input-seed order** plus the
        full telemetry (which also lists failed runs).

        Parameters
        ----------
        backend:
            Registry name of the solver backend to dispatch to
            (:func:`repro.backends.list_backends`).  Its ``compile``
            runs once, here; every attempt then runs its ``solve``
            (worker-side) and its ``validate_result`` integrity gate
            (dispatch-side).  Every emitted :class:`RunTelemetry`
            record is stamped with this name.
        on_run_complete:
            Called with each run's final :class:`RunTelemetry` as it is
            produced (in collection order), while later seeds are still
            in flight.  Must be cheap and must not raise.
        pool:
            A *borrowed* ``concurrent.futures`` executor to dispatch
            into instead of creating (and tearing down) a private pool.
            The caller owns its lifecycle; used by the serving runtime
            to share one pool across concurrent jobs.
        worker_prefix:
            Prepended to each record's ``worker`` field: the shard
            segment.  A named :class:`~repro.runtime.AnnealingService`
            (e.g. a gateway shard) threads ``"<name>/"`` through here
            so records read ``shard0/pool@job-0001`` and telemetry
            spans multi-backend dispatch.
        worker_suffix:
            Appended to each record's ``worker`` field (the serving
            runtime threads ``@<job_id>`` through here so multiplexed
            telemetry streams stay attributable).
        cancel:
            A ``threading.Event``; once set, no further seeds are
            dispatched and the run raises
            :class:`~repro.errors.AnnealerError`.  In-flight seeds
            finish first (cancellation is cooperative): it is checked
            before every in-process unit and before every pool wave.
        breaker:
            A per-ensemble :class:`~repro.runtime.faults.CircuitBreaker`;
            consulted before each seed is collected and fed every
            terminal run outcome.  Once open, the run raises
            :class:`~repro.runtime.faults.CircuitOpenError` instead of
            burning the remaining seeds.
        on_pool_broken:
            Self-heal hook for *borrowed* pools: called with the broken
            pool, must return a replacement (possibly one a sibling
            already healed) or None to decline, at which point this
            ensemble degrades to the serial path.  Owned pools heal
            themselves within ``options.self_heal_budget`` instead.
        """
        request = SolveRequest.build(
            instance,
            seeds,
            config=config,
            reference=reference,
            options=self.options,
            backend=backend,
        )
        from repro.backends import resolve_backend

        impl = resolve_backend(backend)
        work = _Work(
            backend=backend,
            impl=impl,
            plan=impl.compile(instance, config),
            reference=reference,
            breaker=breaker,
            on_run_complete=on_run_complete,
            worker_prefix=worker_prefix,
            worker_suffix=worker_suffix,
        )
        # Batching is a pure throughput path: an active fault plan
        # needs per-seed attempt accounting, so it pins units to one
        # seed, as does a backend that cannot batch this plan.
        size = 1
        if self._chaos is None and impl.can_batch(work.plan):
            size = self.options.batch_size
        ordered = list(request.seeds)
        units = [ordered[i : i + size] for i in range(0, len(ordered), size)]

        watch = Stopwatch()
        supervisor = _PoolSupervisor(
            pool,
            max_workers=self.options.max_workers,
            budget=self.options.self_heal_budget,
            on_pool_broken=on_pool_broken,
        )
        if pool is None and self.options.max_workers == 1:
            inline, mode = True, "serial"
        elif supervisor.owns_pool and not supervisor.build():
            inline, mode = True, "serial-fallback"
        else:
            inline, mode = False, "parallel"
        try:
            by_seed, degraded = self._dispatch(
                work, units, supervisor, inline, cancel
            )
        finally:
            supervisor.shutdown()
        telemetry = EnsembleTelemetry(
            runs=[by_seed[s][1] for s in ordered],
            max_workers=self.options.max_workers,
            mode="serial-fallback" if degraded else mode,
            wall_time_s=watch.elapsed_s(),
            pool_rebuilds=supervisor.rebuilds,
            backend=backend,
        )
        results = [
            by_seed[s][0] for s in ordered if by_seed[s][0] is not None
        ]
        return results, telemetry

    # ------------------------------------------------------------------
    @staticmethod
    def _check_cancel(cancel: Optional["Event"], done: int, total: int) -> None:
        if cancel is not None and cancel.is_set():
            raise AnnealerError(
                f"ensemble cancelled after {done}/{total} runs"
            )

    def _dispatch(
        self,
        work: _Work,
        units: List[List[int]],
        supervisor: _PoolSupervisor,
        inline: bool,
        cancel: Optional["Event"],
    ) -> Tuple[Dict[int, Settled], bool]:
        """The dispatch loop: waves of units, pooled or inline.

        Returns every seed's settled outcome and whether the pool
        degraded to in-process dispatch mid-run.
        """
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        chaos = self._chaos
        timeout = self.options.timeout_s
        chunk = self.options.chunk_size or 2 * self.options.max_workers
        total = sum(len(unit) for unit in units)
        by_seed: Dict[int, Settled] = {}
        degraded = False
        for lo in range(0, len(units), chunk):
            self._check_cancel(cancel, len(by_seed), total)
            wave = units[lo : lo + chunk]
            futures = (
                None if inline else self._submit(supervisor.pool, work, wave)
            )
            wave_inline = futures is None
            if futures is None:
                if not inline and not supervisor.heal():
                    # The pool refused the wave (broken / shut down by a
                    # sibling) and cannot be healed: the rest of the
                    # ensemble runs in-process.  A healed pool takes the
                    # *next* wave; this one finishes in-process.
                    inline = degraded = True
                futures = self._submit(_INLINE, work, wave)
                assert futures is not None
            where = "serial" if wave_inline else "pool"
            pool_broke = False
            for unit, fut in zip(wave, futures):
                if wave_inline:
                    self._check_cancel(cancel, len(by_seed), total)
                if work.breaker is not None:
                    for seed in unit:
                        work.breaker.check(f"run for seed {seed}")
                kind = chaos.fault_for(unit[0], 0) if chaos else None
                results: List[Optional[RunResultLike]] = [None] * len(unit)
                error: Optional[BaseException] = None
                hung = False
                budget = None if timeout is None else timeout * len(unit)
                try:
                    results = list(fut.result(timeout=budget))
                except AnnealerError:
                    raise  # configuration errors are not transient: fail loud
                except Exception as exc:  # noqa: BLE001 — isolate faults
                    error = exc
                    if isinstance(exc, BrokenProcessPool):
                        pool_broke = True
                    elif isinstance(exc, FuturesTimeout) and not wave_inline:
                        # Reclaim the worker slot if the unit never
                        # started; a running (hung) worker cannot be
                        # cancelled and occupies its slot until done.
                        hung = not fut.cancel()
                        if hung:
                            supervisor.note_hung(fut)
                        what = "run" if len(unit) == 1 else (
                            f"batch of {len(unit)} runs"
                        )
                        error = TimeoutError(
                            f"{what} exceeded {budget}s in pool"
                        )
                for seed, result in zip(unit, results):
                    by_seed[seed] = self._settle(
                        work, seed, result, error, kind, hung, where
                    )
                    work.emit(by_seed[seed][1])
            if not inline and (pool_broke or supervisor.starved()):
                # Self-heal: replace the broken/starved pool within the
                # budget instead of degrading for good.
                if not supervisor.heal():
                    inline = degraded = True
        return by_seed, degraded

    def _submit(
        self, executor: Any, work: _Work, wave: List[List[int]]
    ) -> Optional[List[Any]]:
        """Submit one wave of units; None when the pool refuses.

        A partial submission (pool breaking mid-wave) abandons the
        already-submitted futures — their seeds are re-run in-process
        by the caller, which is deterministic because every run is a
        pure function of its seed.
        """
        in_pool = executor is not _INLINE
        try:
            return [
                executor.submit(
                    _solve_unit,
                    work.backend,
                    work.plan,
                    unit,
                    self._chaos,
                    0,
                    in_pool,
                )
                for unit in wave
            ]
        # A borrowed pool can be shut down or broken by a sibling job
        # mid-flight; the caller heals or degrades.
        except Exception:  # repro-lint: ignore[RL005]
            return None

    def _settle(
        self,
        work: _Work,
        seed: int,
        result: Optional[RunResultLike],
        error: Optional[BaseException],
        kind: Optional[FaultKind],
        hung: bool,
        where: str,
    ) -> Settled:
        """Validate one seed's first attempt; retry it when it failed."""
        if error is None:
            assert result is not None
            try:
                work.impl.validate_result(work.plan.problem, result)
            except AnnealerError:
                raise
            except Exception as exc:  # noqa: BLE001 — isolate worker faults
                error = exc
        # In-process execution is certain: the scheduled fault ran.  A
        # pool attempt accounts it only when its outcome shows it.
        faults = (
            [kind.value]
            if kind is not None
            and (where == "serial" or self._fault_observed(kind, error, hung))
            else []
        )
        if error is not None:
            return self._attempt_serial(work, seed, error, faults)
        assert result is not None
        if work.breaker is not None:
            work.breaker.record_success()
        return result, RunTelemetry.from_result(
            seed,
            result,
            work.reference,
            worker=work.worker(where),
            faults_injected=faults,
        )

    def _attempt_serial(
        self,
        work: _Work,
        seed: int,
        first_error: BaseException,
        faults: List[str],
    ) -> Settled:
        """Retry one seed in-process with the retry budget that is left.

        The one retry path, whether the first attempt failed inline or
        in the pool.  Retries are paced by a bounded, deterministically
        jittered :class:`Backoff`; the first failure is preserved in the
        record's ``first_error`` field even when a later attempt
        recovers.
        """
        chaos = self._chaos
        backoff = Backoff(
            self.options.backoff_base_s,
            self.options.backoff_cap_s,
            seed=seed,
        )
        backoff_s = 0.0
        last = first_error
        retries = self.options.max_retries
        for attempt in range(1, retries + 1):
            backoff_s += backoff.wait(attempt)
            kind = chaos.fault_for(seed, attempt) if chaos is not None else None
            if kind is not None:
                # In-process execution is certain: the fault will run.
                faults.append(kind.value)
            try:
                (result,) = _solve_unit(
                    work.backend, work.plan, [seed], chaos, attempt
                )
                work.impl.validate_result(work.plan.problem, result)
            except AnnealerError:
                raise  # configuration errors are not transient: fail loud
            except Exception as exc:  # noqa: BLE001 — isolate worker faults
                last = exc
                continue
            if work.breaker is not None:
                work.breaker.record_success()
            return result, RunTelemetry.from_result(
                seed,
                result,
                work.reference,
                retries=attempt,
                worker=work.worker("serial"),
                faults_injected=faults,
                backoff_s=backoff_s,
                first_error=repr(first_error),
            )
        if work.breaker is not None:
            work.breaker.record_failure()
        if self.options.strict:
            raise AnnealerError(
                f"run for seed {seed} failed after "
                f"{retries + 1} attempts: {last!r}"
            )
        return None, RunTelemetry.from_failure(
            seed,
            last,
            retries=retries + 1,
            worker=work.worker("serial"),
            faults_injected=faults,
            backoff_s=backoff_s,
            first_error=repr(first_error),
        )

    @staticmethod
    def _fault_observed(
        kind: Optional[FaultKind],
        exc: Optional[BaseException],
        hung: bool,
    ) -> bool:
        """Did the fault scheduled for a *pool* attempt actually run?

        Pool execution is not certain (a queued task can be cancelled
        or killed by a sibling's pool breakage before its own fault
        fires), so injected-fault accounting for pool attempts goes by
        the observed outcome instead of the schedule alone.
        """
        from concurrent.futures.process import BrokenProcessPool

        if kind is None:
            return False
        if exc is None:
            # Ran to completion: only a hang (slept, then solved) or a
            # corrupt fault (caught by validation, so not here) can
            # coexist with success.
            return True
        if isinstance(exc, InjectedFault):
            return True
        if isinstance(exc, ResultIntegrityError):
            return kind is FaultKind.CORRUPT
        if isinstance(exc, TimeoutError):
            # Only a *running* worker has executed its injected sleep;
            # a still-queued future timed out on queue wait instead.
            return kind is FaultKind.HANG and hung
        if isinstance(exc, BrokenProcessPool):
            return kind is FaultKind.BROKEN_POOL
        return False
