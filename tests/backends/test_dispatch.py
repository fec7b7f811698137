"""Backend dispatch through the ensemble runtime.

The acceptance bar of the registry redesign: a default-backend
``SolveRequest`` must produce results bit-identical to constructing the
paper's annealer directly (the pre-registry behavior), and every named
backend must solve end-to-end through ``solve_ensemble`` with its
telemetry stamped accordingly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.annealer.batch import solve_ensemble
from repro.annealer.config import AnnealerConfig
from repro.annealer.hierarchical import ClusteredCIMAnnealer
from repro.errors import AnnealerError
from repro.ising.schedule import VddSchedule
from repro.ising.simcim import random_ising_model
from repro.maxcut.generators import gset_style
from repro.problems import make_problem
from repro.runtime.executor import EnsembleExecutor
from repro.runtime.faults import FaultKind, FaultPlan
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.tsp.generators import random_uniform
from repro.tsp.reference import reference_length

SEEDS = (3, 1, 2)

#: One named backend per non-TSP payload kind: (backend, problem factory).
NAMED = [
    pytest.param(
        "simcim", lambda: random_ising_model(16, seed=6), id="simcim-ising"
    ),
    pytest.param("maxcut-sb", lambda: gset_style(30, seed=4), id="maxcut-sb"),
    pytest.param(
        "dense-ising",
        lambda: make_problem("coloring", 6, seed=2).to_qubo(),
        id="dense-ising-qubo",
    ),
]

#: Deliberately unsorted: output must follow input order.
NAMED_SEEDS = [5, 3, 0, 7, 1, 6, 2, 4]


def chaos_plan() -> FaultPlan:
    """The first chaos seed whose plan crashes, hangs *and* corrupts at
    least one first attempt over ``NAMED_SEEDS``, so accounting is never
    vacuous."""
    for chaos_seed in range(1000):
        plan = FaultPlan(
            seed=chaos_seed,
            crash_rate=0.2,
            corrupt_rate=0.2,
            hang_rate=0.1,
            hang_s=0.02,
        )
        kinds = {plan.fault_for(s, 0) for s in NAMED_SEEDS}
        if {FaultKind.CRASH, FaultKind.CORRUPT, FaultKind.HANG} <= kinds:
            return plan
    raise AssertionError("no chaos seed below 1000 hits every fault kind")


def assert_bit_identical(ours, theirs):
    assert [r.length for r in ours] == [r.length for r in theirs]
    for a, b in zip(ours, theirs):
        assert np.array_equal(a.tour, b.tour)


@pytest.fixture
def tsp16():
    return random_uniform(16, seed=7)


@pytest.fixture
def fast_config():
    return AnnealerConfig(
        schedule=VddSchedule(total_iterations=40, iterations_per_step=10)
    )


class TestDefaultBackendBitIdentity:
    def test_matches_direct_annealer_and_pre_registry_reference(
        self, tsp16, fast_config
    ):
        request = SolveRequest.build(tsp16, SEEDS, config=fast_config)
        ensemble = solve_ensemble(request)

        direct = [
            ClusteredCIMAnnealer(replace(fast_config, seed=s)).solve(tsp16)
            for s in SEEDS
        ]
        assert [r.length for r in ensemble.results] == [
            d.length for d in direct
        ]
        for ours, theirs in zip(ensemble.results, direct):
            assert np.array_equal(ours.tour, theirs.tour)
        assert ensemble.reference == reference_length(
            tsp16, seed=SEEDS[0]
        )

    def test_explicit_name_equals_omitted_name(self, tsp16, fast_config):
        implicit = solve_ensemble(
            SolveRequest.build(tsp16, SEEDS, config=fast_config)
        )
        explicit = solve_ensemble(
            SolveRequest.build(
                tsp16, SEEDS, config=fast_config, backend="cluster-cim"
            )
        )
        assert [r.length for r in implicit.results] == [
            r.length for r in explicit.results
        ]
        assert implicit.reference == explicit.reference

    def test_telemetry_stamped_with_default_backend(
        self, tsp16, fast_config
    ):
        request = SolveRequest.build(tsp16, SEEDS, config=fast_config)
        telemetry = solve_ensemble(request).telemetry
        assert telemetry is not None
        assert telemetry.backend == "cluster-cim"
        assert all(r.backend == "cluster-cim" for r in telemetry.runs)


class TestNamedBackendDispatch:
    def test_dense_ising_end_to_end(self):
        instance = random_uniform(10, seed=5)
        request = SolveRequest.build(
            instance, (1, 2), backend="dense-ising"
        )
        ensemble = solve_ensemble(request)
        assert ensemble.n_runs == 2
        assert ensemble.reference == reference_length(instance, seed=1)
        assert all(r > 0 for r in ensemble.ratios)
        telemetry = ensemble.telemetry
        assert telemetry is not None
        assert all(r.backend == "dense-ising" for r in telemetry.runs)

    def test_maxcut_sb_end_to_end(self):
        problem = gset_style(30, seed=4)
        request = SolveRequest.build(problem, (1, 2), backend="maxcut-sb")
        ensemble = solve_ensemble(request)
        # length = -cut and reference = -greedy_cut: best is the run
        # with the largest cut, and ratios read cut-over-greedy.
        assert ensemble.reference < 0
        assert ensemble.best.length == min(
            r.length for r in ensemble.results
        )
        assert all(r > 0 for r in ensemble.ratios)

    def test_simcim_end_to_end_ratios_zero(self):
        model = random_ising_model(16, seed=6)
        request = SolveRequest.build(model, (1, 2), backend="simcim")
        ensemble = solve_ensemble(request)
        assert ensemble.reference == 0.0
        assert ensemble.ratios == [0.0, 0.0]
        assert ensemble.ratio_stats is not None

    def test_named_dispatch_is_deterministic(self):
        instance = random_uniform(10, seed=5)
        request = SolveRequest.build(
            instance, (1, 2), backend="dense-ising"
        )
        first = solve_ensemble(request)
        again = solve_ensemble(request)
        assert [r.length for r in first.results] == [
            r.length for r in again.results
        ]

    @pytest.mark.parametrize("backend, make", NAMED)
    def test_pool_dispatch_bit_identical_to_serial(self, backend, make):
        problem = make()
        serial, _ = EnsembleExecutor(EnsembleOptions(max_workers=1)).run(
            problem, NAMED_SEEDS, backend=backend
        )
        pooled, tel = EnsembleExecutor(EnsembleOptions(max_workers=2)).run(
            problem, NAMED_SEEDS, backend=backend
        )
        assert tel.mode == "parallel" and tel.backend == backend
        assert [t.seed for t in tel.runs] == NAMED_SEEDS
        assert all(
            t.ok and t.worker == "pool" and t.backend == backend
            for t in tel.runs
        )
        assert_bit_identical(pooled, serial)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    @pytest.mark.parametrize("backend, make", NAMED)
    def test_chaos_recovers_bit_identical_and_accounted(
        self, backend, make, workers
    ):
        problem = make()
        clean, _ = EnsembleExecutor(EnsembleOptions(max_workers=1)).run(
            problem, NAMED_SEEDS, backend=backend
        )
        plan = chaos_plan()
        results, tel = EnsembleExecutor(
            EnsembleOptions(
                max_workers=workers,
                max_retries=2,
                backoff_base_s=0.0,
                fault_plan=plan,
            )
        ).run(problem, NAMED_SEEDS, backend=backend)
        assert tel.n_failed == 0
        assert_bit_identical(results, clean)
        # Without timeouts every fault runs to an observable outcome,
        # in-process and in the pool alike: accounting is exact.
        for run in tel.runs:
            assert tuple(run.faults_injected) == plan.faults_for_run(
                run.seed, run.retries + 1
            )
            if {"crash", "corrupt"} & set(run.faults_injected):
                assert run.retries >= 1 and run.first_error
            else:
                assert run.retries == 0
        by_kind = tel.faults_by_kind
        assert by_kind.get("crash", 0) > 0
        assert by_kind.get("corrupt", 0) > 0
        assert by_kind.get("hang", 0) > 0
        expected_worker = "serial" if workers == 1 else "pool"
        assert all(
            t.worker == expected_worker for t in tel.runs if t.retries == 0
        )


class TestRequestValidation:
    def test_unknown_backend_rejected_at_build(self, tsp16):
        with pytest.raises(AnnealerError, match="unknown backend"):
            SolveRequest.build(tsp16, (1,), backend="nope")

    def test_payload_kind_checked_against_backend(self, tsp16):
        with pytest.raises(
            AnnealerError, match="backend 'simcim' solves"
        ):
            SolveRequest.build(tsp16, (1,), backend="simcim")

    def test_config_rejected_for_configless_backend(
        self, tsp16, fast_config
    ):
        with pytest.raises(
            AnnealerError, match="does not take an AnnealerConfig"
        ):
            SolveRequest.build(
                tsp16, (1,), config=fast_config, backend="dense-ising"
            )

    def test_solve_ensemble_keyword_backend_route(self):
        # The loose-argument form threads backend= onto the request.
        model = random_ising_model(8, seed=2)
        ensemble = solve_ensemble(model, (4,), backend="simcim")
        assert ensemble.n_runs == 1

    def test_request_form_rejects_extra_backend(self, tsp16, fast_config):
        request = SolveRequest.build(tsp16, (1,), config=fast_config)
        with pytest.raises(AnnealerError, match="takes no other arguments"):
            solve_ensemble(request, backend="dense-ising")
