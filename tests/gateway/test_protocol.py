"""Wire-protocol round-trips and strict validation."""

from __future__ import annotations

import dataclasses
import json
from typing import Optional

import numpy as np
import pytest

from repro.annealer.config import AnnealerConfig, NoiseSource, NoiseTarget
from repro.gateway.protocol import (
    REQUEST_SCHEMA,
    ProtocolError,
    decode_solve_request,
    decode_wire,
    encode_solve_request,
    encode_wire,
    error_payload,
    job_payload,
    parse_telemetry_frame,
)
from repro.ising.schedule import VddSchedule
from repro.runtime.faults import FaultPlan
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.runtime.telemetry import RunTelemetry
from repro.sram.cell import SRAMCellParams


def wire_round_trip(request: SolveRequest) -> SolveRequest:
    """Encode → JSON text → decode, exactly like the HTTP path."""
    return decode_solve_request(json.loads(json.dumps(encode_solve_request(request))))


class TestSolveRequestRoundTrip:
    def test_basic_fields_lossless(self, make_request):
        request = make_request((5, 9, 13), tag="rt")
        back = wire_round_trip(request)
        assert back.seeds == (5, 9, 13)
        assert back.tag == "rt"
        assert back.reference is None
        np.testing.assert_array_equal(
            back.instance.coords, request.instance.coords
        )
        assert back.instance.edge_weight_type == (
            request.instance.edge_weight_type
        )

    def test_config_lossless(self, instance):
        config = AnnealerConfig(
            strategy="1/2",
            schedule=VddSchedule(
                total_iterations=100, iterations_per_step=20
            ),
            top_size=6,
            cell_params=SRAMCellParams(sigma_v_mv=24.0),
            noise_source=NoiseSource.LFSR,
            noise_target=NoiseTarget.SPINS,
            parallel_update=False,
            seed=3,
            record_trace=True,
            trace_every=5,
        )
        request = SolveRequest.build(instance, [1], config=config)
        back = wire_round_trip(request)
        assert back.config is not None
        assert back.config.strategy.name == "1/2"
        assert back.config.schedule == config.schedule
        assert back.config.cell_params == config.cell_params
        assert back.config.noise_source is NoiseSource.LFSR
        assert back.config.noise_target is NoiseTarget.SPINS
        assert back.config.parallel_update is False
        assert back.config.top_size == 6
        assert back.config.record_trace is True
        assert back.config.trace_every == 5

    def test_options_and_fault_plan_lossless(self, instance):
        options = EnsembleOptions(
            max_workers=3,
            timeout_s=12.5,
            max_retries=2,
            chunk_size=4,
            strict=True,
            max_inflight_per_job=5,
            max_pending_jobs=7,
            backoff_base_s=0.0,
            backoff_cap_s=0.5,
            self_heal_budget=1,
            breaker_threshold=None,
            fault_plan=FaultPlan(
                seed=42,
                crash_rate=0.2,
                hang_rate=0.1,
                corrupt_rate=0.05,
                broken_pool_rate=0.01,
                hang_s=1.5,
                max_faults_per_run=2,
            ),
        )
        request = SolveRequest.build(instance, [1, 2], options=options)
        back = wire_round_trip(request)
        assert back.options == options  # frozen dataclasses: deep equality

    def test_reference_survives(self, instance):
        request = SolveRequest.build(instance, [1], reference=123.5)
        assert wire_round_trip(request).reference == 123.5

    def test_deadline_survives(self, instance):
        request = SolveRequest.build(instance, [1], deadline_s=12.5)
        assert wire_round_trip(request).deadline_s == 12.5

    def test_null_options_mean_defaults(self, make_request):
        wire = encode_solve_request(make_request())
        wire["options"] = None
        back = decode_solve_request(json.loads(json.dumps(wire)))
        assert back.options == EnsembleOptions()

    def test_deadline_absent_stays_none(self, instance):
        # Pre-deadline payloads (no "deadline_s" key) decode to an
        # unbounded request, and None survives the round trip.
        request = SolveRequest.build(instance, [1])
        assert wire_round_trip(request).deadline_s is None
        wire = encode_solve_request(request)
        del wire["deadline_s"]
        back = decode_solve_request(json.loads(json.dumps(wire)))
        assert back.deadline_s is None

    def test_solved_identically_after_round_trip(self, make_request):
        # The acceptance bar: a request that crossed the wire solves
        # bit-identically to the original object.
        from repro.annealer.batch import solve_ensemble

        request = make_request((21, 22))
        direct = solve_ensemble(request)
        wired = solve_ensemble(wire_round_trip(request))
        assert [r.length for r in wired.results] == [
            r.length for r in direct.results
        ]
        assert [list(r.tour) for r in wired.results] == [
            list(r.tour) for r in direct.results
        ]


class TestProblemUnionWire:
    """The tagged problem union + per-request backend on the wire."""

    def test_pre_backend_payload_decodes_to_default(self, make_request):
        # A recorded pre-1.3 body: no "backend" key, no instance
        # "kind" tag.  It must decode to the default cluster-CIM
        # request unchanged.
        from repro.tsp.instance import TSPInstance

        wire = encode_solve_request(make_request((5, 6)))
        del wire["backend"]
        del wire["instance"]["kind"]
        back = decode_solve_request(json.loads(json.dumps(wire)))
        assert back.backend == "cluster-cim"
        assert isinstance(back.instance, TSPInstance)
        assert back.seeds == (5, 6)

    def test_backend_field_survives_round_trip(self, instance):
        request = SolveRequest.build(instance, [1], backend="dense-ising")
        assert wire_round_trip(request).backend == "dense-ising"

    def test_ising_problem_lossless(self):
        from repro.ising.simcim import random_ising_model

        model = random_ising_model(6, seed=3)
        request = SolveRequest.build(model, [1, 2], backend="simcim")
        back = wire_round_trip(request)
        assert back.backend == "simcim"
        assert back.instance.convention == model.convention
        np.testing.assert_allclose(
            back.instance.couplings, model.couplings
        )

    def test_maxcut_problem_lossless(self):
        from repro.maxcut import gset_style

        problem = gset_style(12, seed=1)
        request = SolveRequest.build(problem, [3], backend="maxcut-sb")
        back = wire_round_trip(request)
        assert back.backend == "maxcut-sb"
        assert back.instance.n_nodes == problem.n_nodes
        assert back.instance.name == problem.name
        np.testing.assert_array_equal(
            np.asarray(back.instance.edges), np.asarray(problem.edges)
        )
        np.testing.assert_allclose(
            np.asarray(back.instance.weights), np.asarray(problem.weights)
        )

    def test_qubo_problem_lossless(self):
        from repro.problems import make_problem

        qubo = make_problem("coloring", 6, seed=4).to_qubo()
        request = SolveRequest.build(qubo, [7, 8], backend="cluster-cim")
        back = wire_round_trip(request)
        assert back.backend == "cluster-cim"
        assert back.instance.name == qubo.name
        assert back.instance.offset == qubo.offset
        np.testing.assert_array_equal(back.instance.q, qubo.q)
        # Re-encoding the decoded request is byte-identical.
        assert json.dumps(encode_solve_request(back), sort_keys=True) == (
            json.dumps(encode_solve_request(request), sort_keys=True)
        )

    def test_qubo_with_config_rejected_on_wire(self, make_request):
        from repro.gateway.protocol import encode_qubo_problem
        from repro.problems import make_problem

        qubo = make_problem("knapsack", 5, seed=0).to_qubo()
        wire = encode_solve_request(make_request((1,)))
        wire["instance"] = encode_qubo_problem(qubo)
        assert wire["config"] is not None
        with pytest.raises(ProtocolError, match="invalid solve request"):
            decode_solve_request(wire)

    def test_qubo_unknown_field_rejected(self):
        from repro.problems import make_problem

        qubo = make_problem("maxsat", 4, seed=0).to_qubo()
        request = SolveRequest.build(qubo, [1], backend="simcim")
        wire = encode_solve_request(request)
        wire["instance"]["penalty"] = 2.0
        with pytest.raises(
            ProtocolError, match="unknown fields.*penalty"
        ):
            decode_solve_request(wire)

    def test_pre_qubo_docs_unchanged_on_wire(self, make_request):
        # Wire-drift guard: adding the qubo union member must not
        # change the shape of the existing kinds' documents.
        wire = encode_solve_request(make_request((1, 2)))
        assert set(wire) == {
            "schema",
            "instance",
            "seeds",
            "config",
            "reference",
            "options",
            "tag",
            "backend",
            "deadline_s",
        }
        assert wire["instance"]["kind"] == "tsp"
        assert "qubo" not in json.dumps(wire)

    def test_unknown_backend_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["backend"] = "quantum-tunneler"
        with pytest.raises(ProtocolError, match="unknown backend"):
            decode_solve_request(wire)

    def test_unknown_problem_kind_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["instance"]["kind"] = "sudoku"
        with pytest.raises(ProtocolError, match="unknown problem kind"):
            decode_solve_request(wire)

    def test_capability_mismatch_rejected(self, make_request):
        # A TSP payload aimed at the Max-Cut backend is a 400, not a
        # worker-side crash.
        wire = encode_solve_request(make_request())
        wire["backend"] = "maxcut-sb"
        with pytest.raises(ProtocolError, match="invalid solve request"):
            decode_solve_request(wire)

    def test_config_rejected_for_configless_backend(self, make_request):
        wire = encode_solve_request(make_request((1,)))
        wire["backend"] = "dense-ising"
        assert wire["config"] is not None
        with pytest.raises(ProtocolError, match="invalid solve request"):
            decode_solve_request(wire)


class TestStrictValidation:
    def test_wrong_schema_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["schema"] = "repro.solve_request/v9"
        with pytest.raises(ProtocolError, match="expected schema"):
            decode_solve_request(wire)

    def test_missing_schema_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        del wire["schema"]
        with pytest.raises(ProtocolError, match="expected schema"):
            decode_solve_request(wire)

    def test_unknown_top_level_field_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["priority"] = "high"
        with pytest.raises(ProtocolError, match="unknown fields.*priority"):
            decode_solve_request(wire)

    def test_unknown_options_field_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["options"]["n_workers"] = 4
        with pytest.raises(ProtocolError, match="unknown fields.*n_workers"):
            decode_solve_request(wire)

    def test_unknown_fault_plan_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown fields"):
            decode_wire(FaultPlan, {"seed": 1, "explode_rate": 1.0})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            decode_solve_request([1, 2, 3])

    @pytest.mark.parametrize(
        "seeds", [None, [], [1, "2"], [1, 2.5], [True, False], "12"]
    )
    def test_bad_seeds_rejected(self, make_request, seeds):
        wire = encode_solve_request(make_request())
        wire["seeds"] = seeds
        with pytest.raises(ProtocolError, match="seeds"):
            decode_solve_request(wire)

    def test_duplicate_seeds_rejected_as_protocol_error(self, make_request):
        wire = encode_solve_request(make_request())
        wire["seeds"] = [1, 1]
        with pytest.raises(ProtocolError, match="duplicate seeds"):
            decode_solve_request(wire)

    def test_missing_instance_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        del wire["instance"]
        with pytest.raises(ProtocolError, match="missing 'instance'"):
            decode_solve_request(wire)

    def test_bad_coords_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["instance"]["coords"] = [["a", "b"]]
        with pytest.raises(ProtocolError, match="coords"):
            decode_solve_request(wire)

    def test_bad_edge_weight_type_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["instance"]["edge_weight_type"] = "MANHATTAN"
        with pytest.raises(ProtocolError, match="invalid instance"):
            decode_solve_request(wire)

    def test_bad_option_types_rejected(self):
        with pytest.raises(ProtocolError, match="must be an integer"):
            decode_wire(EnsembleOptions, {"max_workers": "four"})
        with pytest.raises(ProtocolError, match="must be a boolean"):
            decode_wire(EnsembleOptions, {"strict": 1})
        with pytest.raises(ProtocolError, match="must be a number or null"):
            decode_wire(EnsembleOptions, {"timeout_s": "soon"})

    def test_out_of_range_options_rejected(self):
        # Domain validation (EnsembleOptions.__post_init__) surfaces as
        # a protocol error, not a 500.
        with pytest.raises(ProtocolError, match="invalid options"):
            decode_wire(EnsembleOptions, {"max_workers": 0})

    def test_bad_strategy_label_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["config"]["strategy"] = "5/6/7/8/9/10/11/12"
        with pytest.raises(ProtocolError, match="invalid config"):
            decode_solve_request(wire)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("schedule", "total_iterations", 400.0),
            ("schedule", "lsb_countdown", "no"),
            ("schedule", "iterations_per_step", True),
            ("cell_params", "sigma_v_mv", True),
        ],
    )
    def test_nested_config_types_enforced(
        self, make_request, section, key, value
    ):
        # The paper's knobs are a 400 at the door, not a job whose
        # every seed then fails in the worker.
        wire = encode_solve_request(make_request())
        wire["config"][section][key] = value
        with pytest.raises(ProtocolError, match=f"field '{key}' must be"):
            decode_solve_request(wire)

    def test_unknown_nested_config_field_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["config"]["schedule"]["vdd_mv"] = 400.0
        with pytest.raises(
            ProtocolError, match="config.schedule has unknown fields"
        ):
            decode_solve_request(wire)

    def test_unknown_noise_source_rejected(self, make_request):
        wire = encode_solve_request(make_request())
        wire["config"]["noise_source"] = "thermal"
        with pytest.raises(ProtocolError, match="noise_source"):
            decode_solve_request(wire)

    @pytest.mark.parametrize("edge", [[0, 1.7], ["0", "2"], [True, 2]])
    def test_maxcut_edge_endpoints_must_be_integers(self, edge):
        from repro.maxcut import gset_style

        request = SolveRequest.build(
            gset_style(12, seed=1), [3], backend="maxcut-sb"
        )
        wire = encode_solve_request(request)
        wire["instance"]["edges"][0] = edge
        with pytest.raises(ProtocolError, match="integer pairs"):
            decode_solve_request(wire)


class TestFaultPlanCodec:
    def test_none_passes_through(self):
        assert encode_wire(None) is None
        assert decode_wire(Optional[FaultPlan], None) is None

    def test_defaults_fill_missing_fields(self):
        plan = decode_wire(FaultPlan, {"seed": 9, "crash_rate": 0.3})
        assert plan == FaultPlan(seed=9, crash_rate=0.3)

    def test_options_round_trip_without_plan(self):
        options = EnsembleOptions(max_workers=2)
        assert decode_wire(EnsembleOptions, encode_wire(options)) == options


# ----------------------------------------------------------------------
# Wire pins: golden documents and field coverage.  Both hold for any
# codec implementation; they are what keeps the wire from drifting.
# ----------------------------------------------------------------------
def _golden_requests():
    from repro.ising.model import IsingModel
    from repro.maxcut.problem import MaxCutProblem
    from repro.problems.qubo import QUBOProblem
    from repro.tsp.instance import TSPInstance

    tsp = TSPInstance(
        np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0], [0.5, 2.25]]),
        name="quad",
        comment="golden",
    )
    ising = IsingModel(
        np.array([[0.0, 1.0, -0.5], [1.0, 0.0, 2.0], [-0.5, 2.0, 0.0]]),
        field=np.array([0.25, 0.0, -1.0]),
    )
    maxcut = MaxCutProblem(
        4,
        [(0, 1), (0, 3), (1, 2), (2, 3)],
        weights=np.array([1.0, -1.0, 2.0, 1.5]),
        name="ring4",
    )
    qubo = QUBOProblem(
        np.array([[1.0, -2.0], [0.0, 0.5]]), offset=0.75, name="pair"
    )
    # Every AnnealerConfig / EnsembleOptions / FaultPlan field (and
    # every field of the nested schedule and cell parameters) differs
    # from its default.
    config = AnnealerConfig(
        strategy="4",
        schedule=VddSchedule(
            vdd_start_mv=280.0,
            vdd_end_mv=600.0,
            vdd_step_mv=20.0,
            iterations_per_step=25,
            total_iterations=200,
            noisy_lsbs_start=5,
            weight_bits=6,
            lsb_countdown=False,
        ),
        top_size=6,
        weight_bits=6,
        cell_params=SRAMCellParams(
            v50_mv=310.0, sigma_v_mv=40.0, bl_cap_ratio=2.0
        ),
        noise_source=NoiseSource.LFSR,
        noise_target=NoiseTarget.SPINS,
        parallel_update=False,
        seed=11,
        record_trace=True,
        trace_every=5,
    )
    options = EnsembleOptions(
        max_workers=3,
        timeout_s=12.5,
        max_retries=2,
        chunk_size=4,
        strict=True,
        max_inflight_per_job=5,
        max_pending_jobs=7,
        backoff_base_s=0.0,
        backoff_cap_s=0.5,
        self_heal_budget=1,
        breaker_threshold=None,
        fault_plan=FaultPlan(
            seed=42,
            crash_rate=0.2,
            hang_rate=0.1,
            corrupt_rate=0.05,
            broken_pool_rate=0.01,
            hang_s=1.5,
            max_faults_per_run=2,
        ),
        batch_size=2,
    )
    return {
        "tsp": SolveRequest.build(tsp, [3, 1]),
        "ising": SolveRequest.build(ising, [7], backend="simcim"),
        "maxcut": SolveRequest.build(maxcut, [2, 5], backend="maxcut-sb"),
        "qubo": SolveRequest.build(qubo, [4], backend="cluster-cim"),
        "full": SolveRequest.build(
            tsp,
            [9, 8, 7],
            config=config,
            reference=12.5,
            options=options,
            tag="golden",
            deadline_s=30.0,
        ),
    }


GOLDEN_DOCS = {
    "tsp": (
        '{"schema": "repro.solve_request/v1", "instance": {"kind": "tsp", '
        '"name": "quad", "comment": "golden", "edge_weight_type": "GEOM", '
        '"coords": [[0.0, 0.0], [3.0, 0.0], [3.0, 4.0], [0.5, 2.25]]}, '
        '"seeds": [3, 1], "config": null, "reference": null, "options": '
        '{"max_workers": 1, "timeout_s": null, "max_retries": 1, '
        '"chunk_size": null, "strict": false, "max_inflight_per_job": '
        'null, "max_pending_jobs": 16, "backoff_base_s": 0.05, '
        '"backoff_cap_s": 1.0, "self_heal_budget": 2, '
        '"breaker_threshold": 8, "fault_plan": null, "batch_size": 1}, '
        '"tag": "", "backend": "cluster-cim", "deadline_s": null}'
    ),
    "ising": (
        '{"schema": "repro.solve_request/v1", "instance": {"kind": '
        '"ising", "couplings": [[0.0, 1.0, -0.5], [1.0, 0.0, 2.0], [-0.5, '
        '2.0, 0.0]], "field": [0.25, 0.0, -1.0], "convention": "pm1"}, '
        '"seeds": [7], "config": null, "reference": null, "options": '
        '{"max_workers": 1, "timeout_s": null, "max_retries": 1, '
        '"chunk_size": null, "strict": false, "max_inflight_per_job": '
        'null, "max_pending_jobs": 16, "backoff_base_s": 0.05, '
        '"backoff_cap_s": 1.0, "self_heal_budget": 2, '
        '"breaker_threshold": 8, "fault_plan": null, "batch_size": 1}, '
        '"tag": "", "backend": "simcim", "deadline_s": null}'
    ),
    "maxcut": (
        '{"schema": "repro.solve_request/v1", "instance": {"kind": '
        '"maxcut", "n_nodes": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, '
        '3]], "weights": [1.0, -1.0, 2.0, 1.5], "name": "ring4"}, '
        '"seeds": [2, 5], "config": null, "reference": null, "options": '
        '{"max_workers": 1, "timeout_s": null, "max_retries": 1, '
        '"chunk_size": null, "strict": false, "max_inflight_per_job": '
        'null, "max_pending_jobs": 16, "backoff_base_s": 0.05, '
        '"backoff_cap_s": 1.0, "self_heal_budget": 2, '
        '"breaker_threshold": 8, "fault_plan": null, "batch_size": 1}, '
        '"tag": "", "backend": "maxcut-sb", "deadline_s": null}'
    ),
    "qubo": (
        '{"schema": "repro.solve_request/v1", "instance": {"kind": '
        '"qubo", "n_vars": 2, "terms": [[0, 0, 1.0], [0, 1, -2.0], [1, 1, '
        '0.5]], "offset": 0.75, "name": "pair"}, "seeds": [4], "config": '
        'null, "reference": null, "options": {"max_workers": 1, '
        '"timeout_s": null, "max_retries": 1, "chunk_size": null, '
        '"strict": false, "max_inflight_per_job": null, '
        '"max_pending_jobs": 16, "backoff_base_s": 0.05, "backoff_cap_s": '
        '1.0, "self_heal_budget": 2, "breaker_threshold": 8, '
        '"fault_plan": null, "batch_size": 1}, "tag": "", "backend": '
        '"cluster-cim", "deadline_s": null}'
    ),
    "full": (
        '{"schema": "repro.solve_request/v1", "instance": {"kind": "tsp", '
        '"name": "quad", "comment": "golden", "edge_weight_type": "GEOM", '
        '"coords": [[0.0, 0.0], [3.0, 0.0], [3.0, 4.0], [0.5, 2.25]]}, '
        '"seeds": [9, 8, 7], "config": {"strategy": "4", "schedule": '
        '{"vdd_start_mv": 280.0, "vdd_end_mv": 600.0, "vdd_step_mv": '
        '20.0, "iterations_per_step": 25, "total_iterations": 200, '
        '"noisy_lsbs_start": 5, "weight_bits": 6, "lsb_countdown": '
        'false}, "top_size": 6, "weight_bits": 6, "cell_params": '
        '{"v50_mv": 310.0, "sigma_v_mv": 40.0, "bl_cap_ratio": 2.0}, '
        '"noise_source": "lfsr", "noise_target": "spins", '
        '"parallel_update": false, "seed": 11, "record_trace": true, '
        '"trace_every": 5}, "reference": 12.5, "options": {"max_workers": '
        '3, "timeout_s": 12.5, "max_retries": 2, "chunk_size": 4, '
        '"strict": true, "max_inflight_per_job": 5, "max_pending_jobs": '
        '7, "backoff_base_s": 0.0, "backoff_cap_s": 0.5, '
        '"self_heal_budget": 1, "breaker_threshold": null, "fault_plan": '
        '{"seed": 42, "crash_rate": 0.2, "hang_rate": 0.1, '
        '"corrupt_rate": 0.05, "broken_pool_rate": 0.01, "hang_s": 1.5, '
        '"max_faults_per_run": 2}, "batch_size": 2}, "tag": "golden", '
        '"backend": "cluster-cim", "deadline_s": 30.0}'
    ),
}


#: Every dataclass on the wire, with its attribute path from the
#: request (the same path indexes the encoded document).
WIRE_DATACLASSES = [
    (SolveRequest, ()),
    (EnsembleOptions, ("options",)),
    (FaultPlan, ("options", "fault_plan")),
    (AnnealerConfig, ("config",)),
    (VddSchedule, ("config", "schedule")),
    (SRAMCellParams, ("config", "cell_params")),
]


def _pluck_attr(obj, path):
    for name in path:
        obj = None if obj is None else getattr(obj, name)
    return obj


def _pluck_key(doc, path):
    for name in path:
        doc = None if doc is None else doc[name]
    return doc


def _field_default(f):
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return dataclasses.MISSING


class TestWirePins:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_DOCS))
    def test_golden_document_bytes(self, kind):
        request = _golden_requests()[kind]
        assert json.dumps(encode_solve_request(request)) == GOLDEN_DOCS[kind]

    @pytest.mark.parametrize("kind", sorted(GOLDEN_DOCS))
    def test_golden_document_decode_reencode(self, kind):
        back = decode_solve_request(json.loads(GOLDEN_DOCS[kind]))
        assert json.dumps(encode_solve_request(back)) == GOLDEN_DOCS[kind]

    @pytest.mark.parametrize(
        "cls, path",
        WIRE_DATACLASSES,
        ids=[cls.__name__ for cls, _ in WIRE_DATACLASSES],
    )
    def test_every_field_travels(self, cls, path):
        # The samples together set every field off its default, so a
        # field added to (or dropped from) the dataclass without the
        # wire following fails here.  A request with a non-default
        # backend cannot carry a config, hence two samples.
        names = [f.name for f in dataclasses.fields(cls)]
        requests = _golden_requests()
        samples = [requests["full"], requests["ising"]]
        off_default = set()
        for request in samples:
            obj = _pluck_attr(request, path)
            if obj is None:
                continue
            assert type(obj) is cls
            for f in dataclasses.fields(cls):
                default = _field_default(f)
                if default is dataclasses.MISSING or (
                    getattr(obj, f.name) != default
                ):
                    off_default.add(f.name)
            wire = json.loads(json.dumps(encode_solve_request(request)))
            doc = _pluck_key(wire, path)
            top = ["schema"] if cls is SolveRequest else []
            assert list(doc) == top + names
            back = _pluck_attr(decode_solve_request(wire), path)
            if cls is SolveRequest:
                for name in names:
                    if name != "instance":
                        assert getattr(back, name) == getattr(request, name)
                assert encode_solve_request(back) == wire
            else:
                assert back == obj
        assert off_default == set(names)


class TestTelemetryFrames:
    def frame(self, **overrides):
        record = RunTelemetry(
            seed=4,
            wall_time_s=1.25,
            length=101.5,
            optimal_ratio=1.05,
            level_times_s=[0.5, 0.75],
            trials_proposed=100,
            trials_accepted=10,
            retries=1,
            worker="shard1/pool@job-0007",
            faults_injected=["crash"],
            backoff_s=0.05,
            first_error="AnnealerError('injected')",
        )
        payload = json.loads(record.to_json_line())
        payload.update(overrides)
        return json.dumps(payload)

    def test_frame_round_trip_lossless(self):
        line = self.frame()
        back = parse_telemetry_frame(line)
        assert back == parse_telemetry_frame(back.to_json_line())
        assert back.seed == 4
        assert back.worker == "shard1/pool@job-0007"
        assert back.shard == "shard1"
        assert back.job_id == "job-0007"
        assert back.faults_injected == ["crash"]

    def test_unknown_fields_tolerated(self):
        # A newer server may stream counters this client predates.
        line = self.frame(gpu_joules=3.5, queue_wait_s=0.1)
        back = parse_telemetry_frame(line)
        assert back.seed == 4 and back.length == 101.5

    def test_schema_version_within_v1_accepted(self):
        line = self.frame(schema="repro.run_telemetry/v1.3")
        assert parse_telemetry_frame(line).seed == 4

    def test_foreign_schema_rejected(self):
        line = self.frame(schema="repro.job/v1")
        with pytest.raises(ProtocolError, match="run_telemetry"):
            parse_telemetry_frame(line)

    def test_missing_schema_rejected(self):
        payload = json.loads(self.frame())
        del payload["schema"]
        with pytest.raises(ProtocolError, match="run_telemetry"):
            parse_telemetry_frame(json.dumps(payload))

    def test_missing_seed_rejected(self):
        payload = json.loads(self.frame())
        del payload["seed"]
        with pytest.raises(ProtocolError, match="no 'seed'"):
            parse_telemetry_frame(json.dumps(payload))

    def test_non_json_rejected(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            parse_telemetry_frame("event: run")


class TestResponsePayloads:
    def test_error_payload_versioned(self):
        payload = error_payload("overloaded", "busy", retry=True)
        assert payload["schema"] == "repro.error/v1"
        assert payload["error"] == "overloaded"
        assert payload["retry"] is True

    def test_job_payload_versioned(self):
        payload = job_payload("job-0001", "pending", "shard0", seeds=3)
        assert payload["schema"] == "repro.job/v1"
        assert payload["job_id"] == "job-0001"
        assert payload["shard"] == "shard0"
        assert payload["seeds"] == 3

    def test_request_schema_constant(self, make_request):
        assert encode_solve_request(make_request())["schema"] == REQUEST_SCHEMA
