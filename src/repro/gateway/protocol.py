"""Wire protocol of the serving gateway.

Everything that crosses the HTTP boundary is JSON with an explicit
``schema`` tag, so clients can verify what they are talking to and the
formats can evolve without guessing:

* ``repro.solve_request/v1`` — a complete
  :class:`~repro.runtime.options.SolveRequest` (problem payload,
  seeds, backend name, annealer config, runtime options including the
  chaos :class:`~repro.runtime.faults.FaultPlan`), produced by
  :func:`encode_solve_request` and validated strictly by
  :func:`decode_solve_request`.  The problem payload is a tagged union
  (:func:`encode_problem`): a TSP instance (``kind: "tsp"``, and the
  backward-compatible default when the tag is absent — pre-registry
  payloads decode unchanged), a dense Ising model (``"ising"``), a
  Max-Cut graph (``"maxcut"``), or a QUBO (``"qubo"``), each
  dispatchable to any registered backend that declares the kind;
* ``repro.run_telemetry/v1`` — the per-seed stream frame; the SSE
  ``data:`` payload is exactly
  :meth:`repro.runtime.telemetry.RunTelemetry.to_json_line`, parsed
  back (unknown-field tolerant, so newer servers can add fields) by
  :func:`parse_telemetry_frame`;
* ``repro.job/v1`` / ``repro.job_result/v1`` — job handles and the
  final seed-ordered result (:func:`encode_job_result`);
* ``repro.error/v1`` — every non-2xx response body
  (:func:`error_payload`).

The dataclasses of a solve request share one field-driven codec
(:func:`encode_wire` / :func:`decode_wire`): a field travels under its
own name, typed by its annotation, so there is no field list to keep
in step.  Decoding is *strict*: unknown keys, wrong types and
out-of-range values raise :class:`ProtocolError` (mapped to HTTP 400 by
the server), never a silent default.  Only the telemetry stream is
tolerant of unknown fields — readers of a long-lived stream must not
break when the server learns new counters.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from functools import lru_cache, partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from repro.annealer.config import AnnealerConfig
from repro.clustering.strategies import ClusterStrategy
from repro.errors import GatewayError, ReproError
from repro.ising.schedule import VddSchedule
from repro.runtime.faults import FaultPlan
from repro.runtime.options import EnsembleOptions, SolveRequest
from repro.runtime.telemetry import RunTelemetry
from repro.sram.cell import SRAMCellParams
from repro.tsp.instance import TSPInstance

if TYPE_CHECKING:
    from repro.annealer.batch import EnsembleResult
    from repro.backends.base import ProblemLike
    from repro.ising.model import IsingModel
    from repro.maxcut.problem import MaxCutProblem
    from repro.problems.qubo import QUBOProblem

REQUEST_SCHEMA = "repro.solve_request/v1"
TELEMETRY_SCHEMA = "repro.run_telemetry/v1"
JOB_SCHEMA = "repro.job/v1"
RESULT_SCHEMA = "repro.job_result/v1"
ERROR_SCHEMA = "repro.error/v1"
METRICS_SCHEMA = "repro.gateway_metrics/v1"
END_SCHEMA = "repro.job_end/v1"
HEALTH_SCHEMA = "repro.health/v1"


class ProtocolError(GatewayError):
    """A wire payload violates the schema (HTTP 400)."""


# ----------------------------------------------------------------------
# Validation helpers — small, strict, and loud.
# ----------------------------------------------------------------------
def _require_mapping(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _reject_unknown(
    payload: Mapping[str, Any], allowed: Iterable[str], what: str
) -> None:
    unknown = sorted(set(payload).difference(allowed))
    if unknown:
        raise ProtocolError(f"{what} has unknown fields {unknown}")


_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    str: "a string",
}


def _scalar(tp: type, key: str, value: Any, nullable: bool = False) -> Any:
    """``value`` checked as JSON of type ``tp`` (a :data:`_TYPE_NAMES`
    key); a float field also takes an integer and returns a float."""
    if value is None and nullable:
        return None
    if tp is bool or isinstance(value, bool):
        ok = tp is bool and isinstance(value, bool)
    else:
        ok = isinstance(value, (int, float) if tp is float else tp)
    if not ok:
        null = " or null" if nullable else ""
        raise ProtocolError(f"field {key!r} must be {_TYPE_NAMES[tp]}{null}")
    return float(value) if tp is float else value


# ----------------------------------------------------------------------
# Problem union — the tagged payload of a solve request
# ----------------------------------------------------------------------
def encode_instance(instance: TSPInstance) -> Dict[str, Any]:
    """JSON view of a :class:`TSPInstance` (coordinates inline)."""
    return {
        "name": instance.name,
        "comment": instance.comment,
        "edge_weight_type": instance.edge_weight_type,
        "coords": [[float(x), float(y)] for x, y in instance.coords],
    }


def decode_instance(payload: Any) -> TSPInstance:
    """Rebuild a :class:`TSPInstance`; strict about shape and types."""
    payload = _require_mapping(payload, "instance")
    _reject_unknown(
        payload, {"coords", "name", "comment", "edge_weight_type"}, "instance"
    )
    coords = payload.get("coords")
    if not isinstance(coords, list) or not coords:
        raise ProtocolError("instance.coords must be a non-empty list")
    try:
        arr = np.asarray(coords, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"instance.coords not numeric: {exc}") from exc
    weight_type = payload.get("edge_weight_type", "GEOM")
    try:
        return TSPInstance(
            coords=arr,
            name=_scalar(str, "name", payload.get("name", "unnamed")),
            comment=_scalar(str, "comment", payload.get("comment", "")),
            edge_weight_type=_scalar(str, "edge_weight_type", weight_type),
        )
    except ReproError as exc:
        raise ProtocolError(f"invalid instance: {exc}") from exc


def encode_ising_model(model: "IsingModel") -> Dict[str, Any]:
    """JSON view of an :class:`~repro.ising.model.IsingModel`."""
    return {
        "kind": "ising",
        "couplings": [
            [float(x) for x in row] for row in model.couplings
        ],
        "field": [float(h) for h in model.field],
        "convention": model.convention,
    }


def decode_ising_model(payload: Mapping[str, Any]) -> "IsingModel":
    """Rebuild an :class:`IsingModel`; strict about shape and types."""
    from repro.ising.model import IsingModel

    _reject_unknown(
        payload, {"kind", "couplings", "field", "convention"}, "instance"
    )
    couplings = payload.get("couplings")
    if not isinstance(couplings, list) or not couplings:
        raise ProtocolError("instance.couplings must be a non-empty list")
    field = payload.get("field")
    try:
        j = np.asarray(couplings, dtype=np.float64)
        h = None if field is None else np.asarray(field, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"instance payload not numeric: {exc}") from exc
    try:
        convention = payload.get("convention", "pm1")
        return IsingModel(
            j, field=h, convention=_scalar(str, "convention", convention)
        )
    except ReproError as exc:
        raise ProtocolError(f"invalid ising model: {exc}") from exc


def encode_maxcut_problem(problem: "MaxCutProblem") -> Dict[str, Any]:
    """JSON view of a :class:`~repro.maxcut.problem.MaxCutProblem`."""
    return {
        "kind": "maxcut",
        "n_nodes": int(problem.n_nodes),
        "edges": [[int(u), int(v)] for u, v in problem.edges],
        "weights": [float(w) for w in problem.weights],
        "name": problem.name,
    }


def decode_maxcut_problem(payload: Mapping[str, Any]) -> "MaxCutProblem":
    """Rebuild a :class:`MaxCutProblem`; strict about shape and types."""
    from repro.maxcut.problem import MaxCutProblem

    _reject_unknown(
        payload, {"kind", "n_nodes", "edges", "weights", "name"}, "instance"
    )
    edges = payload.get("edges")
    if not isinstance(edges, list) or any(
        not isinstance(e, list)
        or len(e) != 2
        or any(isinstance(x, bool) or not isinstance(x, int) for x in e)
        for e in edges
    ):
        raise ProtocolError(
            "instance.edges must be a list of [u, v] integer pairs"
        )
    weights = payload.get("weights")
    try:
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"instance payload not numeric: {exc}") from exc
    try:
        return MaxCutProblem(
            _scalar(int, "n_nodes", payload.get("n_nodes", 0)),
            edges,
            weights=w,
            name=_scalar(str, "name", payload.get("name", "maxcut")),
        )
    except ReproError as exc:
        raise ProtocolError(f"invalid maxcut problem: {exc}") from exc


def encode_qubo_problem(problem: "QUBOProblem") -> Dict[str, Any]:
    """JSON view of a :class:`~repro.problems.qubo.QUBOProblem`.

    COO terms over the canonical upper triangle — the same layout as
    the ``repro.qubo/v1`` file interchange, minus the schema tag (the
    ``kind`` discriminator plays that role on the wire).
    """
    from repro.problems.io import qubo_to_dict

    doc = qubo_to_dict(problem)
    return {
        "kind": "qubo",
        "n_vars": doc["n_vars"],
        "terms": doc["terms"],
        "offset": doc["offset"],
        "name": doc["name"],
    }


def decode_qubo_problem(payload: Mapping[str, Any]) -> "QUBOProblem":
    """Rebuild a :class:`QUBOProblem`; strict about shape and types."""
    from repro.problems.io import QUBO_SCHEMA, qubo_from_dict

    _reject_unknown(
        payload, {"kind", "n_vars", "terms", "offset", "name"}, "instance"
    )
    doc = {
        "schema": QUBO_SCHEMA,
        "n_vars": payload.get("n_vars"),
        "terms": payload.get("terms"),
        "offset": payload.get("offset", 0.0),
        "name": _scalar(str, "name", payload.get("name", "qubo")),
    }
    try:
        return qubo_from_dict(doc)
    except ReproError as exc:
        raise ProtocolError(f"invalid qubo problem: {exc}") from exc


def encode_problem(problem: "ProblemLike") -> Dict[str, Any]:
    """Tagged JSON view of any problem payload.

    The ``kind`` key discriminates the union on the wire; TSP
    instances keep their original field layout (plus the tag), so
    pre-registry clients and recorded payloads stay compatible.
    """
    from repro.ising.model import IsingModel
    from repro.maxcut.problem import MaxCutProblem
    from repro.problems.qubo import QUBOProblem

    if isinstance(problem, IsingModel):
        return encode_ising_model(problem)
    if isinstance(problem, MaxCutProblem):
        return encode_maxcut_problem(problem)
    if isinstance(problem, QUBOProblem):
        return encode_qubo_problem(problem)
    return {"kind": "tsp", **encode_instance(problem)}


def decode_problem(payload: Any) -> "ProblemLike":
    """Rebuild a problem payload; the ``kind`` tag discriminates.

    A payload without ``kind`` is a TSP instance: every
    ``repro.solve_request/v1`` body encoded before the problem union
    existed decodes unchanged (and dispatches to the default
    cluster-CIM backend).
    """
    payload = _require_mapping(payload, "instance")
    kind = _scalar(str, "kind", payload.get("kind", "tsp"))
    if kind == "ising":
        return decode_ising_model(payload)
    if kind == "maxcut":
        return decode_maxcut_problem(payload)
    if kind == "qubo":
        return decode_qubo_problem(payload)
    if kind != "tsp":
        raise ProtocolError(f"unknown problem kind {kind!r}")
    return decode_instance(
        {key: value for key, value in payload.items() if key != "kind"}
    )


# ----------------------------------------------------------------------
# SolveRequest and the dataclasses inside it: one codec driven by
# ``dataclasses.fields``
# ----------------------------------------------------------------------
#: Every dataclass inside a solve request, with its place in the
#: document (the prefix of its error messages).
_WIRE_PATHS: Dict[type, str] = {
    SolveRequest: "solve request",
    EnsembleOptions: "options",
    FaultPlan: "options.fault_plan",
    AnnealerConfig: "config",
    VddSchedule: "config.schedule",
    SRAMCellParams: "config.cell_params",
}

#: ``SolveRequest`` names these only under ``TYPE_CHECKING``; the
#: problem union has a field hook, so its hint is never read.
_HINT_NAMES = {"ProblemLike": Any, "AnnealerConfig": AnnealerConfig}

#: Fields whose wire form is not their type's, as (encode, decode).  A
#: cluster strategy travels as its Table I label (``"1/2/3"``, ``"4"``,
#: ``"arbitrary"``), the form the CLI accepts.
_FIELD_HOOKS: Dict[Tuple[type, str], Tuple[Callable, Callable]] = {
    (AnnealerConfig, "strategy"): (
        lambda s: s.name if isinstance(s, ClusterStrategy) else s,
        partial(_scalar, str, "strategy"),
    ),
    (SolveRequest, "instance"): (encode_problem, decode_problem),
}


def _decode_enum(enum: type, key: str, value: Any) -> Enum:
    values = [member.value for member in enum]
    if value not in values:
        raise ProtocolError(f"field {key!r} must be one of {values}")
    return enum(value)


def _decode_int_tuple(key: str, value: Any) -> Tuple[int, ...]:
    if not isinstance(value, list) or not value or any(
        isinstance(v, bool) or not isinstance(v, int) for v in value
    ):
        raise ProtocolError(f"{key!r} must be a non-empty list of integers")
    return tuple(value)


def _decoder(hint: Any, key: str) -> Callable[[Any], Any]:
    """Strict decoder for one field, built from its type hint."""
    nullable = get_origin(hint) is Union and type(None) in get_args(hint)
    if nullable:
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    if hint in _TYPE_NAMES:
        return partial(_scalar, hint, key, nullable=nullable)
    if hint in _WIRE_PATHS:
        decode: Callable[[Any], Any] = partial(_decode_dataclass, hint)
    elif isinstance(hint, type) and issubclass(hint, Enum):
        decode = partial(_decode_enum, hint, key)
    elif get_origin(hint) is tuple and get_args(hint) == (int, ...):
        decode = partial(_decode_int_tuple, key)
    else:
        raise TypeError(f"no wire codec for field {key!r} of type {hint!r}")
    if nullable:
        return lambda value: None if value is None else decode(value)
    return decode


@lru_cache(maxsize=None)
def _wire_fields(cls: type) -> Dict[str, tuple]:
    """Field name → ``(encode, decode, required)`` of a wire dataclass,
    in declaration order, resolved once."""
    hints = get_type_hints(cls, localns=_HINT_NAMES)
    spec = {}
    for f in dataclasses.fields(cls):
        hook = _FIELD_HOOKS.get((cls, f.name))
        encode, decode = hook or (encode_wire, _decoder(hints[f.name], f.name))
        required = f.default is f.default_factory is dataclasses.MISSING
        spec[f.name] = (encode, decode, required)
    return spec


def _decode_dataclass(cls: type, payload: Any) -> Any:
    path = _WIRE_PATHS[cls]
    payload = _require_mapping(payload, path)
    spec = _wire_fields(cls)
    _reject_unknown(payload, spec, path)
    kwargs = {}
    for name, (_, decode, required) in spec.items():
        if name in payload:
            kwargs[name] = decode(payload[name])
        elif required:
            raise ProtocolError(f"{path} is missing {name!r}")
    build = SolveRequest.build if cls is SolveRequest else cls
    try:
        return build(**kwargs)
    except ReproError as exc:
        label = path.rsplit(".", 1)[-1]
        raise ProtocolError(f"invalid {label}: {exc}") from exc


def encode_wire(value: Any) -> Any:
    """JSON-native view of a wire dataclass: an object of its fields in
    declaration order; enums travel by value, tuples as lists."""
    if type(value) in _WIRE_PATHS:
        return {
            name: encode(getattr(value, name))
            for name, (encode, _, _) in _wire_fields(type(value)).items()
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [encode_wire(item) for item in value]
    return value


def decode_wire(tp: Any, payload: Any) -> Any:
    """Strictly rebuild a wire dataclass ``tp`` (or ``Optional`` of one).

    Unknown keys are rejected; a missing key takes the field's default.
    ``int`` rejects booleans and floats, ``float`` accepts integers,
    ``bool`` and ``str`` are exact, and only ``Optional`` admits null.
    The dataclass's own validation errors become ``invalid <name>:``.
    """
    return _decoder(tp, getattr(tp, "__name__", "value"))(payload)


def encode_solve_request(request: SolveRequest) -> Dict[str, Any]:
    """Serialize a :class:`SolveRequest` to its ``repro.solve_request/v1``
    wire form (pure JSON-native values, no pickles)."""
    return {"schema": REQUEST_SCHEMA, **encode_wire(request)}


def decode_solve_request(payload: Any) -> SolveRequest:
    """Parse and validate a ``repro.solve_request/v1`` body: the schema
    tag must match, the rest goes through :func:`decode_wire`, and a
    null ``options`` means the defaults.  Failures raise
    :class:`ProtocolError` (the server's 400 path)."""
    payload = _require_mapping(payload, "solve request")
    schema = payload.get("schema")
    if schema != REQUEST_SCHEMA:
        raise ProtocolError(
            f"expected schema {REQUEST_SCHEMA!r}, got {schema!r}"
        )
    body = {key: value for key, value in payload.items() if key != "schema"}
    if body.get("options", {}) is None:
        del body["options"]
    return decode_wire(SolveRequest, body)


# ----------------------------------------------------------------------
# Telemetry frames (the SSE payload)
# ----------------------------------------------------------------------
def parse_telemetry_frame(line: str) -> RunTelemetry:
    """Parse one ``repro.run_telemetry/v1`` JSON line back to a record.

    Unknown fields are ignored (a newer server may stream counters
    this client predates); a missing/foreign schema tag or a frame
    without a seed is a :class:`ProtocolError`.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"telemetry frame is not JSON: {exc}") from exc
    payload = _require_mapping(payload, "telemetry frame")
    schema = payload.get("schema")
    if not isinstance(schema, str) or not schema.startswith(
        "repro.run_telemetry/"
    ):
        raise ProtocolError(
            f"expected a repro.run_telemetry/* frame, got {schema!r}"
        )
    if "seed" not in payload:
        raise ProtocolError("telemetry frame has no 'seed'")
    names = {f.name for f in dataclasses.fields(RunTelemetry)}
    known = {key: value for key, value in payload.items() if key in names}
    try:
        return RunTelemetry(**known)
    except TypeError as exc:
        raise ProtocolError(f"malformed telemetry frame: {exc}") from exc


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def error_payload(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The ``repro.error/v1`` body every non-2xx response carries."""
    return {
        "schema": ERROR_SCHEMA,
        "error": code,
        "message": message,
        **extra,
    }


def health_payload(status: str, **extra: Any) -> Dict[str, Any]:
    """The ``repro.health/v1`` body (``/healthz`` and ``/readyz``)."""
    return {
        "schema": HEALTH_SCHEMA,
        "status": status,
        **extra,
    }


def job_payload(
    job_id: str, state: str, shard: str, **extra: Any
) -> Dict[str, Any]:
    """The ``repro.job/v1`` body (submit/cancel acknowledgements)."""
    return {
        "schema": JOB_SCHEMA,
        "job_id": job_id,
        "state": state,
        "shard": shard,
        **extra,
    }


def encode_job_result(
    job_id: str, shard: str, result: "EnsembleResult"
) -> Dict[str, Any]:
    """The ``repro.job_result/v1`` body: the final seed-ordered result.

    Per-seed tours travel as plain index lists, so a client can verify
    bit-identity against a local :func:`solve_ensemble` run.
    """
    telemetry = result.telemetry
    ok_seeds = (
        [r.seed for r in telemetry.runs if r.ok]
        if telemetry is not None
        else []
    )
    stats = result.ratio_stats
    return {
        "schema": RESULT_SCHEMA,
        "job_id": job_id,
        "shard": shard,
        "state": "done",
        "reference": float(result.reference),
        "seeds": ok_seeds,
        "lengths": [float(r.length) for r in result.results],
        "tours": [[int(c) for c in r.tour] for r in result.results],
        "ratios": [float(x) for x in result.ratios],
        "best": {
            "length": float(result.best.length),
            "tour": [int(c) for c in result.best.tour],
        },
        "ratio_stats": (
            None
            if stats is None
            else {
                "mean": stats.mean,
                "minimum": stats.minimum,
                "maximum": stats.maximum,
            }
        ),
        "telemetry": None if telemetry is None else telemetry.to_dict(),
    }
