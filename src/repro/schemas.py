"""The versioned wire contract: schema registry + response envelope.

Every JSON payload the project emits — ``repro.api`` ``to_dict()``
results, CLI ``--json`` output, and every HTTP response of the
simulation service daemon (:mod:`repro.service`) — carries the same
**v2 envelope**::

    {
      "schema": "<name>/v<version>",   # registered below
      "ok":     true | false,          # did the operation succeed?
      "error":  null | {<error object>},
      ...payload fields...             # schema-specific, inline
    }

``ok`` and ``error`` are coupled: a successful payload has ``ok: true``
and ``error: null``; a failed one has ``ok: false`` and a populated
error object.  The error object is the ``repro.error/v1`` shape::

    {
      "kind":      "grid.failure" | "timeout" | "crash" | ...,
      "message":   human-readable description,
      "retriable": bool,              # might an identical retry succeed?
      "point":     null | {grid-point coordinates},
      ...kind-specific extras (attempts, failures, ...)
    }

A *standalone* error response (a non-2xx service body, a CLI ``--json``
failure that has no payload schema of its own) is the error object
wrapped in its own envelope under the ``repro.error/v1`` schema — see
:func:`error_envelope`.

:data:`SCHEMAS` is the single registry (name -> version -> validator);
:func:`validate_envelope` is the shared check the service, the CLI tests
and the API tests all run.  Emitting a ``"repro.*/v*"`` string literal
outside this module is deprecated — import the ``SCHEMA_*`` constants
instead (the canonical re-export site is :mod:`repro.api`).

This module is deliberately stdlib-only and dependency-free so every
layer (``repro.verify``, ``repro.service``, the CLI) can import it
without cycles; :mod:`repro.api` re-exports and documents it.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Optional, Tuple

# ---------------------------------------------------------------------------
# Canonical schema names
# ---------------------------------------------------------------------------

SCHEMA_RUN = "repro.run/v1"
SCHEMA_GRID = "repro.grid/v1"
SCHEMA_CAMPAIGN = "repro.campaign/v1"
SCHEMA_TRACE = "repro.trace/v1"
SCHEMA_FIGURE = "repro.figure/v1"
SCHEMA_FIGURE_SET = "repro.figure.set/v1"
SCHEMA_HEADLINE = "repro.headline/v1"
SCHEMA_FUZZ = "repro.fuzz/v1"
SCHEMA_FUZZ_ORACLE = "repro.fuzz.oracle/v1"
SCHEMA_FUZZ_REPRO = "repro.fuzz.repro/v1"
SCHEMA_FUZZ_REPLAY = "repro.fuzz.replay/v1"
SCHEMA_FUZZ_CORPUS = "repro.fuzz.corpus/v1"
SCHEMA_ERROR = "repro.error/v1"
#: v2 added the terminal ``cancelled`` job state (``DELETE /jobs/<id>``).
SCHEMA_JOB = "repro.service.job/v2"
SCHEMA_SERVICE_STATUS = "repro.service.status/v1"
SCHEMA_SERVICE_METRICS = "repro.service.metrics/v1"
SCHEMA_SERVICE_EVENT = "repro.service.event/v1"

_NAME_RE = re.compile(r"^(?P<name>[a-z][a-z0-9._]*)/v(?P<version>\d+)$")


class EnvelopeError(ValueError):
    """A payload violated the envelope contract or its schema."""


def split_schema(schema: str) -> Tuple[str, int]:
    """``"repro.run/v1"`` -> ``("repro.run", 1)``; raises on bad shape."""
    match = _NAME_RE.match(schema)
    if not match:
        raise EnvelopeError(
            f"malformed schema identifier {schema!r} (want '<name>/v<N>')"
        )
    return match.group("name"), int(match.group("version"))


# ---------------------------------------------------------------------------
# Error objects
# ---------------------------------------------------------------------------

#: keys every repro.error/v1 error object must carry.
ERROR_REQUIRED_KEYS = ("kind", "message", "retriable", "point")


def error_dict(
    kind: str,
    message: str,
    *,
    retriable: bool = False,
    point: Optional[Dict] = None,
    **extra,
) -> Dict:
    """The ``repro.error/v1`` error *object* (an envelope's ``error`` field)."""
    out = {"kind": kind, "message": message, "retriable": retriable, "point": point}
    out.update(extra)
    return out


def error_envelope(
    kind: str,
    message: str,
    *,
    retriable: bool = False,
    point: Optional[Dict] = None,
    **extra,
) -> Dict:
    """A standalone error response: the error object in its own envelope."""
    return {
        "schema": SCHEMA_ERROR,
        "ok": False,
        "error": error_dict(kind, message, retriable=retriable, point=point, **extra),
    }


def wrap_error(error: Dict) -> Dict:
    """A standalone error response from an existing error *object*.

    The moral inverse of :func:`error_envelope`, for callers that already
    hold a ``repro.error/v1`` object (``GridFailureError.to_error()``,
    ``TaskFailure.to_dict()``, ...).
    """
    return {"schema": SCHEMA_ERROR, "ok": False, "error": dict(error)}


def envelope(schema: str, *, ok: bool = True, error: Optional[Dict] = None, **payload) -> Dict:
    """Assemble an envelope; ``error`` forces ``ok`` False (they are coupled)."""
    return {"schema": schema, "ok": bool(ok) and error is None, "error": error, **payload}


def _check_error_object(error) -> None:
    if not isinstance(error, dict):
        raise EnvelopeError(f"error must be an object, got {type(error).__name__}")
    missing = [key for key in ERROR_REQUIRED_KEYS if key not in error]
    if missing:
        raise EnvelopeError(f"error object missing keys: {missing}")
    if not isinstance(error["kind"], str) or not isinstance(error["message"], str):
        raise EnvelopeError("error kind/message must be strings")
    if not isinstance(error["retriable"], bool):
        raise EnvelopeError("error retriable must be a bool")
    if error["point"] is not None and not isinstance(error["point"], dict):
        raise EnvelopeError("error point must be null or an object")


# ---------------------------------------------------------------------------
# Per-schema validators
# ---------------------------------------------------------------------------

Validator = Callable[[Dict], None]


def _required_keys(*keys: str) -> Validator:
    """A validator asserting payload keys beyond the envelope triple.

    Payload keys are only *required* on success — a failed envelope
    (``ok`` False) legitimately has nothing but its error.
    """

    def check(payload: Dict) -> None:
        if not payload.get("ok"):
            return
        missing = [key for key in keys if key not in payload]
        if missing:
            raise EnvelopeError(
                f"{payload['schema']} payload missing keys: {missing}"
            )

    return check


def _check_error_schema(payload: Dict) -> None:
    """repro.error/v1 *is* the failure: ok must be False, error populated."""
    if payload.get("ok"):
        raise EnvelopeError(f"{SCHEMA_ERROR} envelopes must carry ok=false")
    if payload.get("error") is None:
        raise EnvelopeError(f"{SCHEMA_ERROR} envelopes must carry an error object")


#: the legal ``job.state`` values of a ``repro.service.job/v2`` payload.
_JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_require_job = _required_keys("job")


def _check_job_schema(payload: Dict) -> None:
    """A job envelope carries ``job`` and a known ``job.state``."""
    _require_job(payload)
    job = payload.get("job")
    if isinstance(job, dict) and "state" in job and job["state"] not in _JOB_STATES:
        raise EnvelopeError(
            f"{payload['schema']}: unknown job state {job['state']!r} "
            f"(legal: {_JOB_STATES})"
        )


#: the registry: unversioned name -> version -> validator.  Adding a
#: schema here (and nowhere else) is what makes it a legal wire payload.
SCHEMAS: Dict[str, Dict[int, Validator]] = {
    "repro.run": {1: _required_keys("point", "stats", "derived")},
    "repro.grid": {1: _required_keys("accounting", "failures", "runs")},
    "repro.campaign": {1: _required_keys("campaign", "resume", "accounting", "failures")},
    "repro.trace": {1: _required_keys("run", "capture", "crosscheck", "events")},
    "repro.figure": {1: _required_keys("figure", "rows")},
    "repro.figure.set": {1: _required_keys("grid", "figures")},
    "repro.headline": {1: _required_keys("scale", "sampled", "claims")},
    "repro.fuzz": {1: _required_keys("seed", "oracle", "programs", "divergences")},
    "repro.fuzz.oracle": {1: _required_keys("verdict", "divergences", "coverage")},
    "repro.fuzz.repro": {1: _required_keys("program", "oracle", "report")},
    "repro.fuzz.replay": {1: _required_keys("artifact", "matches", "recorded", "replayed")},
    "repro.fuzz.corpus": {1: _required_keys("root", "entries", "coverage_pairs")},
    "repro.error": {1: _check_error_schema},
    "repro.service.job": {2: _check_job_schema},
    "repro.service.status": {1: _required_keys("service")},
    "repro.service.metrics": {1: _required_keys("metrics", "latency")},
    "repro.service.event": {1: _required_keys("event")},
}


def validate_envelope(payload) -> Dict:
    """Check one payload against the envelope contract and its schema.

    Returns ``{"name", "version", "schema"}`` on success; raises
    :class:`EnvelopeError` otherwise.

    The contract: ``schema`` names a registered schema, ``ok`` is a bool, ``error`` is
    present and is ``None`` exactly when ``ok`` is true; a populated
    error satisfies the ``repro.error/v1`` object shape; schema-specific
    required payload keys are present on success.
    """
    if not isinstance(payload, dict):
        raise EnvelopeError(f"envelope must be an object, got {type(payload).__name__}")
    schema = payload.get("schema")
    if not isinstance(schema, str):
        raise EnvelopeError("envelope missing 'schema'")
    name, version = split_schema(schema)
    versions = SCHEMAS.get(name)
    if versions is None or version not in versions:
        raise EnvelopeError(f"unknown schema {schema!r}")
    if "ok" not in payload or not isinstance(payload["ok"], bool):
        raise EnvelopeError(f"{schema} envelope missing boolean 'ok'")
    if "error" not in payload:
        raise EnvelopeError(f"{schema} envelope missing 'error'")
    error = payload["error"]
    if payload["ok"]:
        if error is not None:
            raise EnvelopeError(f"{schema}: ok=true but error is populated")
    else:
        if error is None and name != "repro.error":
            raise EnvelopeError(f"{schema}: ok=false but error is null")
    if error is not None:
        _check_error_object(error)
    versions[version](payload)
    return {"name": name, "version": version, "schema": schema}


def schema_names() -> Tuple[str, ...]:
    """Every canonical versioned schema identifier, sorted."""
    return tuple(
        sorted(f"{name}/v{version}" for name, versions in SCHEMAS.items() for version in versions)
    )


__all__ = [
    "ERROR_REQUIRED_KEYS",
    "EnvelopeError",
    "SCHEMAS",
    "SCHEMA_CAMPAIGN",
    "SCHEMA_ERROR",
    "SCHEMA_FIGURE",
    "SCHEMA_FIGURE_SET",
    "SCHEMA_FUZZ",
    "SCHEMA_FUZZ_CORPUS",
    "SCHEMA_FUZZ_ORACLE",
    "SCHEMA_FUZZ_REPLAY",
    "SCHEMA_FUZZ_REPRO",
    "SCHEMA_GRID",
    "SCHEMA_HEADLINE",
    "SCHEMA_JOB",
    "SCHEMA_RUN",
    "SCHEMA_SERVICE_EVENT",
    "SCHEMA_SERVICE_METRICS",
    "SCHEMA_SERVICE_STATUS",
    "SCHEMA_TRACE",
    "envelope",
    "error_dict",
    "error_envelope",
    "schema_names",
    "split_schema",
    "validate_envelope",
    "wrap_error",
]
