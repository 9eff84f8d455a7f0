"""Render pipeline results as the CLI's text and ``--json`` documents.

Inputs are finished :class:`~repro.pipeline.artifacts.PipelineResult` /
:class:`~repro.pipeline.artifacts.AnalysisResult` objects; outputs are the
user-facing renderings.  Both the ``vhdl-ifa analyze`` command and the batch
driver go through :func:`render_analysis_text`, so a batch run's per-file
output is byte-identical to the sequential command by construction.  The
JSON builders return plain dicts (stable key order, only JSON-native types),
shared by ``--json`` on ``analyze``/``check``/``batch``;
:func:`analyze_document` / :func:`check_document` / :func:`json_text` are
the complete documents, shared by the CLI and ``vhdl-ifa serve`` — which is
why a server response is byte-identical to the corresponding CLI output.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.pipeline.artifacts import AnalysisResult, PipelineResult
from repro.version import version

#: The versioned contract stamped (as ``"schema"``, always the first key) on
#: every JSON document the toolchain emits — CLI ``--json`` bodies, batch
#: documents, every serve-mode response.  Bumped only on breaking changes;
#: ``make schema`` gates the committed ``docs/schema_v1.json`` against
#: :func:`schema_v1`.
SCHEMA_VERSION = "vhdl-ifa/v1"


def stamped(document: Dict[str, Any]) -> Dict[str, Any]:
    """``document`` with the ``"schema"`` version as its first key."""
    if document.get("schema") == SCHEMA_VERSION:
        return document
    return {"schema": SCHEMA_VERSION, **document}


def select_graph(result: AnalysisResult, collapse: bool, self_loops: bool):
    """Apply the CLI's graph-shaping flags (shared by analyze/kemmerer/batch)."""
    graph = result.graph if self_loops else result.graph.without_self_loops()
    if collapse:
        graph = graph.collapse_environment_nodes()
    return graph


def render_adjacency(graph: Any) -> List[str]:
    """The CLI's adjacency-list rendering, one line per node."""
    return [
        f"  {node} -> {', '.join(successors) if successors else '(none)'}"
        for node, successors in graph.to_adjacency().items()
    ]


def render_analysis_text(
    result: AnalysisResult,
    collapse: bool = False,
    self_loops: bool = False,
    dot: bool = False,
    graph: Optional[Any] = None,
) -> str:
    """Exactly what ``vhdl-ifa analyze`` prints for one design.

    ``graph`` optionally supplies an already-shaped graph (the result of
    :func:`select_graph` with the same flags), so callers rendering both text
    and JSON shape it only once.
    """
    if graph is None:
        graph = select_graph(result, collapse, self_loops)
    lines = [result.summary()]
    if dot:
        lines.append(graph.to_dot())
    else:
        lines.extend(render_adjacency(graph))
    return "\n".join(lines)


def _round_timings(pipeline: PipelineResult) -> Dict[str, float]:
    return {name: round(seconds, 6) for name, seconds in pipeline.timings.items()}


def analysis_json(
    pipeline: PipelineResult,
    collapse: bool = False,
    self_loops: bool = False,
    file: Optional[str] = None,
    graph: Optional[Any] = None,
) -> Dict[str, Any]:
    """The machine-readable summary of one analysis run.

    Contains the design inventory, the (flag-shaped) adjacency, per-stage
    wall-clock timings and which stages were served from the artifact cache.
    ``graph`` optionally supplies an already-shaped graph, as in
    :func:`render_analysis_text`.
    """
    result = pipeline.result
    if graph is None:
        graph = select_graph(result, collapse, self_loops)
    cfg_stats = result.program_cfg.summary()
    document: Dict[str, Any] = {}
    if file is not None:
        document["file"] = file
    document.update(
        {
            "design": result.design.name,
            "options": {
                "entity": pipeline.options.entity,
                "improved": pipeline.options.improved,
                "loop_processes": pipeline.options.loop_processes,
                "use_under_approximation": pipeline.options.use_under_approximation,
            },
            "summary": {
                **cfg_stats,
                "local_entries": len(result.rm_local),
                "global_entries": len(result.rm_global),
                "nodes": graph.node_count(),
                "edges": graph.edge_count(),
            },
            "graph": {
                "collapse": collapse,
                "self_loops": self_loops,
                "adjacency": graph.to_adjacency(),
            },
            "timings": _round_timings(pipeline),
            "cached_stages": pipeline.cached_stages,
        }
    )
    return document


def report_json(pipeline: PipelineResult, file: Optional[str] = None) -> Dict[str, Any]:
    """The machine-readable form of a ``check`` run (analysis + verdict)."""
    document: Dict[str, Any] = {}
    if file is not None:
        document["file"] = file
    document.update(pipeline.report.to_json_dict())
    document["timings"] = _round_timings(pipeline)
    document["cached_stages"] = pipeline.cached_stages
    return document


def lint_section(findings: Sequence[Any]) -> Dict[str, Any]:
    """The shared lint body: verdict, findings and severity counters.

    ``findings`` are :class:`~repro.security.report.Diagnostic` records with
    any policy selection/overrides already applied.  The CLI ``lint --json``
    document, the batch per-job ``lint`` section and the ``POST /lint``
    response all embed exactly this dict, which is what makes the three
    byte-comparable.  (Takes plain diagnostics rather than importing the lint
    package: render is imported by the pipeline package the lint rules
    ultimately depend on.)
    """
    summary = {"findings": len(findings), "errors": 0, "warnings": 0, "infos": 0}
    for finding in findings:
        summary[finding.severity + "s"] += 1
    return {
        "clean": not findings,
        "findings": [finding.to_dict() for finding in findings],
        "summary": summary,
    }


def lint_json(
    pipeline: PipelineResult,
    findings: Sequence[Any],
    file: Optional[str] = None,
) -> Dict[str, Any]:
    """The machine-readable form of a ``lint`` run."""
    document: Dict[str, Any] = {}
    if file is not None:
        document["file"] = file
    document["design"] = pipeline.result.design.name
    document.update(lint_section(findings))
    document["timings"] = _round_timings(pipeline)
    document["cached_stages"] = pipeline.cached_stages
    return document


def lint_document(
    pipeline: PipelineResult,
    findings: Sequence[Any],
    file: Optional[str] = None,
) -> Dict[str, Any]:
    """The complete ``lint --json`` document (CLI and server share it)."""
    return stamped(
        {
            "command": "lint",
            **lint_json(pipeline, findings, file=file),
        }
    )


def render_lint_text(design_name: str, findings: Sequence[Any]) -> str:
    """Exactly what ``vhdl-ifa lint`` prints for one design."""
    lines = [f"Lint report for design {design_name!r}"]
    if not findings:
        lines.append("No findings.")
    else:
        lines.append(f"{len(findings)} finding(s):")
        for finding in findings:
            lines.append(f"  - {finding.severity}: {finding.describe()}")
    return "\n".join(lines)


def policy_summary(policy: Any) -> Dict[str, Any]:
    """The ``"policy"`` member of a ``check`` document.

    Two-level policies keep their compact historical form (the sorted secret
    list); every other policy is rendered as its full declarative document,
    so a check driven by a policy file echoes the policy it enforced.
    """
    secrets = getattr(policy, "secret_resources", None)
    if secrets is not None:
        return {"secrets": sorted(secrets)}
    # Imported lazily: repro.security pulls in repro.analysis.api, which
    # imports this package (the same cycle the pipeline's report stage breaks).
    from repro.security.policy_file import policy_to_dict

    return policy_to_dict(policy)


def analyze_document(
    pipeline: PipelineResult,
    collapse: bool = False,
    self_loops: bool = False,
    file: Optional[str] = None,
) -> Dict[str, Any]:
    """The complete ``analyze --json`` document (CLI and server share it)."""
    return stamped(
        {
            "command": "analyze",
            **analysis_json(
                pipeline, collapse=collapse, self_loops=self_loops, file=file
            ),
        }
    )


def check_document(
    pipeline: PipelineResult,
    policy: Any,
    file: Optional[str] = None,
) -> Dict[str, Any]:
    """The complete ``check --json`` document (CLI and server share it)."""
    return stamped(
        {
            "command": "check",
            **report_json(pipeline, file=file),
            "policy": policy_summary(policy),
        }
    )


def version_document() -> Dict[str, Any]:
    """The ``GET /version`` document (package metadata version)."""
    return stamped({"command": "version", "version": version()})


#: Volatile-field matcher rules shared by every analysis-style document.
#: ``/file`` is the caller-supplied path (absolute and run-dependent under
#: the CLI, ``null`` for ``source`` requests — a null is simply not masked).
_ANALYSIS_VOLATILE = {
    "/timings": "object",
    "/cached_stages": "array",
    "/file": "string",
}


def volatile_pointers(command: str) -> Dict[str, str]:
    """The authoritative matcher table of one document kind.

    Maps each ``command`` value a v1 document can carry to the JSON-pointer
    → JSON-type rules declaring which of its fields are run-dependent
    (wall-clock timings, cache state, absolute paths, uptime, counters,
    latency histograms).  The contract recorder (:mod:`repro.contract`)
    stamps these rules into every recorded interaction, and the verifier
    masks both the recording and the live response with them — everything
    *not* listed here is pinned byte-for-byte by the corpus.
    """
    if command in ("analyze", "kemmerer", "check", "lint"):
        return dict(_ANALYSIS_VOLATILE)
    if command == "batch":
        # Batch jobs inline the per-job analyze/check/lint document, so the
        # analysis volatiles recur one level down, plus per-job wall clocks.
        return {
            "/elapsed": "number",
            "/jobs/*/file": "string",
            "/jobs/*/seconds": "number",
            "/jobs/*/timings": "object",
            "/jobs/*/cached_stages": "array",
        }
    if command == "policy":
        return {}
    if command == "version":
        # The package version moves on every release; the *shape* is the
        # contract, enforced separately via the schema stamp.
        return {"/version": "string"}
    if command == "stats":
        return {
            "/uptime_seconds": "number",
            "/requests": "object",
            "/policies": "array",
            "/cache": "object",
        }
    if command == "healthz":
        return {"/workers": "object"}
    if command == "metrics":
        return {
            "/uptime_seconds": "number",
            "/requests": "object",
            "/cache": "object",
            "/latency": "object",
            "/workers": "object",
        }
    if command == "error":
        return {}
    raise ValueError(f"no matcher table for document kind {command!r}")


def json_text(document: Dict[str, Any]) -> str:
    """One canonical JSON serialisation, shared by the CLI and the server.

    Both ``vhdl-ifa analyze --json`` (via ``print``) and ``vhdl-ifa serve``
    emit exactly this text plus a trailing newline, which is what makes the
    two byte-comparable.
    """
    return json.dumps(document, indent=2, ensure_ascii=False)


def response_body(document: Dict[str, Any]) -> bytes:
    """The ``vhdl-ifa serve`` response body of ``document``.

    The stamped :func:`json_text` plus a trailing newline, UTF-8 encoded —
    the one response encoder, called by the inline server on its event loop
    and by each pool worker before its reply crosses the pipe.
    """
    return (json_text(stamped(document)) + "\n").encode("utf-8")


def schema_v1() -> Dict[str, Any]:
    """The machine-readable description of every ``vhdl-ifa/v1`` document.

    This is the authoritative statement of the v1 contract: ``make schema``
    (``scripts/dump_schema.py --check``) fails when this function drifts from
    the committed ``docs/schema_v1.json``, so contract changes are always an
    explicit, reviewed diff.  The layout is JSON Schema (draft-07) with one
    definition per document ``command``.
    """
    timings = {
        "type": "object",
        "description": "stage name -> wall-clock seconds, in execution order",
        "additionalProperties": {"type": "number"},
    }
    cached_stages = {
        "type": "array",
        "description": "stages served from the artifact cache, in order",
        "items": {"type": "string"},
    }
    schema_field = {"const": SCHEMA_VERSION}
    diagnostic = {
        "type": "object",
        "description": "one structured finding (policy check or lint rule)",
        "required": [
            "code", "severity", "message", "source", "target",
            "source_level", "target_level", "path",
        ],
        "properties": {
            "code": {
                "type": "string",
                "description": "stable code: IFA001 direct flow, IFA002 path "
                "flow, IFA1xx lint rules (catalog in docs/lint.md)",
                "pattern": "^IFA[0-9]{3}$",
            },
            "severity": {"enum": ["error", "warning", "info"]},
            "message": {"type": "string"},
            "source": {"type": "string"},
            "target": {"type": "string"},
            "source_level": {"type": "string"},
            "target_level": {"type": "string"},
            "path": {"type": "array", "items": {"type": "string"}},
        },
    }
    policy = {
        "type": "object",
        "description": "the enforced policy: secret list or full document",
        "properties": {
            "secrets": {"type": "array", "items": {"type": "string"}},
            "name": {"type": "string"},
            "description": {"type": "string"},
            "mode": {"enum": ["channel-control", "transitive"]},
            "default": {"type": "string"},
            "levels": {"type": "object", "additionalProperties": {"type": "integer"}},
            "resources": {"type": "object", "additionalProperties": {"type": "string"}},
            "allow": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["from", "to"],
                    "properties": {
                        "from": {"type": "string"},
                        "to": {"type": "string"},
                    },
                },
            },
            "lint": {
                "type": "object",
                "description": "lint rule selection and severity overrides",
                "properties": {
                    "enable": {"type": "array", "items": {"type": "string"}},
                    "disable": {"type": "array", "items": {"type": "string"}},
                    "severity": {
                        "type": "object",
                        "additionalProperties": {
                            "enum": ["error", "warning", "info"],
                        },
                    },
                },
            },
        },
    }
    lint_body = {
        "clean": {"type": "boolean"},
        "findings": {
            "type": "array",
            "items": {"$ref": "#/definitions/diagnostic"},
        },
        "summary": {
            "type": "object",
            "required": ["findings", "errors", "warnings", "infos"],
            "additionalProperties": {"type": "integer"},
        },
    }
    lint = {
        "type": "object",
        "required": ["schema", "command", "design", "clean", "findings", "summary"],
        "properties": {
            "schema": schema_field,
            "command": {"const": "lint"},
            "file": {"type": "string"},
            "design": {"type": "string"},
            **lint_body,
            "timings": timings,
            "cached_stages": cached_stages,
        },
    }
    analyze = {
        "type": "object",
        "required": ["schema", "command", "design", "options", "summary", "graph"],
        "properties": {
            "schema": schema_field,
            "command": {"const": "analyze"},
            "file": {"type": "string"},
            "design": {"type": "string"},
            "options": {
                "type": "object",
                "properties": {
                    "entity": {"type": ["string", "null"]},
                    "improved": {"type": "boolean"},
                    "loop_processes": {"type": "boolean"},
                    "use_under_approximation": {"type": "boolean"},
                },
            },
            "summary": {
                "type": "object",
                "additionalProperties": {"type": "integer"},
            },
            "graph": {
                "type": "object",
                "properties": {
                    "collapse": {"type": "boolean"},
                    "self_loops": {"type": "boolean"},
                    "adjacency": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "array", "items": {"type": "string"},
                        },
                    },
                },
            },
            "timings": timings,
            "cached_stages": cached_stages,
        },
    }
    check = {
        "type": "object",
        "required": ["schema", "command", "design", "clean", "violations", "policy"],
        "properties": {
            "schema": schema_field,
            "command": {"const": "check"},
            "file": {"type": "string"},
            "design": {"type": "string"},
            "clean": {"type": "boolean"},
            "violations": {"type": "array", "items": {"$ref": "#/definitions/diagnostic"}},
            "output_dependencies": {
                "type": "object",
                "additionalProperties": {"type": "array", "items": {"type": "string"}},
            },
            "summary": {"type": "object", "additionalProperties": {"type": "integer"}},
            "timings": timings,
            "cached_stages": cached_stages,
            "policy": {"$ref": "#/definitions/policy"},
        },
    }
    batch = {
        "type": "object",
        "required": ["schema", "command", "jobs", "elapsed", "failed"],
        "properties": {
            "schema": schema_field,
            "command": {"const": "batch"},
            "parallel": {"type": "boolean"},
            "workers": {"type": "integer"},
            "policy": {"$ref": "#/definitions/policy"},
            "jobs": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["file", "ok"],
                    "properties": {
                        "file": {"type": "string"},
                        "entity": {"type": ["string", "null"]},
                        "ok": {"type": "boolean"},
                        "seconds": {"type": "number"},
                        "error": {"type": "string"},
                        "error_kind": {"enum": ["analysis", "input", "worker"]},
                        "clean": {"type": "boolean"},
                        "violations": {
                            "type": "array",
                            "items": {"$ref": "#/definitions/diagnostic"},
                        },
                        "lint": {
                            "type": "object",
                            "description": "per-file lint section (batch --lint)",
                            "required": ["clean", "findings", "summary"],
                            "properties": dict(lint_body),
                        },
                    },
                },
            },
            "elapsed": {"type": "number"},
            "failed": {"type": "integer"},
        },
    }
    stats = {
        "type": "object",
        "required": ["schema", "command", "uptime_seconds", "requests"],
        "properties": {
            "schema": schema_field,
            "command": {"const": "stats"},
            "uptime_seconds": {"type": "number"},
            "requests": {"type": "object", "additionalProperties": {"type": "integer"}},
            "policies": {"type": "array", "items": {"type": "string"}},
            "cache": {"type": "object"},
        },
    }
    version_doc = {
        "type": "object",
        "required": ["schema", "command", "version"],
        "properties": {
            "schema": schema_field,
            "command": {"const": "version"},
            "version": {"type": "string"},
        },
    }
    policy_doc = {
        "type": "object",
        "required": ["schema", "command", "valid", "policy"],
        "properties": {
            "schema": schema_field,
            "command": {"const": "policy"},
            "valid": {"const": True},
            "registered": {"type": ["string", "null"]},
            "policy": {"$ref": "#/definitions/policy"},
        },
    }
    cache_stats = {
        "type": "object",
        "required": ["schema", "command", "entries"],
        "properties": {
            "schema": schema_field,
            "command": {"const": "cache-stats"},
            "path": {"type": "string"},
            "version": {"type": "integer"},
            "entries": {"type": "integer"},
            "bytes": {"type": "integer"},
            "max_bytes": {"type": "integer"},
            "universes": {"type": "integer"},
            "hits": {"type": "integer"},
            "misses": {"type": "integer"},
            "stages": {"type": "object", "additionalProperties": {"type": "integer"}},
        },
    }
    error = {
        "type": "object",
        "description": "serve-mode 4xx/5xx body",
        "required": ["schema", "error"],
        "properties": {
            "schema": schema_field,
            "error": {"type": "string"},
            "retry_after": {
                "type": "integer",
                "description": "on a 429, seconds to wait before retrying "
                "(mirrors the Retry-After response header)",
            },
        },
    }
    histogram = {
        "type": "object",
        "description": "a cumulative latency histogram (Prometheus-style le "
        "buckets, upper bounds in seconds)",
        "required": ["count", "sum_seconds", "buckets"],
        "properties": {
            "count": {"type": "integer"},
            "sum_seconds": {"type": "number"},
            "buckets": {
                "type": "object",
                "additionalProperties": {"type": "integer"},
            },
        },
    }
    worker_stats = {
        "type": "object",
        "description": "worker-pool supervision state",
        "properties": {
            "configured": {"type": "integer"},
            "alive": {"type": "integer"},
            "restarts": {"type": "integer"},
            "timeout_seconds": {"type": ["number", "null"]},
        },
    }
    healthz = {
        "type": "object",
        "required": ["schema", "command", "status", "mode"],
        "properties": {
            "schema": schema_field,
            "command": {"const": "healthz"},
            "status": {"enum": ["ok", "draining"]},
            "mode": {"enum": ["pool", "inline"]},
            "workers": worker_stats,
        },
    }
    metrics = {
        "type": "object",
        "required": [
            "schema", "command", "mode", "uptime_seconds", "requests",
            "in_flight", "queue_depth", "shed", "dedup_hits", "timeouts",
            "worker_crashes", "worker_restarts", "latency",
        ],
        "properties": {
            "schema": schema_field,
            "command": {"const": "metrics"},
            "mode": {"enum": ["pool", "inline"]},
            "uptime_seconds": {"type": "number"},
            "requests": {"type": "object", "additionalProperties": {"type": "integer"}},
            "in_flight": {"type": "integer"},
            "queue_depth": {"type": "integer"},
            "shed": {"type": "integer"},
            "dedup_hits": {"type": "integer"},
            "timeouts": {"type": "integer"},
            "worker_crashes": {"type": "integer"},
            "worker_restarts": {"type": "integer"},
            "workers": worker_stats,
            "cache": {
                "type": "object",
                "properties": {
                    "hits": {"type": "integer"},
                    "misses": {"type": "integer"},
                    "hit_ratio": {"type": ["number", "null"]},
                    "workers_reporting": {"type": "integer"},
                },
            },
            "latency": {
                "type": "object",
                "required": ["request", "stages"],
                "properties": {
                    "request": {"$ref": "#/definitions/histogram"},
                    "stages": {
                        "type": "object",
                        "additionalProperties": {"$ref": "#/definitions/histogram"},
                    },
                },
            },
        },
    }
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": "vhdl-ifa JSON documents",
        "description": (
            "Every JSON document emitted by the vhdl-ifa CLI (--json), the "
            "batch driver and the serve mode carries a 'schema' field naming "
            "this contract version; each document shape is defined here by "
            "its 'command' value."
        ),
        "schema_version": SCHEMA_VERSION,
        "definitions": {
            "diagnostic": diagnostic,
            "policy": policy,
            "histogram": histogram,
        },
        "documents": {
            "analyze": analyze,
            "check": check,
            "lint": lint,
            "batch": batch,
            "stats": stats,
            "version": version_doc,
            "policy": policy_doc,
            "cache-stats": cache_stats,
            "error": error,
            "healthz": healthz,
            "metrics": metrics,
        },
    }
