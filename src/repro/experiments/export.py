"""Deterministic JSON export of experiment results.

Every ``Fig*Result`` is a tree of dataclasses, lists, and dicts (some
keyed by tuples or ints); :func:`to_jsonable` lowers that tree to plain
JSON types without losing information, :func:`render_manifest` renders
results as the ``--json`` payload the CLI writes, and
:func:`render_sections` renders it from sections already lowered, such
as those read back from figure documents.

A *figure document* is the rendered one-figure manifest of one figure
and profile.  Both front ends keep it in the artifact cache, under kind
:data:`DOCUMENT_KIND` and the key of the normalized figure request
(:func:`figure_request`, :func:`document_key`): the service serves it
as a figure job's result, and the CLI replays a figure from it without
running (or importing) the experiment.

Determinism matters here: the acceptance bar for the pipeline is that a
parallel run's JSON is *byte-identical* to a serial run's, so nothing
time-, path-, or host-dependent may enter the payload, and key order is
the deterministic assembly order of the results themselves.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from typing import Any, Dict

__all__ = [
    "DOCUMENT_KIND",
    "document_key",
    "figure_request",
    "render_manifest",
    "render_sections",
    "to_jsonable",
]

#: Artifact kind under which rendered one-request documents are stored:
#: figure documents, and the service's sweep results.
DOCUMENT_KIND = "service"


def figure_request(target: str, profile_name: str) -> dict:
    """The normalized request for one figure at one profile."""
    return {"kind": "figure", "target": target, "profile": profile_name}


def document_key(request: dict) -> tuple:
    """The artifact-cache key tuple a request's rendered document lives under."""
    return (request,)


def _key_str(key: Any) -> str:
    """Lower a dict key to a stable string (JSON keys must be strings)."""
    if isinstance(key, str):
        return key
    if key is None:
        return "null"
    if isinstance(key, tuple):
        return "|".join(_key_str(part) for part in key)
    if isinstance(key, Enum):
        return key.name
    return str(key)


def to_jsonable(obj: Any) -> Any:
    """Recursively lower dataclasses/enums/tuple-keyed dicts to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Enum):
        return obj.name
    if isinstance(obj, dict):
        return {_key_str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    return obj


def render_sections(profile_name: str, sections: Dict[str, Any]) -> str:
    """The ``--json`` document: profile + every section, in order.

    ``sections`` maps experiment id to its ``{"table", "data"}``
    section, as :func:`render_manifest` builds it or as read back from
    a rendered document: a section holds only JSON types, so a JSON
    round trip renders identically.
    """
    payload = {"profile": profile_name, "results": sections}
    return json.dumps(payload, indent=2) + "\n"


def render_manifest(profile_name: str, results: Dict[str, Any]) -> str:
    """The ``--json`` document: profile + every result's data and table.

    ``results`` maps experiment id (``fig3`` ... ``ablation``) to its
    ``Fig*Result`` in execution order.
    """
    return render_sections(profile_name, {
        name: {"table": result.format_table(), "data": to_jsonable(result)}
        for name, result in results.items()
    })
