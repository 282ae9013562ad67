"""Published JSON schema for scenario result documents.

Every JSON document emitted by `noncomm run --format json` validates against
RESULT_SCHEMA; `noncomm list --json` dumps the per-scenario parameter
schemas.
"""

RESULT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "noncomm scenario result",
    "type": "object",
    "required": ["scenario", "parameters", "seed", "trials", "summary"],
    "additionalProperties": False,
    "properties": {
        "scenario": {"type": "string"},
        "parameters": {"type": "object"},
        "seed": {"type": "integer"},
        "trials": {"type": "integer", "minimum": 1},
        "summary": {
            "type": "object",
            "additionalProperties": {"type": ["number", "string", "boolean", "null"]},
        },
        "series": {
            "type": "object",
            "additionalProperties": {"type": "array"},
        },
        "trial_records": {"type": "array", "items": {"type": "object"}},
    },
}

MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "noncomm run manifest",
    "type": "object",
    "required": ["tool", "version", "scenario", "parameters", "seed", "trials",
                 "blas_core", "started", "finished", "outputs"],
    "additionalProperties": False,
    "properties": {
        "tool": {"type": "string"},
        "version": {"type": "string"},
        "scenario": {"type": "string"},
        "parameters": {"type": "object"},
        "seed": {"type": "integer"},
        "trials": {"type": "integer"},
        "blas_core": {"type": "string"},
        "started": {"type": "string"},
        "finished": {"type": "string"},
        "outputs": {"type": "array", "items": {"type": "string"}},
    },
}
