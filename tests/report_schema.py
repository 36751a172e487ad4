"""JSON schema of the run report that ``apce.cli.run_record`` builds.

The CLI does not validate its own output; the tests check every report
they read back against this schema.
"""

from apce.cli import SCHEMA_VERSION

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version", "run_id", "mode", "config", "document", "selection",
        "replacement_log", "replacement_stats", "trace", "tokens", "counters",
        "metrics", "timestamps",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "run_id": {"type": "string"},
        "mode": {"enum": ["dense", "apce"]},
        "config": {"type": "object"},
        "document": {
            "type": "object",
            "required": ["id", "tokens", "chunks"],
            "properties": {
                "id": {"type": "string"},
                "tokens": {"type": "integer", "minimum": 0},
                "chunks": {"type": "integer", "minimum": 0},
            },
        },
        "selection": {
            "type": "object",
            "required": ["initial", "scores", "k_effective"],
        },
        "replacement_log": {"type": "array"},
        "replacement_stats": {
            "type": "object",
            "required": ["taken", "available"],
        },
        "trace": {
            "type": "object",
            "required": ["ttft", "total_time", "events"],
        },
        "tokens": {"type": "array", "items": {"type": "integer"}},
        "counters": {"type": "object"},
        "metrics": {"type": "object"},
        "timestamps": {"type": "object"},
    },
}
