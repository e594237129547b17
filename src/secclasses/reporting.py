"""Deterministic report envelopes and renderers (table, json, csv).

Rational values are serialized as "num/den" strings (integers without the
denominator); floats never appear.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__

SCHEMA_ID = "report.v1"
FORMATS = ("table", "json", "csv")


def rat(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"not a rational: {value!r}")


def envelope(command: str, parameters: dict, results) -> dict:
    return {
        "schema": SCHEMA_ID,
        "command": command,
        "parameters": parameters,
        "results": results,
        "toolVersion": __version__,
        "exact": True,
    }


def render_json(env: dict) -> str:
    return json.dumps(env, indent=2) + "\n"


def render_csv(columns: list[str], rows: list[dict]) -> str:
    import csv  # only here, so that json and table reports never load it
    import io
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    return buf.getvalue()


def render_table(title: str, columns: list[str], rows: list[dict],
                 notes: list[str] | None = None) -> str:
    widths = {c: len(c) for c in columns}
    body = []
    for row in rows:
        cells = {c: "" if row.get(c) is None else str(row[c]) for c in columns}
        for c, text in cells.items():
            widths[c] = max(widths[c], len(text))
        body.append(cells)
    lines = [title]
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header.rstrip())
    lines.append("  ".join("-" * widths[c] for c in columns).rstrip())
    for cells in body:
        lines.append("  ".join(cells[c].ljust(widths[c]) for c in columns).rstrip())
    if not rows:
        lines.append("(empty)")
    for note in notes or []:
        lines.append(note)
    return "\n".join(lines) + "\n"


def render(fmt: str, env: dict, title: str, columns: list[str],
           rows: list[dict], notes: list[str] | None = None) -> str:
    if fmt == "json":
        return render_json(env)
    if fmt == "csv":
        return render_csv(columns, rows)
    return render_table(title, columns, rows, notes)
