"""Markdown report generation: regenerate the full evaluation record.

``python -m repro report -o results.md`` runs every experiment and
writes a self-contained markdown document with our measured tables and
the paper-comparison notes — the machine-generated companion to the
hand-annotated EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path

from repro.harness.experiments import EXPERIMENTS, run_all
from repro.harness.runner import Runner


def _table_to_markdown(result) -> str:
    table = result.table
    header = "| " + " | ".join(table.headers) + " |"
    rule = "|" + "|".join("---" for _ in table.headers) + "|"
    lines = [header, rule]
    for row in table.rows:
        cells = [f"{c:.2f}" if isinstance(c, float) else str(c)
                 for c in row]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def generate_report(runner: Runner | None = None) -> str:
    """Run the whole suite and render it as markdown."""
    runner = runner if runner is not None else Runner()
    sections = [
        "# Measured results — 3D Memory Vectorization reproduction",
        "",
        "Generated by `python -m repro report`.  See EXPERIMENTS.md for "
        "the annotated paper-vs-measured discussion and DESIGN.md for "
        "modeling decisions.",
    ]
    for exp_id, result in zip(EXPERIMENTS, run_all(runner)):
        sections.append(f"\n## {exp_id} — {result.title}\n")
        sections.append(_table_to_markdown(result))
        if result.notes:
            sections.append(f"\n*{result.notes}*")
    return "\n".join(sections) + "\n"


def write_report(path: str | Path, runner: Runner | None = None) -> None:
    """Generate the report and write it to ``path``."""
    Path(path).write_text(generate_report(runner))
