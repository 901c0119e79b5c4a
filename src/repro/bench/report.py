"""Result containers and text rendering for the figure/table drivers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..backend.fsio import atomic_write_text


@dataclass
class Series:
    """One performance curve: (x value -> Mflops) for one library."""

    library: str
    points: Dict[int, float] = field(default_factory=dict)

    def mean(self) -> float:
        vals = list(self.points.values())
        return sum(vals) / len(vals) if vals else 0.0


@dataclass
class FigureResult:
    """A reproduced figure: several series over a shared x axis."""

    figure_id: str
    title: str
    x_label: str
    xs: List[int]
    series: List[Series]

    def render(self) -> str:
        header = [self.x_label.rjust(10)] + [
            s.library.rjust(22) for s in self.series
        ]
        lines = [f"== {self.figure_id}: {self.title} (Mflops) ==",
                 " ".join(header)]
        for x in self.xs:
            row = [f"{x:10d}"]
            for s in self.series:
                v = s.points.get(x)
                row.append(f"{v:22.1f}" if v is not None else " " * 21 + "-")
            lines.append(" ".join(row))
        lines.append("")
        lines.append(self.render_summary())
        return "\n".join(lines)

    def render_summary(self) -> str:
        """Average speedup of the first series (AUGEM) vs. the others —
        the percentages the paper quotes in §5."""
        if not self.series:
            return ""
        base = self.series[0]
        out = [f"-- average {base.library} advantage --"]
        for other in self.series[1:]:
            shared = [x for x in self.xs
                      if x in base.points and x in other.points]
            if not shared:
                continue
            ratios = [base.points[x] / other.points[x] for x in shared
                      if other.points[x] > 0]
            avg = sum(ratios) / len(ratios)
            out.append(f"  vs {other.library:24s}: {100 * (avg - 1):+7.1f}%")
        return "\n".join(out)

    def to_json(self) -> str:
        return json.dumps(
            {
                "figure": self.figure_id,
                "title": self.title,
                "x_label": self.x_label,
                "xs": self.xs,
                "series": {s.library: s.points for s in self.series},
            },
            indent=2,
        )

    def save(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.figure_id}.json"
        atomic_write_text(path, self.to_json(), tag="bench.report")
        return path


@dataclass
class TableResult:
    """A reproduced table: rows of labelled values."""

    table_id: str
    title: str
    columns: List[str]
    rows: List[List[str]]

    def render(self) -> str:
        widths = [max(len(str(r[i])) for r in [self.columns] + self.rows)
                  for i in range(len(self.columns))]
        def fmt(row):
            return "  ".join(str(v).rjust(w) for v, w in zip(row, widths))
        lines = [f"== {self.table_id}: {self.title} ==", fmt(self.columns)]
        lines.extend(fmt(r) for r in self.rows)
        return "\n".join(lines)

    def save(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.table_id}.json"
        atomic_write_text(path, json.dumps(
            {"table": self.table_id, "title": self.title,
             "columns": self.columns, "rows": self.rows}, indent=2),
            tag="bench.report")
        return path
