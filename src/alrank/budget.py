"""Annotation/compute cost model and per-iteration cost reports."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path

from .datamodel import write_csv


@dataclass(frozen=True)
class CostConfig:
    """Rate constants: assessments/hour, annotator $/h, accelerator $/h, CPU $/h."""

    assessments_per_hour: float = 75.0
    annotator_cost_per_hour: float = 50.0
    gpu_cost_per_hour: float = 3.060
    cpu_cost_per_hour: float = 0.408
    selection_hours_per_iteration: float = 0.05

    def __post_init__(self):
        for name in (
            "assessments_per_hour",
            "annotator_cost_per_hour",
            "gpu_cost_per_hour",
            "cpu_cost_per_hour",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.selection_hours_per_iteration < 0:
            raise ValueError("selection_hours_per_iteration must be >= 0")


@dataclass(frozen=True)
class CostRow:
    iteration: int
    assessments: int
    annotation_cost: float
    compute_cost: float
    total: float


@dataclass
class CostReport:
    rows: list[CostRow]

    def save_csv(self, path: str | Path) -> None:
        header = ["iteration", "assessments", "C_A", "C_C", "C_total"]
        write_csv(path, header, map(astuple, self.rows))


def annotation_cost(assessments: int, config: CostConfig) -> float:
    """Cumulative annotation spend for A(i) assessments."""
    if assessments < 0:
        raise ValueError("assessments must be >= 0")
    return (assessments / config.assessments_per_hour) * config.annotator_cost_per_hour


def compute_cost(gpu_hours: float, iteration: int, config: CostConfig) -> float:
    """Cumulative compute spend: training on the accelerator meter plus
    `selection_hours_per_iteration` on the CPU meter from iteration 2 on."""
    if iteration < 1:
        raise ValueError("iteration must be >= 1")
    selection = config.selection_hours_per_iteration * config.cpu_cost_per_hour * (iteration - 1)
    return gpu_hours * config.gpu_cost_per_hour + selection


def total_cost(
    assessment_totals: dict[int, int], training_hours: dict[int, float], config: CostConfig
) -> CostReport:
    """Per-iteration cost rows from `{iteration: cumulative A(i)}` and
    `{iteration: training hours of that iteration}`.

    The training hours are summed left to right in iteration order, the bits
    of Python 3.11's sum() on every version.
    """
    iterations = sorted(assessment_totals)
    if sorted(training_hours) != iterations:
        raise ValueError(
            f"training hours iterations {sorted(training_hours)} do not "
            f"match assessment iterations {iterations}"
        )
    rows, hours = [], 0.0
    for i in iterations:
        if not (math.isfinite(training_hours[i]) and training_hours[i] >= 0):
            raise ValueError(f"hours must be finite and >= 0, got {training_hours[i]!r}")
        hours += training_hours[i]
        c_a = annotation_cost(assessment_totals[i], config)
        c_c = compute_cost(hours, i, config)
        rows.append(CostRow(i, assessment_totals[i], c_a, c_c, c_a + c_c))
    return CostReport(rows)
