"""Ranking effectiveness (nDCG@k), paired significance tests, report emission."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .datamodel import Qrels, Run, write_csv


def running_total(values) -> float:
    """The sum of `values` added left to right from 0.0.

    Python's sum() compensates float additions from 3.12 on; this gives
    3.11's sum() bits on every version, so persisted floats do not depend on it.
    """
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass
class MetricResult:
    per_query: dict[str, float]
    k: int

    @property
    def mean(self) -> float:
        if not self.per_query:
            return 0.0
        return running_total(self.per_query.values()) / len(self.per_query)


@dataclass(frozen=True)
class SignificanceResult:
    t_statistic: float
    p_value: float
    alpha: float
    n_comparisons: int
    significant: bool

    @property
    def corrected_alpha(self) -> float:
        return self.alpha / self.n_comparisons


def ndcg_at_k(run: Run, qrels: Qrels, k: int = 10) -> MetricResult:
    """Mean nDCG@k over queries shared by run and qrels.

    The gain of a document is its grade. Queries without any positively graded
    judgment are excluded from the mean. Unjudged documents contribute zero gain.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    judged = qrels.query_ids()
    shared = [qid for qid in run.query_ids() if qid in judged]
    if not shared:
        raise ValueError("run and qrels share no queries")
    per_query: dict[str, float] = {}
    for qid in shared:
        grades = qrels.grades_for(qid)
        ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
        if not ideal:
            continue
        idcg = running_total(float(g) / math.log2(i + 2) for i, g in enumerate(ideal[:k]))
        dcg = running_total(
            float(grades.get(did, 0)) / math.log2(rank + 1)
            for rank, (did, _) in enumerate(run[qid].entries[:k], start=1)
        )
        per_query[qid] = dcg / idcg
    return MetricResult(per_query=per_query, k=k)


# -- Student-t distribution via continued-fraction incomplete beta ----------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided p-value for a t statistic with df degrees of freedom."""
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def paired_ttest(
    a: list[float], b: list[float], alpha: float = 0.05, n_comparisons: int = 3
) -> SignificanceResult:
    """Two-sided paired t-test with Bonferroni-corrected decision threshold."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 paired observations")
    diffs = [x - y for x, y in zip(a, b)]
    mean = running_total(diffs) / n
    var = running_total((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        if mean == 0.0:
            return SignificanceResult(0.0, 1.0, alpha, n_comparisons, False)
        t = math.copysign(math.inf, mean)
    else:
        t = mean / math.sqrt(var / n)
    p = t_sf_two_sided(t, n - 1)
    return SignificanceResult(
        t_statistic=t,
        p_value=p,
        alpha=alpha,
        n_comparisons=n_comparisons,
        significant=p < alpha / n_comparisons,
    )


# -- report emission --------------------------------------------------------

MAIN_HEADER = [
    "strategy",
    "seed",
    "iteration",
    "train_size",
    "ndcg10",
    "assessments",
    "C_A",
    "C_C",
    "C_total",
]


def emit_reports(
    rows: list[dict],
    out_dir: str | Path,
    variability: list[dict] | None = None,
) -> dict[str, Path]:
    """Write the experiment CSVs: main table, figure-shaped data, summary table.

    `rows` carry one record per (strategy, seed, iteration) with the MAIN_HEADER
    fields; `variability` rows carry (strategy, size, seed, ndcg10).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def columns(header: list[str], records: list[dict]):
        return header, [[record[key] for key in header] for record in records]

    sizes = sorted({row["train_size"] for row in rows})
    summary = []
    for strategy in sorted({row["strategy"] for row in rows}):
        cells = []
        for size in sizes:
            vals = [
                row["ndcg10"]
                for row in rows
                if row["strategy"] == strategy and row["train_size"] == size
            ]
            cells.append(running_total(vals) / len(vals) if vals else "-")
        summary.append([strategy] + cells)

    tables = {
        "results": columns(MAIN_HEADER, rows),
        "fig_cost_stacked": columns(
            ["strategy", "seed", "iteration", "ndcg10", "C_A", "C_C"], rows
        ),
        "fig_ndcg_vs_assessments": columns(["strategy", "seed", "assessments", "ndcg10"], rows),
        "summary": (["strategy"] + [f"size_{s}" for s in sizes], summary),
    }
    if variability is not None:
        tables["variability"] = columns(["strategy", "size", "seed", "ndcg10"], variability)
    written: dict[str, Path] = {}
    for name, (header, table) in tables.items():
        written[name] = out / f"{name}.csv"
        write_csv(written[name], header, table)
    return written
