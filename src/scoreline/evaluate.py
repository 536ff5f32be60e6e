"""Evaluation suite: fitness, standings, Kendall tau, zones, betting, chi2.

The real table, ``actual_standings``, is in ``heuristics`` beside Tradition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .heuristics import StandingsTable, points_table
from .ingest import Fixture, OddsRecord
from .predict import ScorelinePrediction


class EvaluateError(Exception):
    pass


class LengthMismatch(EvaluateError):
    pass


class EmptyInput(EvaluateError):
    pass


class TeamSetMismatch(EvaluateError):
    pass


class TooFewTeams(EvaluateError):
    pass


class NegativeFeature(EvaluateError):
    pass


class MissingScenario(EvaluateError):
    def __init__(self, model: str, scenario: str):
        self.model = model
        self.scenario = scenario
        super().__init__(f"model {model!r} has no rank in scenario {scenario!r}")


# ---------------------------------------------------------------- fitness

@dataclass(frozen=True)
class FitnessReport:
    """MAE / RMSE / R2 of one side's raw goal predictions.

    r2 is None when the actual goals are constant (zero total variance),
    reported downstream as not-applicable.
    """

    mae: float
    rmse: float
    r2: float | None
    n: int


def fitness(raw_pred, actual) -> FitnessReport:
    pred = np.asarray(raw_pred, dtype=np.float64)
    y = np.asarray(actual, dtype=np.float64)
    if pred.shape != y.shape or pred.ndim != 1:
        raise LengthMismatch(f"prediction shape {pred.shape} vs actual {y.shape}")
    if pred.size == 0:
        raise EmptyInput("fitness needs at least one prediction")
    err = pred - y
    mae = float(np.mean(np.abs(err)))
    rmse = float(math.sqrt(np.mean(err * err)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = None
    else:
        r2 = float(1.0 - np.sum(err * err) / ss_tot)
    return FitnessReport(mae=mae, rmse=rmse, r2=r2, n=int(pred.size))


# ------------------------------------------------------------- standings

def simulate_standings(predictions: Sequence[ScorelinePrediction],
                       fixtures: Iterable[Fixture]) -> StandingsTable:
    """League table the predicted scorelines would have produced."""
    by_id = {f.fixture_id: f for f in fixtures}
    results = []
    for p in predictions:
        fixture = by_id.get(p.fixture_id)
        if fixture is None:
            raise EvaluateError(f"prediction references unknown fixture {p.fixture_id!r}")
        results.append((fixture.home_team, fixture.away_team,
                        p.pred_home, p.pred_away))
    if not results:
        raise EmptyInput("no predictions to build standings from")
    return points_table(results, source="predicted")


def _check_same_teams(table_a: StandingsTable, table_b: StandingsTable) -> list[str]:
    teams_a = set(table_a.teams())
    teams_b = set(table_b.teams())
    if teams_a != teams_b:
        odd = sorted(teams_a.symmetric_difference(teams_b))
        raise TeamSetMismatch(f"tables rank different team sets; unmatched: {odd}")
    return sorted(teams_a)


def kendall_tau(table_a: StandingsTable, table_b: StandingsTable) -> float:
    """Tie-aware tau-b between two tables, ranked by points only.

    Teams level on points count as tied; goal difference is ignored here
    even though it orders the printed table. Returns NaN when either
    table has every team on equal points (denominator zero).
    """
    teams = _check_same_teams(table_a, table_b)
    x = np.array([table_a.points_of(t) for t in teams], dtype=np.float64)
    y = np.array([table_b.points_of(t) for t in teams], dtype=np.float64)
    i, j = np.triu_indices(len(teams), k=1)  # every pair once
    sx, sy = np.sign(x[i] - x[j]), np.sign(y[i] - y[j])
    denom = math.sqrt(np.count_nonzero(sx) * np.count_nonzero(sy))  # pairs untied in each
    if denom == 0.0:
        return float("nan")
    return int((sx * sy).sum()) / denom  # concordant minus discordant pairs


# each zone's size and its slice of the table
ZONES = {"top-4": (4, slice(None, 4)), "bottom-3": (3, slice(-3, None))}


def zone_accuracy(pred_table: StandingsTable, actual_table: StandingsTable,
                  zone: str) -> float:
    """Percent overlap of a table zone, order disregarded.

    Zone membership is cut by full table order (points, goal difference,
    goals for, name), not by points alone.
    """
    if zone not in ZONES:
        raise EvaluateError(f"zone must be one of {sorted(ZONES)}, got {zone!r}")
    size, cut = ZONES[zone]
    _check_same_teams(pred_table, actual_table)
    if len(pred_table.rows) < size:
        raise TooFewTeams(f"{zone} needs at least {size} teams, have {len(pred_table.rows)}")
    overlap = set(pred_table.teams()[cut]) & set(actual_table.teams()[cut])
    return 100.0 * len(overlap) / size


# --------------------------------------------------------------- betting

@dataclass(frozen=True)
class BetEntry:
    fixture_id: str
    pred_home: int
    pred_away: int
    correct: bool
    odds_found: bool
    odds: float | None
    payout: float


@dataclass
class BettingLedger:
    """Flat-stake exact-scoreline backtest starting from an empty pot."""

    stake: float
    policy: str
    entries: list[BetEntry] = field(default_factory=list)

    @property
    def bets_placed(self) -> int:
        return sum(1 for e in self.entries if e.odds_found or self.policy == "lose")

    @property
    def bets_skipped(self) -> int:
        return len(self.entries) - self.bets_placed

    @property
    def total_payout(self) -> float:
        return sum(e.payout for e in self.entries)

    @property
    def net_earnings(self) -> float:
        return self.total_payout - self.stake * self.bets_placed


MISSING_ODDS_POLICIES = ("skip", "lose")


def bet_run(predictions: Sequence[ScorelinePrediction],
            odds: Mapping[str, OddsRecord], stake: float = 1.0,
            missing_policy: str = "skip") -> BettingLedger:
    """Stake on every predicted exact scoreline and settle against actuals.

    A fixture whose predicted scoreline has no quote follows the policy:
    "skip" leaves the stake unrisked, "lose" forfeits it. Predictions
    without a known actual result are ignored.
    """
    if missing_policy not in MISSING_ODDS_POLICIES:
        raise EvaluateError(
            f"missing-odds policy must be one of {MISSING_ODDS_POLICIES}, got {missing_policy!r}")
    if not (math.isfinite(stake) and stake > 0.0):
        raise EvaluateError(f"stake must be a finite positive number, got {stake}")
    ledger = BettingLedger(stake=float(stake), policy=missing_policy)
    for p in predictions:
        if p.actual_home is None or p.actual_away is None:
            continue
        record = odds.get(p.fixture_id)
        quote = None if record is None else record.scoreline_odds.get((p.pred_home, p.pred_away))
        correct = p.correct_scoreline
        ledger.entries.append(BetEntry(
            fixture_id=p.fixture_id, pred_home=p.pred_home,
            pred_away=p.pred_away, correct=correct, odds_found=quote is not None,
            odds=quote, payout=stake * quote if correct and quote is not None else 0.0))
    return ledger


# ------------------------------------------------------------ importance

def _exact_colsum(a: np.ndarray) -> np.ndarray:
    # correctly rounded column sums keep the scores exactly linear when
    # every row of the matrix is duplicated
    return np.array([math.fsum(col) for col in a.T], dtype=np.float64)


def chi2_importance(X, y, feature_names: Sequence[str]) -> list[tuple[str, float]]:
    """Chi-squared feature scores against integer goal classes, descending.

    Features are min-max scaled to [0, 1], then per class the observed
    statistic is the sum of the feature's values and the expected one is
    the class's row share of the feature's total sum. Classes with zero
    expectation are skipped. Raw inputs must be non-negative.
    """
    X = np.asarray(X, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise EvaluateError(f"feature matrix must be 2-d, got ndim={X.ndim}")
    if yv.ndim != 1 or yv.shape[0] != X.shape[0]:
        raise LengthMismatch(f"targets {yv.shape} do not match {X.shape[0]} rows")
    if X.size == 0:
        raise EmptyInput("empty feature matrix")
    if len(feature_names) != X.shape[1]:
        raise LengthMismatch(
            f"{len(feature_names)} names for {X.shape[1]} feature columns")
    if np.min(X) < 0.0:
        raise NegativeFeature("chi2 importance needs non-negative raw features")
    if not np.all(np.isfinite(yv)) or np.any(yv < 0) or np.any(yv != np.floor(yv)):
        raise EvaluateError("targets must be non-negative integers (goal counts)")

    col_min = X.min(axis=0)
    col_range = X.max(axis=0) - col_min
    safe = np.where(col_range > 0.0, col_range, 1.0)
    Xs = (X - col_min) / safe
    Xs[:, col_range == 0.0] = 0.0

    classes = np.unique(yv)
    n = X.shape[0]
    totals = _exact_colsum(Xs)
    scores = np.zeros(X.shape[1], dtype=np.float64)
    for c in classes:
        mask = yv == c
        share = mask.sum() / n
        observed = _exact_colsum(Xs[mask])
        expected = share * totals
        nz = expected > 0.0
        scores[nz] += (observed[nz] - expected[nz]) ** 2 / expected[nz]

    order = sorted(range(X.shape[1]), key=lambda j: (-scores[j], j))
    return [(feature_names[j], float(scores[j])) for j in order]


# -------------------------------------------------------------- rank sum

def rank_models(values: Mapping[str, float], higher_is_better: bool) -> dict[str, int]:
    """Competition ranks, ties sharing the better rank (1, 1, 3, ...).

    None / NaN values rank below every real value (tied among themselves).
    """
    def norm(v):
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return -math.inf if higher_is_better else math.inf
        return float(v)

    cleaned = {label: norm(v) for label, v in values.items()}
    ranks = {}
    for label, v in cleaned.items():
        if higher_is_better:
            better = sum(1 for other in cleaned.values() if other > v)
        else:
            better = sum(1 for other in cleaned.values() if other < v)
        ranks[label] = 1 + better
    return ranks


@dataclass(frozen=True)
class OverviewRow:
    model: str
    ranks: tuple[tuple[str, int], ...]  # (scenario, rank) in scenario order
    rank_sum: int


def rank_sum_overview(scenario_ranks: Mapping[str, Mapping[str, int]]) -> list[OverviewRow]:
    """Combine per-scenario ranks into a rank-sum table, best first.

    Every model must carry a rank in every scenario; ordering is by rank
    sum ascending, then model label.
    """
    scenarios = list(scenario_ranks)
    if not scenarios:
        raise EmptyInput("no scenarios to combine")
    rows = []
    for model in sorted({m for ranks in scenario_ranks.values() for m in ranks}):
        per = []
        for scenario in scenarios:
            if model not in scenario_ranks[scenario]:
                raise MissingScenario(model, scenario)
            per.append((scenario, int(scenario_ranks[scenario][model])))
        rows.append(OverviewRow(model=model, ranks=tuple(per),
                                rank_sum=sum(r for _, r in per)))
    rows.sort(key=lambda row: (row.rank_sum, row.model))
    return rows
