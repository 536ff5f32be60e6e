"""Combine per-side goal models (or a heuristic) into integer scorelines."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .heuristics import (
    HEURISTICS,
    actual_standings,
    home_win_predict,
    recency_predict,
    tradition_predict,
)
from .ingest import Fixture, kickoff_order, write_csv
from .regress.base import ModelBase, SchemaMismatch


class PredictError(Exception):
    pass


class NonFinite(PredictError):
    pass


class EmptyTestSet(PredictError):
    pass


def round_goals(raw: float) -> int:
    """Round half up, clamp negatives to zero: 1.1 -> 1, 1.5 -> 2, -0.3 -> 0."""
    raw = float(raw)
    if not math.isfinite(raw):
        raise NonFinite(f"cannot round non-finite prediction {raw!r}")
    return max(0, math.floor(raw + 0.5))


@dataclass(frozen=True)
class ScorelinePrediction:
    """Raw and rounded goals for one fixture under one model label."""

    fixture_id: str
    model: str
    raw_home: float
    raw_away: float
    pred_home: int
    pred_away: int
    actual_home: int | None
    actual_away: int | None

    @property
    def correct_scoreline(self) -> bool:
        return (self.actual_home is not None
                and self.pred_home == self.actual_home
                and self.pred_away == self.actual_away)


def _scoreline(label: str, fixture: Fixture, raw_home, raw_away) -> ScorelinePrediction:
    """``fixture``'s prediction from raw goals, each rounded by ``round_goals``."""
    rh, ra = float(raw_home), float(raw_away)
    return ScorelinePrediction(
        fixture_id=fixture.fixture_id, model=label, raw_home=rh, raw_away=ra,
        pred_home=round_goals(rh), pred_away=round_goals(ra),
        actual_home=fixture.home_goals, actual_away=fixture.away_goals)


@dataclass
class PredictionSet:
    model: str
    predictions: list[ScorelinePrediction]
    skipped: list[tuple[str, str]]
    coverage: float | None = None  # players approach: share of lineup ids known


class ModelPairPredictor:
    """Home and away regression models speaking the scoreline interface."""

    def __init__(self, label: str, home_model: ModelBase, away_model: ModelBase):
        if home_model.n_features != away_model.n_features:
            raise SchemaMismatch(
                f"home model has {home_model.n_features} features, away "
                f"model {away_model.n_features}; the pair must share one layout")
        self.label = label
        self.home_model = home_model
        self.away_model = away_model

    def predict(self, fixtures: Sequence[Fixture], matrices: dict) -> PredictionSet:
        """One scoreline per fixture with a row on both sides.

        ``matrices`` maps each side to its feature matrix of exactly
        ``fixtures``.
        """
        raw = {side: model.predict(matrices[side].X())
               for side, model in (("home", self.home_model), ("away", self.away_model))}
        return pair_scorelines(self.label, fixtures, matrices, raw)


def pair_scorelines(label: str, fixtures: Sequence[Fixture], matrices: dict,
                    raw: dict) -> PredictionSet:
    """One scoreline per fixture with a row on both sides, labelled ``label``.

    ``matrices`` maps each side to its feature matrix of exactly
    ``fixtures``, and ``raw`` each side to its model's raw goal
    predictions of that matrix's rows.
    """
    fixtures = sorted(fixtures, key=kickoff_order)
    if not fixtures:
        raise EmptyTestSet("no fixtures to predict")
    home_m, away_m = matrices["home"], matrices["away"]
    raw_home = dict(zip(home_m.fixture_ids(), raw["home"]))
    raw_away = dict(zip(away_m.fixture_ids(), raw["away"]))

    skipped: dict[str, str] = {}
    for fid, reason in home_m.skipped + away_m.skipped:
        skipped.setdefault(fid, reason)
    predictions = []
    for fixture in fixtures:
        fid = fixture.fixture_id
        if fid not in raw_home or fid not in raw_away:
            skipped.setdefault(fid, "row not built for both sides")
            continue
        predictions.append(_scoreline(label, fixture, raw_home[fid], raw_away[fid]))
    order = {f.fixture_id: i for i, f in enumerate(fixtures)}
    skip_list = sorted(skipped.items(), key=lambda kv: order[kv[0]])
    return PredictionSet(model=label, predictions=predictions,
                         skipped=skip_list, coverage=home_m.coverage)


class HeuristicPredictor:
    """Home Win / Tradition / Recency behind the same predict interface."""

    def __init__(self, name: str, train_fixtures: Sequence[Fixture],
                 history: Sequence[Fixture] | None = None):
        if name not in HEURISTICS:
            raise ValueError(f"unknown heuristic {name!r}; expected one of {HEURISTICS}")
        self.label = name
        if name == "home-win":
            self._rule = home_win_predict
        elif name == "tradition":
            self._rule = partial(tradition_predict, table=actual_standings(train_fixtures))
        else:
            self._rule = partial(recency_predict, history=list(
                history if history is not None else train_fixtures))

    def predict(self, fixtures: Sequence[Fixture]) -> PredictionSet:
        fixtures = sorted(fixtures, key=kickoff_order)
        if not fixtures:
            raise EmptyTestSet("no fixtures to predict")
        predictions = [_scoreline(self.label, fixture, *self._rule(fixture))
                       for fixture in fixtures]
        return PredictionSet(model=self.label, predictions=predictions, skipped=[])


PREDICTION_COLUMNS = ("fixture_id", "model", "raw_home", "raw_away",
                      "pred_home", "pred_away", "actual_home", "actual_away")


def prediction_rows(psets: Iterable[PredictionSet]) -> Iterable[list]:
    """One PREDICTION_COLUMNS row per prediction, set by set."""
    return ([p.fixture_id, p.model, repr(float(p.raw_home)), repr(float(p.raw_away)),
             p.pred_home, p.pred_away, p.actual_home, p.actual_away]
            for pset in psets for p in pset.predictions)


def save_predictions_csv(pset: PredictionSet, path) -> None:
    write_csv(path, PREDICTION_COLUMNS, prediction_rows([pset]))
