"""Scoreline assembly: rounding, model pairing and the heuristic adapter."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scoreline.features import SIDES
from scoreline.heuristics import HeuristicError
from scoreline.predict import (
    EmptyTestSet,
    HeuristicPredictor,
    ModelPairPredictor,
    NonFinite,
    round_goals,
    save_predictions_csv,
)
from scoreline.regress import SchemaMismatch
from scoreline.regress.base import ModelBase

# ---------------------------------------------------------------- rounding


@pytest.mark.parametrize("raw,expected", [
    (1.1, 1),
    (-0.3, 0),
    (1.5, 2),
    (2.49, 2),
    (0.5, 1),
    (0.0, 0),
    (-7.0, 0),
    (3.0, 3),
])
def test_round_goals_goldens(raw, expected):
    assert round_goals(raw) == expected


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_round_goals_non_finite(bad):
    with pytest.raises(NonFinite):
        round_goals(bad)


@given(st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_round_goals_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert round_goals(lo) <= round_goals(hi)


@given(st.floats(min_value=-100.0, max_value=100.0))
def test_round_goals_non_negative_int(raw):
    out = round_goals(raw)
    assert isinstance(out, int)
    assert out >= 0


# ------------------------------------------------------------ model pairing


class StubModel(ModelBase):
    """Fixed-output regressor for wiring tests."""

    technique = "stub"

    def __init__(self, n_features: int, value: float):
        super().__init__(n_features, None)
        self.value = value

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.value)


def pair_matrices(builder, fixtures, approach="team_stats", require_target=True):
    return {side: builder.build_matrix(fixtures, approach, side, require_target=require_target)
            for side in SIDES}


def test_pair_rejects_mismatched_widths():
    with pytest.raises(SchemaMismatch):
        ModelPairPredictor("m", StubModel(52, 1.0), StubModel(30, 1.0))


def test_pair_rounding_composition(dataset, builder):
    pair = ModelPairPredictor("m", StubModel(52, 1.7), StubModel(52, 0.2))
    pset = pair.predict(dataset.test_fixtures, pair_matrices(builder, dataset.test_fixtures))
    for p in pset.predictions:
        assert (p.raw_home, p.raw_away) == (1.7, 0.2)
        assert (p.pred_home, p.pred_away) == (2, 0)


def test_pair_empty_test_set(dataset, builder):
    pair = ModelPairPredictor("m", StubModel(52, 1.0), StubModel(52, 1.0))
    with pytest.raises(EmptyTestSet):
        pair.predict([], pair_matrices(builder, dataset.test_fixtures))


def test_pair_output_order_and_uniqueness(dataset, builder):
    pair = ModelPairPredictor("m", StubModel(52, 1.0), StubModel(52, 0.0))
    pset = pair.predict(dataset.test_fixtures, pair_matrices(builder, dataset.test_fixtures))
    ids = [p.fixture_id for p in pset.predictions]
    assert len(set(ids)) == len(ids)
    order = {f.fixture_id: i for i, f in enumerate(dataset.test_fixtures)}
    assert [order[i] for i in ids] == sorted(order[i] for i in ids)
    assert len(pset.predictions) + len(pset.skipped) == len(dataset.test_fixtures)


def test_pair_sides_are_independent(dataset, builder):
    """Predicting twice, or with the models rebuilt, changes nothing."""
    a = ModelPairPredictor("m", StubModel(52, 1.6), StubModel(52, 0.4)).predict(
        dataset.test_fixtures, pair_matrices(builder, dataset.test_fixtures))
    b = ModelPairPredictor("m", StubModel(52, 1.6), StubModel(52, 0.4)).predict(
        dataset.test_fixtures, pair_matrices(builder, dataset.test_fixtures))
    assert a.predictions == b.predictions


def test_pair_actuals_carried(dataset, builder):
    pair = ModelPairPredictor("m", StubModel(52, 1.0), StubModel(52, 0.0))
    by_id = {f.fixture_id: f for f in dataset.test_fixtures}
    matrices = pair_matrices(builder, dataset.test_fixtures)
    for p in pair.predict(dataset.test_fixtures, matrices).predictions:
        fixture = by_id[p.fixture_id]
        assert (p.actual_home, p.actual_away) == (fixture.home_goals,
                                                  fixture.away_goals)


def test_players_pair_reports_coverage(dataset, builder):
    width = len(builder.player_universe)
    pair = ModelPairPredictor("m", StubModel(width, 1.0), StubModel(width, 0.0))
    pset = pair.predict(dataset.test_fixtures,
                        pair_matrices(builder, dataset.test_fixtures, "players"))
    assert pset.coverage is not None
    assert 0.0 < pset.coverage <= 1.0


# --------------------------------------------------------- heuristic adapter


def test_home_win_through_interface(dataset):
    predictor = HeuristicPredictor("home-win", dataset.train_fixtures)
    pset = predictor.predict(dataset.test_fixtures)
    assert len(pset.predictions) == len(dataset.test_fixtures)
    for p in pset.predictions:
        assert (p.pred_home, p.pred_away) == (1, 0)
        assert (p.raw_home, p.raw_away) == (1.0, 0.0)  # raw = pred for heuristics


def test_unknown_heuristic_rejected(dataset):
    with pytest.raises(ValueError):
        HeuristicPredictor("oracle", dataset.train_fixtures)
    with pytest.raises(HeuristicError, match="unknown heuristic 'oracle'"):
        HeuristicPredictor("oracle", dataset.train_fixtures)


def test_recency_history_includes_earlier_test_matches(dataset):
    """Walk-forward framing: earlier test results feed later predictions."""
    predictor = HeuristicPredictor("recency", dataset.train_fixtures,
                                   history=dataset.fixtures)
    pset = predictor.predict(dataset.test_fixtures)
    last = dataset.test_fixtures[-1]
    prior = [f for f in dataset.fixtures
             if f.kickoff < last.kickoff
             and last.home_team in (f.home_team, f.away_team)]
    prior.sort(key=lambda f: (f.kickoff, f.fixture_id))
    expected_home = (prior[-1].home_goals if prior[-1].home_team == last.home_team
                     else prior[-1].away_goals)
    got = next(p for p in pset.predictions if p.fixture_id == last.fixture_id)
    assert got.pred_home == expected_home
    assert any(f.fixture_id == prior[-1].fixture_id
               for f in dataset.test_fixtures)  # the source really is a test match


def test_manual_pipeline_trace_eight_fixtures(dataset):
    """Row-for-row check of the full 8-fixture sample test window."""
    pset = HeuristicPredictor("home-win", dataset.train_fixtures).predict(
        dataset.test_fixtures)
    assert [p.fixture_id for p in pset.predictions] == \
        [f.fixture_id for f in dataset.test_fixtures]
    for p, f in zip(pset.predictions, dataset.test_fixtures):
        assert p == type(p)(fixture_id=f.fixture_id, model="home-win",
                            raw_home=1.0, raw_away=0.0, pred_home=1,
                            pred_away=0, actual_home=f.home_goals,
                            actual_away=f.away_goals)


def test_correct_scoreline_flag():
    from helpers import pred

    assert pred("F", 2, 1, 2, 1).correct_scoreline
    assert not pred("F", 2, 1, 2, 2).correct_scoreline
    assert not pred("F", 2, 1, None, None).correct_scoreline


# ----------------------------------------------------------------- exports


def test_save_csv(tmp_path, dataset):
    pset = HeuristicPredictor("home-win", dataset.train_fixtures).predict(
        dataset.test_fixtures)
    csv_path = tmp_path / "p.csv"
    save_predictions_csv(pset, csv_path)

    import csv as csv_mod

    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv_mod.DictReader(fh))
    assert len(rows) == len(pset.predictions)
    assert rows[0]["model"] == "home-win"
    assert rows[0]["pred_home"] == "1"


def test_save_csv_blank_actuals_for_upcoming(tmp_path, sample_dir, dataset, builder):
    from scoreline.ingest import load_fixtures

    upcoming = load_fixtures(sample_dir / "upcoming.csv", require_goals=False)
    pair = ModelPairPredictor("m", StubModel(52, 1.2), StubModel(52, 0.8))
    pset = pair.predict(upcoming, pair_matrices(builder, upcoming, require_target=False))
    path = tmp_path / "u.csv"
    save_predictions_csv(pset, path)

    import csv as csv_mod

    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv_mod.DictReader(fh))
    assert rows and all(r["actual_home"] == "" for r in rows)
