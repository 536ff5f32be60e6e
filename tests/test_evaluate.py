"""Evaluation arithmetic against spreadsheet-style and scipy references."""

import csv
import math

import numpy as np
import pytest
import scipy.stats

from helpers import fx, pred

from scoreline.heuristics import StandingsTable, TableRow, actual_standings
from scoreline.evaluate import (
    EmptyInput,
    EvaluateError,
    LengthMismatch,
    MissingScenario,
    NegativeFeature,
    TeamSetMismatch,
    TooFewTeams,
    bet_run,
    chi2_importance,
    fitness,
    kendall_tau,
    rank_models,
    rank_sum_overview,
    simulate_standings,
    zone_accuracy,
)
from scoreline.ingest import OddsRecord

# ----------------------------------------------------------------- fitness


def test_fitness_perfect():
    report = fitness([1.0, 2.0, 0.0], [1, 2, 0])
    assert report.mae == 0.0 and report.rmse == 0.0 and report.r2 == 1.0


def test_fitness_mean_baseline_r2_zero():
    actual = [0, 2, 1, 3]
    report = fitness([1.5] * 4, actual)
    assert report.r2 == pytest.approx(0.0, abs=1e-12)


def test_fitness_hand_computed():
    report = fitness([1.0, 1.0, 1.0, 1.0], [0, 2, 1, 3])
    assert report.mae == pytest.approx(1.0)
    assert report.rmse == pytest.approx(math.sqrt(1.5))
    # SSres 6, SStot around mean 1.5 is 5, so r2 = 1 - 6/5
    assert report.r2 == pytest.approx(-0.2)
    assert report.n == 4


def test_fitness_rmse_at_least_mae():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.normal(size=12)
        a = rng.integers(0, 5, size=12)
        report = fitness(p, a)
        assert report.rmse >= report.mae >= 0.0


def test_fitness_constant_actuals_r2_not_applicable():
    report = fitness([1.0, 2.0], [1, 1])
    assert report.r2 is None


def test_fitness_validation():
    with pytest.raises(LengthMismatch):
        fitness([1.0], [1, 2])
    with pytest.raises(EmptyInput):
        fitness([], [])


def test_fitness_home_win_sample_oracle(sample_dir, dataset):
    """Home Win raw values against a spreadsheet-style recomputation."""
    test_ids = {f.fixture_id for f in dataset.test_fixtures}
    actual = []
    with open(sample_dir / "fixtures.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            if r["fixture_id"] in test_ids:
                actual.append(int(r["home_goals"]))
    report = fitness([1.0] * len(actual), actual)
    diffs = [abs(1 - g) for g in actual]
    assert report.mae == pytest.approx(sum(diffs) / len(diffs), abs=1e-12)
    assert report.rmse == pytest.approx(
        math.sqrt(sum(d * d for d in diffs) / len(diffs)), abs=1e-12)
    mean = sum(actual) / len(actual)
    ss_tot = sum((g - mean) ** 2 for g in actual)
    ss_res = sum(d * d for d in diffs)
    assert report.r2 == pytest.approx(1 - ss_res / ss_tot, abs=1e-12)


# --------------------------------------------------------------- standings


def round_robin_fixtures():
    teams = ["A", "B", "C", "D"]
    fixtures = []
    day = 0
    for home in teams:
        for away in teams:
            if home != away:
                fixtures.append(fx(f"{home}{away}", day, home, away,
                                   (day * 7) % 4, (day * 5) % 3))
                day += 1
    return fixtures


def test_all_home_wins_standings():
    fixtures = round_robin_fixtures()
    predictions = [pred(f.fixture_id, 1, 0, f.home_goals, f.away_goals)
                   for f in fixtures]
    table = simulate_standings(predictions, fixtures)
    # each team hosts 3 matches and wins exactly those
    assert all(table.points_of(t) == 9 for t in ("A", "B", "C", "D"))


def test_predicted_equals_actual_gives_identical_tables():
    fixtures = round_robin_fixtures()
    predictions = [pred(f.fixture_id, f.home_goals, f.away_goals,
                        f.home_goals, f.away_goals) for f in fixtures]
    predicted = simulate_standings(predictions, fixtures)
    actual = actual_standings(fixtures)
    assert predicted.rows == actual.rows
    assert kendall_tau(predicted, actual) == 1.0


def test_sample_actual_standings_oracle(sample_dir, dataset):
    """Actual test-window table equals an independent tally from the file."""
    test_ids = {f.fixture_id for f in dataset.test_fixtures}
    points: dict[str, int] = {}
    with open(sample_dir / "fixtures.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            if r["fixture_id"] not in test_ids:
                continue
            hg, ag = int(r["home_goals"]), int(r["away_goals"])
            points.setdefault(r["home_team"], 0)
            points.setdefault(r["away_team"], 0)
            points[r["home_team"]] += 3 if hg > ag else 1 if hg == ag else 0
            points[r["away_team"]] += 3 if ag > hg else 1 if hg == ag else 0
    table = actual_standings(dataset.test_fixtures)
    assert {t: table.points_of(t) for t in points} == points


def test_standings_empty_input():
    with pytest.raises(EmptyInput):
        simulate_standings([], [])


# -------------------------------------------------------------- kendall tau


def table_from_points(points: dict[str, int], source="actual") -> StandingsTable:
    rows = [TableRow(team=t, played=0, points=p, goal_diff=0, goals_for=0)
            for t, p in points.items()]
    rows.sort(key=lambda r: (-r.points, r.team))
    return StandingsTable(rows=tuple(rows), source=source)


def test_tau_identity_and_reversal():
    a = table_from_points({"A": 30, "B": 25, "C": 20, "D": 10})
    b = table_from_points({"A": 10, "B": 20, "C": 25, "D": 30})
    assert kendall_tau(a, a) == 1.0
    assert kendall_tau(a, b) == -1.0


def test_tau_matches_scipy_with_ties():
    rng = np.random.default_rng(8)
    teams = [f"T{i}" for i in range(10)]
    for _ in range(25):
        pa = {t: int(rng.integers(0, 12)) for t in teams}
        pb = {t: int(rng.integers(0, 12)) for t in teams}
        ours = kendall_tau(table_from_points(pa), table_from_points(pb))
        x = [pa[t] for t in teams]
        y = [pb[t] for t in teams]
        ref = scipy.stats.kendalltau(x, y, variant="b").statistic
        if math.isnan(ref):
            assert math.isnan(ours)
        else:
            assert ours == pytest.approx(ref, abs=1e-12)


def test_tau_five_team_tie_brute_force():
    """Pair-count oracle for one tied instance."""
    pa = {"A": 9, "B": 7, "C": 7, "D": 3, "E": 1}
    pb = {"A": 6, "B": 9, "C": 5, "D": 5, "E": 0}
    teams = sorted(pa)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(5):
        for j in range(i + 1, 5):
            da = pa[teams[i]] - pa[teams[j]]
            db = pb[teams[i]] - pb[teams[j]]
            if da == 0:
                ties_a += 1
            if db == 0:
                ties_b += 1
            if da != 0 and db != 0:
                if (da > 0) == (db > 0):
                    concordant += 1
                else:
                    discordant += 1
    n0 = 10
    expected = (concordant - discordant) / math.sqrt(
        (n0 - ties_a) * (n0 - ties_b))
    ours = kendall_tau(table_from_points(pa), table_from_points(pb))
    assert ours == pytest.approx(expected, abs=1e-12)


def test_tau_points_only_ignores_goal_difference():
    """Equal points tie for tau even when goal difference orders the table."""
    rows_a = (TableRow("A", 0, 10, 5, 9), TableRow("B", 0, 10, -5, 3),
              TableRow("C", 0, 4, 0, 2))
    rows_b = (TableRow("B", 0, 10, 9, 9), TableRow("A", 0, 10, -9, 3),
              TableRow("C", 0, 4, 0, 2))
    tau = kendall_tau(StandingsTable(rows_a, "actual"),
                      StandingsTable(rows_b, "actual"))
    assert tau == 1.0  # the A/B pair is tied on points in both tables


def test_tau_degenerate_all_tied_is_nan():
    a = table_from_points({"A": 5, "B": 5, "C": 5})
    b = table_from_points({"A": 1, "B": 2, "C": 3})
    assert math.isnan(kendall_tau(a, b))


def test_tau_team_set_mismatch():
    a = table_from_points({"A": 5, "B": 3})
    b = table_from_points({"A": 5, "C": 3})
    with pytest.raises(TeamSetMismatch):
        kendall_tau(a, b)


# ----------------------------------------------------------- zone accuracy


def six_team_tables():
    actual = table_from_points({"A": 30, "B": 25, "C": 20, "D": 15, "E": 10,
                                "F": 5})
    predicted = table_from_points({"A": 28, "C": 26, "E": 24, "F": 22,
                                   "B": 8, "D": 6}, source="predicted")
    return predicted, actual


def test_zone_accuracy_top4():
    predicted, actual = six_team_tables()
    # predicted top-4 {A,C,E,F} vs actual {A,B,C,D}: overlap 2 of 4
    assert zone_accuracy(predicted, actual, "top-4") == 50.0


def test_zone_accuracy_bottom3():
    predicted, actual = six_team_tables()
    # predicted bottom-3 {F,B,D} vs actual {D,E,F}: overlap 2 of 3
    assert zone_accuracy(predicted, actual, "bottom-3") == pytest.approx(200 / 3)


def test_zone_accuracy_perfect_and_disjoint():
    actual = table_from_points({t: 40 - i * 5 for i, t in enumerate("ABCDEFGH")})
    assert zone_accuracy(actual, actual, "top-4") == 100.0
    reversed_table = table_from_points(
        {t: i * 5 for i, t in enumerate("ABCDEFGH")}, source="predicted")
    assert zone_accuracy(reversed_table, actual, "top-4") == 0.0


def test_zone_accuracy_permutation_invariant():
    predicted, actual = six_team_tables()
    shuffled = table_from_points({"C": 99, "A": 98, "F": 97, "E": 96,
                                  "B": 1, "D": 0}, source="predicted")
    # same top-4 set {A,C,E,F} in a different internal order
    assert zone_accuracy(shuffled, actual, "top-4") == \
        zone_accuracy(predicted, actual, "top-4")


def test_zone_accuracy_too_few_teams():
    small = table_from_points({"A": 3, "B": 2, "C": 1})
    with pytest.raises(TooFewTeams):
        zone_accuracy(small, small, "top-4")


def test_zone_accuracy_unknown_zone():
    predicted, actual = six_team_tables()
    with pytest.raises(EvaluateError):
        zone_accuracy(predicted, actual, "top-7")


def test_zone_membership_uses_tiebroken_order():
    """Ties on points cut by goal difference for zone membership."""
    rows = (TableRow("A", 0, 10, 8, 9), TableRow("B", 0, 10, 4, 9),
            TableRow("C", 0, 10, 2, 9), TableRow("D", 0, 10, 1, 9),
            TableRow("E", 0, 10, 0, 9), TableRow("F", 0, 2, -15, 1))
    table = StandingsTable(rows, "actual")
    other = table_from_points({"A": 9, "B": 8, "C": 7, "D": 6, "E": 2, "F": 1})
    assert zone_accuracy(table, other, "top-4") == 100.0  # A,B,C,D on both sides


# ----------------------------------------------------------------- betting


def odds_book(quotes):
    book: dict[str, dict[tuple[int, int], float]] = {}
    for fid, scoreline, value in quotes:
        book.setdefault(fid, {})[scoreline] = value
    return {fid: OddsRecord(fixture_id=fid, scoreline_odds=table)
            for fid, table in book.items()}


def test_bet_correct_scoreline_nets_odds_minus_stake():
    book = odds_book([("F1", (2, 1), 9.5)])
    ledger = bet_run([pred("F1", 2, 1, 2, 1)], book, stake=1.0)
    assert ledger.bets_placed == 1
    assert ledger.total_payout == pytest.approx(9.5)
    assert ledger.net_earnings == pytest.approx(8.5)


def test_bet_hundred_wrong_bets_lose_hundred():
    book = odds_book([(f"F{i}", (1, 0), 5.0) for i in range(100)])
    predictions = [pred(f"F{i}", 1, 0, 0, 0) for i in range(100)]
    ledger = bet_run(predictions, book, stake=1.0)
    assert ledger.bets_placed == 100
    assert ledger.net_earnings == pytest.approx(-100.0)


def test_bet_missing_quote_policies():
    book = odds_book([("F1", (1, 0), 6.0)])
    predictions = [pred("F1", 1, 0, 0, 1), pred("F2", 4, 4, 4, 4)]
    skip = bet_run(predictions, book, stake=1.0, missing_policy="skip")
    assert (skip.bets_placed, skip.bets_skipped) == (1, 1)
    assert skip.net_earnings == pytest.approx(-1.0)  # unquoted stake unrisked
    lose = bet_run(predictions, book, stake=1.0, missing_policy="lose")
    assert (lose.bets_placed, lose.bets_skipped) == (2, 0)
    assert lose.net_earnings == pytest.approx(-2.0)  # correct but unquoted: lost


def test_bet_ledger_rederivable():
    rng = np.random.default_rng(3)
    book = odds_book([(f"F{i}", (int(rng.integers(0, 3)), int(rng.integers(0, 3))),
                       float(rng.uniform(2, 30))) for i in range(30)])
    predictions = [pred(f"F{i}", int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                        int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                   for i in range(30)]
    ledger = bet_run(predictions, book, stake=2.5)
    expected = sum(e.odds * 2.5 for e in ledger.entries
                   if e.correct and e.odds_found)
    assert ledger.net_earnings == pytest.approx(
        expected - 2.5 * ledger.bets_placed)


def test_bet_ignores_unplayed_fixtures():
    book = odds_book([("F1", (1, 0), 6.0)])
    ledger = bet_run([pred("F1", 1, 0, None, None)], book)
    assert ledger.entries == []


def test_bet_sample_hand_ledger(sample_dir, dataset):
    """Home Win over the sample test window against a hand-computed ledger."""
    quotes: dict[str, dict[tuple[int, int], float]] = {}
    with open(sample_dir / "odds.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            quotes.setdefault(r["fixture_id"], {})[
                (int(r["home_goals"]), int(r["away_goals"]))] = float(r["odds"])
    net = 0.0
    placed = 0
    for f in dataset.test_fixtures:
        quote = quotes.get(f.fixture_id, {}).get((1, 0))
        if quote is None:
            continue
        placed += 1
        if (f.home_goals, f.away_goals) == (1, 0):
            net += quote
    net -= placed
    predictions = [pred(f.fixture_id, 1, 0, f.home_goals, f.away_goals)
                   for f in dataset.test_fixtures]
    ledger = bet_run(predictions, dataset.odds, stake=1.0)
    assert ledger.bets_placed == placed
    assert ledger.net_earnings == pytest.approx(net, abs=1e-9)


def test_bet_validation():
    with pytest.raises(EvaluateError):
        bet_run([], {}, stake=0.0)
    with pytest.raises(EvaluateError):
        bet_run([], {}, missing_policy="refund")


@pytest.mark.parametrize("stake", [float("nan"), float("inf"), -float("inf")])
def test_bet_refuses_a_stake_that_is_not_finite(stake):
    with pytest.raises(EvaluateError, match="stake must be a finite positive number"):
        bet_run([], {}, stake=stake)


# ---------------------------------------------------------- chi2 importance


def test_chi2_hand_computed_contingency():
    """Two features, two classes, done longhand on scaled values."""
    X = np.array([[0.0, 2.0],
                  [1.0, 2.0],
                  [2.0, 2.0],
                  [4.0, 2.0]])
    y = np.array([0, 0, 1, 1])
    # scaled col0: 0, .25, .5, 1 (range 4); col1 is constant -> all zeros
    # class 0 share .5: observed0 = .25, expected .875; class 1: obs 1.5, exp .875
    expected_score = (0.25 - 0.875) ** 2 / 0.875 + (1.5 - 0.875) ** 2 / 0.875
    ranking = chi2_importance(X, y, ["f0", "f1"])
    assert ranking[0][0] == "f0"
    assert ranking[0][1] == pytest.approx(expected_score, abs=1e-12)
    assert ranking[1] == ("f1", 0.0)


def test_chi2_proportional_feature_scores_zero():
    X = np.array([[1.0], [1.0], [1.0], [1.0]])
    y = np.array([0, 1, 2, 0])
    ranking = chi2_importance(X, y, ["flat"])
    assert ranking[0][1] == pytest.approx(0.0, abs=1e-12)


def test_chi2_single_class_feature_ranks_first():
    rng = np.random.default_rng(5)
    n = 40
    y = rng.integers(0, 3, size=n)
    concentrated = np.where(y == 2, 1.0, 0.0)
    noise = rng.uniform(0.4, 0.6, size=n)
    X = np.column_stack([noise, concentrated])
    ranking = chi2_importance(X, y, ["noise", "concentrated"])
    assert ranking[0][0] == "concentrated"
    assert ranking[0][1] > ranking[1][1]


def test_chi2_row_duplication_exactly_doubles():
    rng = np.random.default_rng(6)
    X = rng.uniform(0, 5, size=(12, 4))
    y = rng.integers(0, 3, size=12)
    base = dict(chi2_importance(X, y, list("abcd")))
    doubled = dict(chi2_importance(np.vstack([X, X]), np.concatenate([y, y]),
                                   list("abcd")))
    for name in "abcd":
        assert doubled[name] == 2.0 * base[name]  # exact, not approximate


def test_chi2_negative_feature_rejected():
    with pytest.raises(NegativeFeature):
        chi2_importance(np.array([[-0.1], [1.0]]), np.array([0, 1]), ["f"])


def test_chi2_non_integer_targets_rejected():
    with pytest.raises(EvaluateError):
        chi2_importance(np.ones((2, 1)), np.array([0.5, 1.0]), ["f"])


def test_chi2_descending_order():
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 1, size=(30, 6))
    y = rng.integers(0, 4, size=30)
    scores = [s for _n, s in chi2_importance(X, y, [f"f{i}" for i in range(6)])]
    assert scores == sorted(scores, reverse=True)


# ---------------------------------------------------------------- rank sum


def test_rank_models_ties_share_better_rank():
    ranks = rank_models({"a": 5.0, "b": 5.0, "c": 3.0}, higher_is_better=True)
    assert ranks == {"a": 1, "b": 1, "c": 3}


def test_rank_models_lower_is_better():
    ranks = rank_models({"a": 0.9, "b": 1.4, "c": 0.9}, higher_is_better=False)
    assert ranks == {"a": 1, "b": 3, "c": 1}


def test_rank_models_none_and_nan_rank_last():
    ranks = rank_models({"a": 2.0, "b": None, "c": float("nan")},
                        higher_is_better=True)
    assert ranks["a"] == 1
    assert ranks["b"] == ranks["c"] == 2


def test_rank_sum_paper_golden():
    scenarios = {
        "home": {"Team Stats": 2}, "away": {"Team Stats": 1},
        "betting": {"Team Stats": 1}, "standings": {"Team Stats": 2},
        "top4": {"Team Stats": 1}, "relegation": {"Team Stats": 1},
    }
    rows = rank_sum_overview(scenarios)
    assert rows[0].rank_sum == 8
    assert [r for _s, r in rows[0].ranks] == [2, 1, 1, 2, 1, 1]


def test_rank_sum_best_everywhere_lower_bound():
    scenarios = {s: {"m": 1, "other": 2} for s in ("s1", "s2", "s3")}
    rows = rank_sum_overview(scenarios)
    assert rows[0].model == "m" and rows[0].rank_sum == 3


def test_rank_sum_ordering_manual():
    scenarios = {
        "s1": {"a": 1, "b": 2, "c": 3},
        "s2": {"a": 3, "b": 1, "c": 2},
    }
    rows = rank_sum_overview(scenarios)
    assert [(r.model, r.rank_sum) for r in rows] == [
        ("b", 3), ("a", 4), ("c", 5)]


def test_rank_sum_missing_scenario():
    with pytest.raises(MissingScenario):
        rank_sum_overview({"s1": {"a": 1}, "s2": {}})
