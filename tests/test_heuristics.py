"""Home Win, Tradition and Recency plus the standings arithmetic they share."""

import csv

import pytest

from helpers import fx

from scoreline.heuristics import (
    EmptyTrainingSet,
    UnknownTeam,
    actual_standings,
    home_win_predict,
    last_goals_before,
    points_table,
    recency_predict,
    tradition_predict,
)

# ------------------------------------------------------------ points table


def test_single_win_points():
    table = points_table([("A", "B", 2, 0)], source="actual")
    assert table.points_of("A") == 3
    assert table.points_of("B") == 0
    assert table.rank_of("A") == 1


def test_draw_points_and_tiebreak():
    table = points_table([("A", "B", 1, 1)], source="actual")
    assert table.points_of("A") == 1 == table.points_of("B")
    # identical records: alphabetical order decides
    assert table.teams() == ("A", "B")


def test_tiebreak_chain():
    # same points, B has better goal difference; C wins on goals-for over D
    results = [
        ("A", "X", 1, 0), ("B", "X", 3, 0),
        ("C", "Y", 4, 2), ("D", "Y", 2, 0),
    ]
    table = points_table(results, source="actual")
    assert table.rank_of("B") < table.rank_of("A")
    assert table.rank_of("C") < table.rank_of("D")  # both +2, gf 4 beats 2


def test_points_sum_invariant():
    import random

    rng = random.Random(5)
    results = [(f"T{rng.randrange(6)}", f"U{rng.randrange(6)}",
                rng.randrange(5), rng.randrange(5)) for _ in range(40)]
    table = points_table(results, source="actual")
    decided = sum(1 for _h, _a, hg, ag in results if hg != ag)
    drawn = len(results) - decided
    assert sum(row.points for row in table.rows) == 3 * decided + 2 * drawn


def test_played_counts():
    table = points_table([("A", "B", 2, 0), ("B", "A", 1, 1)], source="actual")
    assert all(row.played == 2 for row in table.rows)


def test_rank_of_unknown_team():
    table = points_table([("A", "B", 2, 0)], source="actual")
    with pytest.raises(UnknownTeam):
        table.rank_of("Z")


def test_sample_training_table_spreadsheet_oracle(sample_dir, dataset):
    """Standings over the train window equal an independent tally."""
    train_ids = {f.fixture_id for f in dataset.train_fixtures}
    points: dict[str, int] = {}
    gd: dict[str, int] = {}
    gf: dict[str, int] = {}
    with open(sample_dir / "fixtures.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            if r["fixture_id"] not in train_ids:
                continue
            hg, ag = int(r["home_goals"]), int(r["away_goals"])
            home, away = r["home_team"], r["away_team"]
            for t in (home, away):
                points.setdefault(t, 0), gd.setdefault(t, 0), gf.setdefault(t, 0)
            points[home] += 3 if hg > ag else 1 if hg == ag else 0
            points[away] += 3 if ag > hg else 1 if hg == ag else 0
            gd[home] += hg - ag
            gd[away] += ag - hg
            gf[home] += hg
            gf[away] += ag
    expected = sorted(points, key=lambda t: (-points[t], -gd[t], -gf[t], t))
    table = actual_standings(dataset.train_fixtures)
    assert list(table.teams()) == expected
    for team in expected:
        assert table.points_of(team) == points[team]


def test_empty_training_set():
    with pytest.raises(EmptyTrainingSet):
        actual_standings([fx("U1", 0, "A", "B")])  # no goals recorded


# ---------------------------------------------------------------- home win


def test_home_win_constant():
    fixtures = [fx(f"F{i}", i, "A", "B", 1, 2) for i in range(100)]
    outputs = {home_win_predict(f) for f in fixtures}
    assert outputs == {(1, 0)}


# --------------------------------------------------------------- tradition


def eight_team_table():
    """Each pair plays once, lower index always wins: rank of Ti is i+1."""
    results = [(f"T{i}", f"T{j}", 2, 0)
               for i in range(8) for j in range(i + 1, 8)]
    return points_table(results, source="actual")


def test_tradition_higher_team_wins():
    table = eight_team_table()
    assert table.rank_of("T2") == 3 and table.rank_of("T7") == 8
    third_home = fx("X", 0, "T2", "T7")
    assert tradition_predict(third_home, table) == (1, 0)
    third_away = fx("Y", 0, "T7", "T2")
    assert tradition_predict(third_away, table) == (0, 1)


def test_tradition_never_draws_one_goal_total(dataset):
    table = actual_standings(dataset.train_fixtures)
    for fixture in dataset.test_fixtures:
        ph, pa = tradition_predict(fixture, table)
        assert ph + pa == 1
        assert (ph, pa) in ((1, 0), (0, 1))


def test_tradition_unknown_team_ranks_below_all():
    table = eight_team_table()
    assert tradition_predict(fx("X", 0, "T7", "Promoted"), table) == (1, 0)
    assert tradition_predict(fx("Y", 0, "Promoted", "T7"), table) == (0, 1)
    # both unknown: alphabetical order completes the ranking
    assert tradition_predict(fx("Z", 0, "Alpha", "Beta"), table) == (1, 0)
    assert tradition_predict(fx("W", 0, "Beta", "Alpha"), table) == (0, 1)


# ----------------------------------------------------------------- recency


def test_recency_paper_worked_example():
    """Last results 1-0 and 3-1 for the two sides give a 1-3 prediction."""
    history = [
        fx("P1", 0, "Arsenham", "Fulchester", 1, 0),   # home side last scored 1
        fx("P2", 1, "Readwich", "Chelton", 1, 3),      # away side last scored 3
    ]
    target = fx("P3", 7, "Arsenham", "Chelton")
    assert recency_predict(target, history) == (1, 3)


def test_recency_debut_defaults_to_one():
    target = fx("P1", 0, "A", "B")
    assert recency_predict(target, []) == (1, 1)


def test_recency_uses_latest_match_only():
    history = [
        fx("P1", 0, "A", "X", 5, 0),
        fx("P2", 3, "Y", "A", 2, 2),  # most recent: A scored 2 away
    ]
    assert recency_predict(fx("P3", 7, "A", "B"), history) == (2, 1)


def test_recency_strictly_before_kickoff():
    """A match at the same kickoff is not history yet."""
    simultaneous = fx("P1", 7, "A", "X", 4, 0)
    earlier = fx("P0", 0, "A", "X", 2, 0)
    target = fx("P2", 7, "A", "B")
    assert recency_predict(target, [earlier, simultaneous]) == (2, 1)


def test_recency_truncation_no_lookahead(dataset):
    """Future results never leak into a recency prediction."""
    history = list(dataset.fixtures)
    for fixture in dataset.test_fixtures:
        truncated = [f for f in history if f.kickoff < fixture.kickoff]
        assert recency_predict(fixture, history) == \
            recency_predict(fixture, truncated)


def test_recency_ignores_unplayed_matches():
    pending = fx("P1", 0, "A", "X")  # no result recorded
    assert last_goals_before("A", fx("P2", 7, "A", "B").kickoff, [pending]) == 1


def test_recency_mid_sample_manual_trace(sample_dir, dataset):
    """Hand-traced lookup in the raw fixtures file for one test fixture."""
    fixture = dataset.test_fixtures[4]
    rows = []
    with open(sample_dir / "fixtures.csv", newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh)
                if r["kickoff"] < fixture.kickoff.isoformat()]

    def last_goals(team):
        mine = [r for r in rows if team in (r["home_team"], r["away_team"])]
        mine.sort(key=lambda r: (r["kickoff"], r["fixture_id"]))
        last = mine[-1]
        return int(last["home_goals"]) if last["home_team"] == team \
            else int(last["away_goals"])

    expected = (last_goals(fixture.home_team), last_goals(fixture.away_team))
    assert recency_predict(fixture, dataset.fixtures) == expected
