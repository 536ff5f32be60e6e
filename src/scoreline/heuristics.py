"""Baseline predictors: Home Win, Tradition and Recency.

All three produce integer scorelines directly, no features or training
beyond what a league table or result history gives them. Each is one row
of ``RULES``: its name and the factory of its per-fixture rule, from the
train fixtures and the history Recency reads. Tradition's table,
``actual_standings``, is also the evaluation's real table.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .ingest import Fixture, kickoff_order

DEBUT_GOALS = 1  # Recency's prediction for a team with no earlier match


class HeuristicError(Exception):
    pass


class EmptyTrainingSet(HeuristicError):
    pass


class UnknownHeuristic(HeuristicError, ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown heuristic {name!r}; expected one of {HEURISTICS}")


class UnknownTeam(HeuristicError):
    def __init__(self, team: str):
        self.team = team
        super().__init__(f"team {team!r} does not appear in the table")


@dataclass(frozen=True)
class TableRow:
    team: str
    played: int
    points: int
    goal_diff: int
    goals_for: int


@dataclass(frozen=True)
class StandingsTable:
    """League table ordered by points, goal difference, goals for, name."""

    rows: tuple[TableRow, ...]
    source: str  # "actual" or "predicted"

    def rank_of(self, team: str) -> int:
        """1-based position; raises UnknownTeam for absent teams."""
        for pos, row in enumerate(self.rows, start=1):
            if row.team == team:
                return pos
        raise UnknownTeam(team)

    def teams(self) -> tuple[str, ...]:
        return tuple(row.team for row in self.rows)

    def points_of(self, team: str) -> int:
        return self.rows[self.rank_of(team) - 1].points


@dataclass
class _Tally:
    played: int = 0
    points: int = 0
    goal_diff: int = 0
    goals_for: int = 0


def points_table(results: Iterable[tuple[str, str, int, int]],
                 source: str) -> StandingsTable:
    """Standings from (home, away, home_goals, away_goals) tuples.

    Three points for a win, one for a draw. Ties in points break by goal
    difference, then goals for, then team name.
    """
    tallies: dict[str, _Tally] = defaultdict(_Tally)
    for home, away, hg, ag in results:
        for team, scored, conceded in ((home, hg, ag), (away, ag, hg)):
            tally = tallies[team]
            tally.played += 1
            tally.points += 3 if scored > conceded else 1 if scored == conceded else 0
            tally.goal_diff += scored - conceded
            tally.goals_for += scored
    rows = [TableRow(team=team, **vars(tally)) for team, tally in tallies.items()]
    rows.sort(key=lambda r: (-r.points, -r.goal_diff, -r.goals_for, r.team))
    return StandingsTable(rows=tuple(rows), source=source)


def actual_standings(fixtures: Iterable[Fixture]) -> StandingsTable:
    """Real standings over the completed ``fixtures``."""
    results = [
        (f.home_team, f.away_team, f.home_goals, f.away_goals)
        for f in fixtures
        if f.home_goals is not None and f.away_goals is not None
    ]
    if not results:
        raise EmptyTrainingSet("no completed fixtures to build a table from")
    return points_table(results, source="actual")


def home_win_predict(fixture: Fixture) -> tuple[int, int]:
    """A 1:0 home win, every time."""
    return (1, 0)


def _tradition_key(table: StandingsTable, team: str):
    # unknown teams sit below every known team, alphabetical among themselves
    try:
        return (0, table.rank_of(team), team)
    except UnknownTeam:
        return (1, 0, team)


def tradition_predict(fixture: Fixture, table: StandingsTable) -> tuple[int, int]:
    """1:0 for whichever team stands higher in the given table."""
    home_key = _tradition_key(table, fixture.home_team)
    away_key = _tradition_key(table, fixture.away_team)
    return (1, 0) if home_key < away_key else (0, 1)


def last_goals_before(team: str, kickoff, history: Iterable[Fixture]) -> int:
    """Goals the team scored in its most recent completed match before kickoff."""
    best: Fixture | None = None
    for f in history:
        if f.home_goals is None or f.away_goals is None:
            continue
        if f.kickoff >= kickoff:
            continue
        if team != f.home_team and team != f.away_team:
            continue
        if best is None or kickoff_order(f) > kickoff_order(best):
            best = f
    if best is None:
        return DEBUT_GOALS
    return best.home_goals if team == best.home_team else best.away_goals


def recency_predict(fixture: Fixture, history: Sequence[Fixture]) -> tuple[int, int]:
    """Each side repeats its goals from its own previous completed match.

    Only matches with kickoff strictly before the fixture's count; a team
    with no prior match gets DEBUT_GOALS.
    """
    return (last_goals_before(fixture.home_team, fixture.kickoff, history),
            last_goals_before(fixture.away_team, fixture.kickoff, history))


# each heuristic's factory of its per-fixture rule, from train fixtures and history
RULES = {
    "home-win": lambda train, history: home_win_predict,
    "tradition": lambda train, history: partial(tradition_predict, table=actual_standings(train)),
    "recency": lambda train, history: partial(recency_predict, history=list(history)),
}
HEURISTICS = tuple(RULES)
