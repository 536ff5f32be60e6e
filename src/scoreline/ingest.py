"""Loading, validation and chronological partitioning of match data.

All three inputs are UTF-8 CSV files with a header row:

* ``fixtures.csv``: one row per match. Lineups are semicolon-delimited
  player-id lists, exactly eleven distinct ids when present, empty when
  unknown.
* ``player_stats.csv``: long format (player_id, fixture_id, position_group,
  stat_name, value). The stat schema is open; unknown stat names are kept
  verbatim.
* ``odds.csv``: long format (fixture_id, home_goals, away_goals, odds) with
  decimal odds for exact scorelines.

Loading is single-threaded and strict: malformed rows fail early with the
row number. The resulting :class:`Dataset` is immutable and safe to read
from any number of workers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Mapping

POSITION_GROUPS = ("GK", "DF", "MF", "FW")
LINEUP_SIZE = 11

FIXTURE_COLUMNS = (
    "fixture_id",
    "season",
    "kickoff",
    "home_team",
    "away_team",
    "home_goals",
    "away_goals",
    "home_lineup",
    "away_lineup",
)
STATS_COLUMNS = ("player_id", "fixture_id", "position_group", "stat_name", "value")
ODDS_COLUMNS = ("fixture_id", "home_goals", "away_goals", "odds")


class IngestError(Exception):
    """Base class for data loading failures."""


class ParseError(IngestError):
    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


class DuplicateFixture(IngestError):
    def __init__(self, fixture_id: str):
        self.fixture_id = fixture_id
        super().__init__(f"duplicate fixture_id {fixture_id!r}")


class MalformedLineup(IngestError):
    def __init__(self, fixture_id: str, detail: str = ""):
        self.fixture_id = fixture_id
        msg = f"fixture {fixture_id!r}: lineup must list {LINEUP_SIZE} distinct players"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class UnknownFixture(IngestError):
    def __init__(self, fixture_id: str):
        self.fixture_id = fixture_id
        super().__init__(f"record references unknown fixture {fixture_id!r}")


class NegativeStat(IngestError):
    def __init__(self, player_id: str, stat: str):
        self.player_id = player_id
        self.stat = stat
        super().__init__(f"player {player_id!r}: stat {stat!r} is negative")


class OddsNotPositive(IngestError):
    def __init__(self, fixture_id: str, scoreline: tuple[int, int]):
        self.fixture_id = fixture_id
        self.scoreline = scoreline
        super().__init__(f"fixture {fixture_id!r}: odds for {scoreline} must exceed 1.0")


class TestTooLarge(IngestError):
    __test__ = False  # keep pytest from collecting this as a test class

    def __init__(self, test_size: int, total: int):
        super().__init__(f"test_size {test_size} must be smaller than fixture count {total}")


@dataclass(frozen=True)
class Fixture:
    """One match: teams, kickoff, final score and starting elevens.

    Goals are ``None`` only for not-yet-played fixtures loaded with
    ``require_goals=False`` (the prediction path). Lineups are ``None``
    when the file leaves them empty; lineup-dependent feature builders
    reject such fixtures later.
    """

    fixture_id: str
    season: int
    kickoff: datetime
    home_team: str
    away_team: str
    home_goals: int | None
    away_goals: int | None
    home_lineup: tuple[str, ...] | None
    away_lineup: tuple[str, ...] | None

    def has_lineups(self) -> bool:
        return self.home_lineup is not None and self.away_lineup is not None

    def team(self, side: str) -> str:
        return self.home_team if side == "home" else self.away_team

    def lineup(self, side: str) -> tuple[str, ...] | None:
        return self.home_lineup if side == "home" else self.away_lineup

    def goals(self, side: str) -> int | None:
        return self.home_goals if side == "home" else self.away_goals


@dataclass(frozen=True)
class PlayerMatchStats:
    """One player's stat vector for one match."""

    player_id: str
    fixture_id: str
    position_group: str
    stats: Mapping[str, float]


class StatsArchive:
    """Player match records indexed by (player_id, fixture_id)."""

    def __init__(self, records: Iterable[PlayerMatchStats]):
        self._by_key: dict[tuple[str, str], PlayerMatchStats] = {}
        for rec in records:
            key = (rec.player_id, rec.fixture_id)
            if key in self._by_key:
                raise ParseError(0, f"duplicate record for {key}")
            self._by_key[key] = rec

    def get(self, player_id: str, fixture_id: str) -> PlayerMatchStats | None:
        return self._by_key.get((player_id, fixture_id))

    def records(self) -> Iterable[PlayerMatchStats]:
        return self._by_key.values()

    def __len__(self) -> int:
        return len(self._by_key)


@dataclass(frozen=True)
class OddsRecord:
    """Exact-scoreline decimal odds quoted for one fixture."""

    fixture_id: str
    scoreline_odds: Mapping[tuple[int, int], float]


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of fixtures, stats and odds with a train/test cut.

    Fixtures are sorted by (kickoff, fixture_id); ``split_index`` leaves
    exactly the configured number of test fixtures after it.
    """

    fixtures: tuple[Fixture, ...]
    stats: StatsArchive
    odds: Mapping[str, OddsRecord]
    split_index: int

    @property
    def train_fixtures(self) -> tuple[Fixture, ...]:
        return self.fixtures[: self.split_index]

    @property
    def test_fixtures(self) -> tuple[Fixture, ...]:
        return self.fixtures[self.split_index :]


def _require(row: Mapping[str, str], col: str, rownum: int) -> str:
    value = row.get(col)
    if value is None or value.strip() == "":
        raise ParseError(rownum, f"missing value for {col!r}")
    return value.strip()


def _parse_lineup(raw: str, fixture_id: str) -> tuple[str, ...] | None:
    raw = raw.strip()
    if not raw:
        return None
    players = tuple(p.strip() for p in raw.split(";") if p.strip())
    if len(players) != LINEUP_SIZE or len(set(players)) != LINEUP_SIZE:
        raise MalformedLineup(fixture_id, f"got {len(players)} entries")
    return players


def load_fixtures(path: str | Path, require_goals: bool = True) -> list[Fixture]:
    """Load fixtures sorted chronologically; duplicates are rejected."""
    fixtures: dict[str, Fixture] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in FIXTURE_COLUMNS if c not in header]
        if missing:
            raise ParseError(1, f"fixtures file missing columns {missing}")
        for rownum, row in enumerate(reader, start=2):
            fid = _require(row, "fixture_id", rownum)
            if fid in fixtures:
                raise DuplicateFixture(fid)
            try:
                season = int(_require(row, "season", rownum))
            except ValueError:
                raise ParseError(rownum, f"season {row.get('season')!r} is not an integer")
            try:
                kickoff = datetime.fromisoformat(_require(row, "kickoff", rownum))
            except ValueError:
                raise ParseError(rownum, f"kickoff {row.get('kickoff')!r} is not ISO 8601")
            home = _require(row, "home_team", rownum)
            away = _require(row, "away_team", rownum)
            if home == away:
                raise ParseError(rownum, f"home and away team are both {home!r}")

            goals: dict[str, int | None] = {}
            for col in ("home_goals", "away_goals"):
                raw = (row.get(col) or "").strip()
                if not raw:
                    if require_goals:
                        raise ParseError(rownum, f"missing value for {col!r}")
                    goals[col] = None
                    continue
                try:
                    value = int(raw)
                except ValueError:
                    raise ParseError(rownum, f"{col} {raw!r} is not an integer")
                if value < 0:
                    raise ParseError(rownum, f"{col} must be non-negative, got {value}")
                goals[col] = value

            fixtures[fid] = Fixture(
                fixture_id=fid,
                season=season,
                kickoff=kickoff,
                home_team=home,
                away_team=away,
                home_goals=goals["home_goals"],
                away_goals=goals["away_goals"],
                home_lineup=_parse_lineup(row.get("home_lineup") or "", fid),
                away_lineup=_parse_lineup(row.get("away_lineup") or "", fid),
            )
    return sorted(fixtures.values(), key=lambda f: (f.kickoff, f.fixture_id))


def load_player_stats(path: str | Path, fixtures: Iterable[Fixture]) -> StatsArchive:
    """Load the long-format stats file against already-loaded fixtures.

    Every record must reference a known fixture; raw stat values must be
    finite and non-negative. Stat names outside the schema are retained.
    """
    known = {f.fixture_id for f in fixtures}
    stats: dict[tuple[str, str], dict[str, float]] = {}
    groups: dict[tuple[str, str], str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in STATS_COLUMNS if c not in header]
        if missing:
            raise ParseError(1, f"stats file missing columns {missing}")
        for rownum, row in enumerate(reader, start=2):
            pid = _require(row, "player_id", rownum)
            fid = _require(row, "fixture_id", rownum)
            if fid not in known:
                raise UnknownFixture(fid)
            group = _require(row, "position_group", rownum)
            if group not in POSITION_GROUPS:
                raise ParseError(rownum, f"position_group {group!r} not in {POSITION_GROUPS}")
            stat = _require(row, "stat_name", rownum)
            try:
                value = float(_require(row, "value", rownum))
            except ValueError:
                raise ParseError(rownum, f"value {row.get('value')!r} is not a number")
            if not math.isfinite(value):
                raise ParseError(rownum, f"stat {stat!r} is not finite")
            if value < 0:
                raise NegativeStat(pid, stat)

            key = (pid, fid)
            if key in groups and groups[key] != group:
                raise ParseError(rownum, f"conflicting position_group for {key}")
            groups[key] = group
            record = stats.setdefault(key, {})
            if stat in record:
                raise ParseError(rownum, f"duplicate stat {stat!r} for {key}")
            record[stat] = value

    return StatsArchive(
        PlayerMatchStats(player_id=pid, fixture_id=fid, position_group=groups[(pid, fid)], stats=vals)
        for (pid, fid), vals in stats.items()
    )


def load_odds(path: str | Path, fixtures: Iterable[Fixture]) -> dict[str, OddsRecord]:
    """Load exact-scoreline odds keyed by fixture id.

    Scorelines without quotes are simply absent from each map.
    """
    known = {f.fixture_id for f in fixtures}
    book: dict[str, dict[tuple[int, int], float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ODDS_COLUMNS if c not in header]
        if missing:
            raise ParseError(1, f"odds file missing columns {missing}")
        for rownum, row in enumerate(reader, start=2):
            fid = _require(row, "fixture_id", rownum)
            if fid not in known:
                raise UnknownFixture(fid)
            try:
                hg = int(_require(row, "home_goals", rownum))
                ag = int(_require(row, "away_goals", rownum))
            except ValueError:
                raise ParseError(rownum, "scoreline goals must be integers")
            if hg < 0 or ag < 0:
                raise ParseError(rownum, f"scoreline ({hg},{ag}) has negative goals")
            try:
                odds = float(_require(row, "odds", rownum))
            except ValueError:
                raise ParseError(rownum, f"odds {row.get('odds')!r} is not a number")
            if not math.isfinite(odds) or odds <= 1.0:
                raise OddsNotPositive(fid, (hg, ag))
            quotes = book.setdefault(fid, {})
            if (hg, ag) in quotes:
                raise ParseError(rownum, f"duplicate quote for {fid!r} scoreline ({hg},{ag})")
            quotes[(hg, ag)] = odds
    return {fid: OddsRecord(fixture_id=fid, scoreline_odds=quotes) for fid, quotes in book.items()}


def chronological_split(
    fixtures: Iterable[Fixture], test_size: int
) -> tuple[list[Fixture], list[Fixture]]:
    """Split into train plus the last ``test_size`` fixtures by kickoff.

    Deterministic: ties in kickoff break on fixture_id.
    """
    ordered = sorted(fixtures, key=lambda f: (f.kickoff, f.fixture_id))
    if test_size >= len(ordered):
        raise TestTooLarge(test_size, len(ordered))
    cut = len(ordered) - test_size
    return ordered[:cut], ordered[cut:]


def load_dataset(data_dir: str | Path, test_size: int = 100) -> Dataset:
    """Load fixtures.csv, player_stats.csv and odds.csv from a directory."""
    data_dir = Path(data_dir)
    fixtures = load_fixtures(data_dir / "fixtures.csv")
    train, test = chronological_split(fixtures, test_size)
    ordered = tuple(train + test)
    archive = load_player_stats(data_dir / "player_stats.csv", ordered)
    odds = load_odds(data_dir / "odds.csv", ordered)
    return Dataset(fixtures=ordered, stats=archive, odds=odds, split_index=len(train))


def _fmt(value: float) -> str:
    # repr keeps round-trip exactness; integers drop the trailing .0
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def save_fixtures(fixtures: Iterable[Fixture], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIXTURE_COLUMNS)
        for f in fixtures:
            writer.writerow(
                [
                    f.fixture_id,
                    f.season,
                    f.kickoff.isoformat(),
                    f.home_team,
                    f.away_team,
                    "" if f.home_goals is None else f.home_goals,
                    "" if f.away_goals is None else f.away_goals,
                    ";".join(f.home_lineup) if f.home_lineup else "",
                    ";".join(f.away_lineup) if f.away_lineup else "",
                ]
            )


def save_player_stats(archive: StatsArchive, path: str | Path) -> None:
    rows = []
    for rec in archive.records():
        for stat, value in rec.stats.items():
            rows.append((rec.player_id, rec.fixture_id, rec.position_group, stat, value))
    rows.sort()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_COLUMNS)
        for pid, fid, group, stat, value in rows:
            writer.writerow([pid, fid, group, stat, _fmt(value)])


def save_odds(odds: Mapping[str, OddsRecord], path: str | Path) -> None:
    rows = []
    for fid in sorted(odds):
        for (hg, ag), quote in sorted(odds[fid].scoreline_odds.items()):
            rows.append((fid, hg, ag, quote))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ODDS_COLUMNS)
        for fid, hg, ag, quote in rows:
            writer.writerow([fid, hg, ag, _fmt(quote)])
