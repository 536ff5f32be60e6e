"""Loading, validation and chronological partitioning of match data.

All three inputs are UTF-8 CSV files with a header row:

* ``fixtures.csv``: one row per match. Kickoffs are ISO 8601 local times
  without a UTC offset. Lineups are semicolon-delimited player-id lists,
  exactly eleven distinct ids when present, empty when unknown.
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
from operator import itemgetter
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
DATA_FILES = ("fixtures.csv", "player_stats.csv", "odds.csv")


class IngestError(Exception):
    """Base class for data loading failures."""


class ParseError(IngestError):
    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


class NotUtf8(IngestError):
    """The decoder reads a file in chunks, so no row number is known."""

    def __init__(self, path, what: str, reason: str):
        self.path = path
        super().__init__(f"{what} file {path} is not UTF-8 text: {reason}")


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

    def __init__(self, records: Iterable[PlayerMatchStats] = ()):
        """An archive of a record list, which may hold each key once."""
        self._by_key: dict[tuple[str, str], PlayerMatchStats] = {}
        for rec in records:
            key = (rec.player_id, rec.fixture_id)
            if key in self._by_key:
                raise ParseError(0, f"duplicate record for {key}")
            self._by_key[key] = rec

    @classmethod
    def indexed(cls, by_key: dict[tuple[str, str], PlayerMatchStats]) -> StatsArchive:
        """An archive over an index already keyed by (player_id, fixture_id)."""
        archive = cls()
        archive._by_key = by_key
        return archive

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


def _rows(path: str | Path, columns: tuple[str, ...], what: str):
    """Yield ``(rownum, cells)`` for each record of a CSV file, the raw cells
    picked by header name in ``columns`` order.

    A name that heads several columns reads the last of them. Blank lines
    are skipped and not numbered: records count from 2, after the header.
    A short row reads ``""`` past its end, and extra cells are ignored.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rownum = 1  # the record being read: the header, then the data
        try:
            header = next(reader, [])
            last = {name: i for i, name in enumerate(header)}
            missing = [c for c in columns if c not in last]
            if missing:
                raise ParseError(1, f"{what} file missing columns {missing}")
            pick = itemgetter(*(last[c] for c in columns))
            pad = [""] * len(header)
            rownum = 2
            for cells in reader:
                if cells:
                    if len(cells) < len(pad):
                        cells += pad
                    yield rownum, pick(cells)
                    rownum += 1
        except csv.Error as exc:
            raise ParseError(rownum, f"unreadable {what} file: {exc}") from None
        except UnicodeDecodeError as exc:
            raise NotUtf8(path, what, exc.reason) from None


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a header and rows in the dialect every scoreline file uses."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _require(value: str, col: str, rownum: int) -> str:
    value = value.strip()
    if not value:
        raise ParseError(rownum, f"missing value for {col!r}")
    return value


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
    for rownum, cells in _rows(path, FIXTURE_COLUMNS, "fixtures"):
        fid, season, kickoff, home, away, *goal_cells, home_lineup, away_lineup = cells
        fid = _require(fid, "fixture_id", rownum)
        if fid in fixtures:
            raise DuplicateFixture(fid)
        try:
            season_no = int(_require(season, "season", rownum))
        except ValueError:
            raise ParseError(rownum, f"season {season!r} is not an integer")
        try:
            kickoff_at = datetime.fromisoformat(_require(kickoff, "kickoff", rownum))
        except ValueError:
            raise ParseError(rownum, f"kickoff {kickoff!r} is not ISO 8601")
        if kickoff_at.tzinfo is not None:
            raise ParseError(rownum, f"kickoff {kickoff!r} has a UTC offset; "
                                     "give local time without one")
        home = _require(home, "home_team", rownum)
        away = _require(away, "away_team", rownum)
        if home == away:
            raise ParseError(rownum, f"home and away team are both {home!r}")

        goals: list[int | None] = []
        for col, raw in zip(("home_goals", "away_goals"), goal_cells):
            raw = raw.strip()
            if not raw:
                if require_goals:
                    raise ParseError(rownum, f"missing value for {col!r}")
                goals.append(None)
                continue
            try:
                value = int(raw)
            except ValueError:
                raise ParseError(rownum, f"{col} {raw!r} is not an integer")
            if value < 0:
                raise ParseError(rownum, f"{col} must be non-negative, got {value}")
            goals.append(value)

        fixtures[fid] = Fixture(
            fixture_id=fid,
            season=season_no,
            kickoff=kickoff_at,
            home_team=home,
            away_team=away,
            home_goals=goals[0],
            away_goals=goals[1],
            home_lineup=_parse_lineup(home_lineup, fid),
            away_lineup=_parse_lineup(away_lineup, fid),
        )
    return sorted(fixtures.values(), key=lambda f: (f.kickoff, f.fixture_id))


def load_player_stats(path: str | Path, fixtures: Iterable[Fixture]) -> StatsArchive:
    """Load the long-format stats file against already-loaded fixtures.

    Every record must reference a known fixture; raw stat values must be
    finite and non-negative. Stat names outside the schema are retained.

    A record's key cells (player, fixture, group) are checked once per run
    of consecutive rows that repeat them verbatim: the run's first row
    passed those checks on the same cells. Rows in any order load the same
    archive, and every row's checks keep their order and messages.
    """
    known = {f.fixture_id: f.fixture_id for f in fixtures}
    valid_groups = {g: g for g in POSITION_GROUPS}
    records: dict[tuple[str, str], PlayerMatchStats] = {}
    names: dict[str, str] = {}  # raw stat_name cell -> its checked name
    last_pid = last_fid = last_group = None  # the raw key cells of the run being read
    for rownum, (pid, fid, group, stat, raw) in _rows(path, STATS_COLUMNS, "stats"):
        if pid != last_pid or fid != last_fid or group != last_group:
            last_pid, last_fid, last_group = pid, fid, group
            player = pid.strip()
            if not player:
                raise ParseError(rownum, "missing value for 'player_id'")
            fixture = fid.strip()
            if not fixture:
                raise ParseError(rownum, "missing value for 'fixture_id'")
            fixture_id = known.get(fixture)
            if fixture_id is None:
                raise UnknownFixture(fixture)
            position = group.strip()
            if not position:
                raise ParseError(rownum, "missing value for 'position_group'")
            position_group = valid_groups.get(position)
            if position_group is None:
                raise ParseError(rownum, f"position_group {position!r} not in {POSITION_GROUPS}")
            key = (player, fixture_id)
            held = records.get(key)
            if held is None:
                held = records[key] = PlayerMatchStats(player, fixture_id, position_group, {})
            # raised only after the row's stat and value checks, which come first
            conflict = held.position_group != position_group
            record = held.stats
        name = names.get(stat)
        if name is None:
            name = stat.strip()
            if not name:
                raise ParseError(rownum, "missing value for 'stat_name'")
            names[stat] = name
        try:
            value = float(raw)
        except ValueError:
            if raw.strip():
                raise ParseError(rownum, f"value {raw!r} is not a number")
            raise ParseError(rownum, "missing value for 'value'")
        if not 0.0 <= value < math.inf:
            if not math.isfinite(value):
                raise ParseError(rownum, f"stat {name!r} is not finite")
            raise NegativeStat(player, name)
        if conflict:
            raise ParseError(rownum, f"conflicting position_group for {key}")
        if name in record:
            raise ParseError(rownum, f"duplicate stat {name!r} for {key}")
        record[name] = value

    return StatsArchive.indexed(records)


def load_odds(path: str | Path, fixtures: Iterable[Fixture]) -> dict[str, OddsRecord]:
    """Load exact-scoreline odds keyed by fixture id.

    Scorelines without quotes are simply absent from each map.
    """
    known = {f.fixture_id for f in fixtures}
    book: dict[str, dict[tuple[int, int], float]] = {}
    for rownum, (fid, hg, ag, raw) in _rows(path, ODDS_COLUMNS, "odds"):
        fid = _require(fid, "fixture_id", rownum)
        if fid not in known:
            raise UnknownFixture(fid)
        try:
            hg = int(_require(hg, "home_goals", rownum))
            ag = int(_require(ag, "away_goals", rownum))
        except ValueError:
            raise ParseError(rownum, "scoreline goals must be integers")
        if hg < 0 or ag < 0:
            raise ParseError(rownum, f"scoreline ({hg},{ag}) has negative goals")
        try:
            odds = float(_require(raw, "odds", rownum))
        except ValueError:
            raise ParseError(rownum, f"odds {raw!r} is not a number")
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
    """Load the three DATA_FILES from a directory."""
    fixtures_csv, stats_csv, odds_csv = (Path(data_dir, name) for name in DATA_FILES)
    train, test = chronological_split(load_fixtures(fixtures_csv), test_size)
    ordered = tuple(train + test)
    archive = load_player_stats(stats_csv, ordered)
    odds = load_odds(odds_csv, ordered)
    return Dataset(fixtures=ordered, stats=archive, odds=odds, split_index=len(train))


def _fmt(value: float) -> str:
    # repr keeps round-trip exactness; integers drop the trailing .0
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def save_fixtures(fixtures: Iterable[Fixture], path: str | Path) -> None:
    write_csv(path, FIXTURE_COLUMNS, (
        [f.fixture_id, f.season, f.kickoff.isoformat(), f.home_team, f.away_team,
         f.home_goals, f.away_goals,
         ";".join(f.home_lineup) if f.home_lineup else "",
         ";".join(f.away_lineup) if f.away_lineup else ""]
        for f in fixtures))


def save_player_stats(archive: StatsArchive, path: str | Path) -> None:
    rows = sorted((rec.player_id, rec.fixture_id, rec.position_group, stat, value)
                  for rec in archive.records() for stat, value in rec.stats.items())
    write_csv(path, STATS_COLUMNS, (row[:4] + (_fmt(row[4]),) for row in rows))


def save_odds(odds: Mapping[str, OddsRecord], path: str | Path) -> None:
    write_csv(path, ODDS_COLUMNS, (
        [fid, hg, ag, _fmt(quote)]
        for fid in sorted(odds)
        for (hg, ag), quote in sorted(odds[fid].scoreline_odds.items())))
