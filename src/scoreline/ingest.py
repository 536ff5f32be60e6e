"""Loading, validation and chronological partitioning of match data.

All three inputs are UTF-8 CSV files with a header row:

* ``fixtures.csv``: one row per match. Kickoffs are ISO 8601 local times
  without a UTC offset. Lineups are semicolon-delimited player-id lists,
  exactly eleven distinct ids when present, empty when unknown; no player
  is in both lineups of one fixture.
* ``player_stats.csv``: long format (player_id, fixture_id, position_group,
  stat_name, value). The stat schema is open; unknown stat names are kept
  verbatim.
* ``odds.csv``: long format (fixture_id, home_goals, away_goals, odds) with
  decimal odds for exact scorelines.

A leading byte-order mark is accepted. Loading is strict: malformed rows
fail with the row number. The stats file, the largest, is read whole into
columns before its rows are checked (see :func:`load_player_stats`); a
column keeps one code a row, in the narrowest unsigned type that holds its
distinct cells. A large plain stats file is read in byte ranges, one per
usable CPU, in forked children, and each range in blocks: one cut makes
both (see :func:`_line_starts`), and one join merges the blocks of a range
and the ranges of the file (see :func:`_join`). Every other read is
single-threaded. The resulting :class:`Dataset` is immutable and safe to
read from any number of workers.
"""

from __future__ import annotations

import codecs
import csv
import functools
import math
import os
from dataclasses import dataclass
from datetime import datetime
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping

import numpy as np

from .regress import workers

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
        self.path, self.what, self.reason = path, what, reason
        super().__init__(f"{what} file {path} is not UTF-8 text: {reason}")

    def __reduce__(self):  # a stats range read in a child sends it back
        return type(self), (self.path, self.what, self.reason)


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


# the one fixture order: by kickoff, ties broken on fixture_id
kickoff_order = attrgetter("kickoff", "fixture_id")


@dataclass(frozen=True)
class PlayerMatchStats:
    """One player's stat vector for one match."""

    player_id: str
    fixture_id: str
    position_group: str
    stats: Mapping[str, float]


class StatsArchive:
    """Player match records as columns, one entry a record.

    Record i is player ``player_ids[player[i]]`` in fixture
    ``fixture_ids[fixture[i]]``, in group ``group_names[group[i]]``. Its
    stats are ``layouts[kind[i]]``, codes into ``stat_names`` in the order
    the record lists them, and their values start at ``value[start[i]]``, in
    the same order; -0.0 is held as 0.0. The name lists are sorted and hold
    the names the records use; records go in (player, fixture) order.

    The stats reader builds an archive from columns; :meth:`of` builds one
    from a list of records.
    """

    def __init__(self, players, fixtures, groups, stat_names, stat, value, sizes):
        """An archive of records given as columns: ``players``, ``fixtures``
        and ``groups`` are each a sorted name list and a code per record;
        record i's stats are the next ``sizes[i]`` entries of ``stat`` and
        ``value``, where -0.0 is already 0.0 (a scan's sum starts from 0.0,
        so -0.0 adds as 0.0)."""
        (self.player_ids, self.player), (self.fixture_ids, self.fixture) = players, fixtures
        (self.group_names, self.group), self.stat_names = groups, stat_names
        self.start = np.cumsum(sizes) - sizes
        self.value = value
        self.layouts, self.kind = _layouts(stat, sizes, self.start)

    @classmethod
    def of(cls, records: Iterable[PlayerMatchStats] = ()) -> StatsArchive:
        """An archive of a record list, which may hold each key once."""
        records = sorted(records, key=attrgetter("player_id", "fixture_id"))
        keys = [(r.player_id, r.fixture_id) for r in records]
        for key, after in zip(keys, keys[1:]):
            if key == after:
                raise ParseError(0, f"duplicate record for {key}")
        names = sorted({name for r in records for name in r.stats})
        stat = {name: i for i, name in enumerate(names)}
        return cls(_codes([r.player_id for r in records]), _codes([r.fixture_id for r in records]),
                   _codes([r.position_group for r in records]), names,
                   np.array([stat[n] for r in records for n in r.stats], dtype=np.int32),
                   np.array([v for r in records for v in r.stats.values()], dtype=np.float64) + 0.0,
                   np.array([len(r.stats) for r in records], dtype=np.int64))

    def records(self) -> Iterator[PlayerMatchStats]:
        """Each record as a :class:`PlayerMatchStats`, made as it is read."""
        layouts = [[self.stat_names[code] for code in layout] for layout in self.layouts]
        for p, f, g, k, s in zip(*(a.tolist() for a in (
                self.player, self.fixture, self.group, self.kind, self.start))):
            names = layouts[k]
            yield PlayerMatchStats(self.player_ids[p], self.fixture_ids[f], self.group_names[g],
                                   dict(zip(names, self.value[s:s + len(names)].tolist())))

    def __len__(self) -> int:
        return len(self.player)


def _codes(cells: list[str], valid: Iterable[bool] | None = None) -> tuple[list[str], np.ndarray]:
    """The sorted distinct cells (those ``valid`` marks, if given), and each
    cell's index among them, or -1."""
    names = sorted(set(cells) if valid is None else {c for c, ok in zip(cells, valid) if ok})
    index = {name: i for i, name in enumerate(names)}
    return names, np.array([index.get(c, -1) for c in cells], dtype=np.int32)


def _code_dtype(count: int) -> np.dtype:
    """The narrowest unsigned type that holds the codes 0..count - 1."""
    return np.min_scalar_type(max(count - 1, 0))


def _layouts(stat: np.ndarray, sizes: np.ndarray, start: np.ndarray
             ) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The distinct layouts of records whose stat codes are ``stat`` cut
    into runs of ``sizes`` at ``start``, and each record's layout index.
    Records are compared in groups of one size."""
    kind = np.zeros(len(sizes), dtype=np.int32)
    layouts: list[tuple[int, ...]] = []
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        recs = np.flatnonzero(sizes == size)
        table = np.empty((size, len(recs)), dtype=stat.dtype)  # one row per stat place
        for j in range(size):
            table[j] = stat[start[recs] + j]
        first, inverse = _distinct_columns(table)
        kind[recs] = len(layouts) + inverse
        layouts += map(tuple, table[:, first].T.tolist())
    return layouts, kind


def _distinct_columns(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a 2-D integer table read by columns, one column index of each
    distinct column, and each column's index among the distinct columns.

    Columns are sorted whole, and each run of equal columns is one distinct
    column (with no rows, all columns are equal).
    """
    if len(table) == 1:
        return _first_and_inverse(table[0])
    order = np.lexsort(table) if len(table) else np.arange(table.shape[1])
    ranked = table[:, order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _first_and_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One index of each distinct key of a 1-D array, and each key's index
    among the distinct keys."""
    inverse = np.unique(keys, return_inverse=True)[1].reshape(-1)
    first = np.empty(inverse.max(initial=-1) + 1, dtype=np.int64)
    first[inverse] = np.arange(len(inverse))
    return first, inverse


@dataclass(frozen=True)
class OddsRecord:
    """Exact-scoreline decimal odds quoted for one fixture."""

    fixture_id: str
    scoreline_odds: Mapping[tuple[int, int], float]


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of fixtures, stats and odds with a train/test cut.

    Fixtures are sorted by (kickoff, fixture_id); ``split_index`` leaves
    exactly the configured number of test fixtures after it. ``odds`` is
    None when the odds file was not read.
    """

    fixtures: tuple[Fixture, ...]
    stats: StatsArchive
    odds: Mapping[str, OddsRecord] | None
    split_index: int

    @property
    def train_fixtures(self) -> tuple[Fixture, ...]:
        return self.fixtures[: self.split_index]

    @property
    def test_fixtures(self) -> tuple[Fixture, ...]:
        return self.fixtures[self.split_index :]


def _pick(header: list[str], columns: tuple[str, ...], what: str) -> list[int]:
    """The index of each of ``columns`` in ``header``: the last, for a
    name given twice."""
    last = {name: i for i, name in enumerate(header)}
    missing = [c for c in columns if c not in last]
    if missing:
        raise ParseError(1, f"{what} file missing columns {missing}")
    return [last[c] for c in columns]


def _rows(path: str | Path, columns: tuple[str, ...], what: str):
    """Yield ``(rownum, cells)`` for each record of a CSV file, the raw cells
    picked by header name in ``columns`` order.

    A name that heads several columns reads the last of them. Blank lines
    are skipped and not numbered: records count from 2, after the header.
    A short row reads ``""`` past its end, and extra cells are ignored. A
    leading byte-order mark is dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rownum = 1  # the record being read: the header, then the data
        try:
            header = next(reader, [])
            pick = itemgetter(*_pick(header, columns, what))
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


# A factorized column: its distinct raw cells (bytes, until the plain reader
# decodes them), and each row's index among them, in the narrowest unsigned
# type that holds them (see _code_dtype).
Column = tuple[list, np.ndarray]

# The plain reader's working arrays grow with its block, not with the file;
# what outlives a block is its distinct cells and a code a row, joined per
# byte range at the range's end. Blocks of at most about 128 KB keep the
# working arrays near malloc's mmap threshold: freeing larger ones raises
# that threshold for the rest of the process, and the runs of a 10-club
# league then held about 1 MB more at their peak.
BLOCK_BYTES = 1 << 17
# A plain file's data lines are read in byte ranges of at least about
# RANGE_BYTES, one per usable CPU: each range past the first costs a fork,
# a pickled result and a join, and on a 2-vCPU host two ranges of a
# 0.94 MB stats file read no faster than one.
RANGE_BYTES = 1 << 20
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(8)], dtype=np.uint64)


def _read_columns(path: str | Path, columns: tuple[str, ...], what: str
                  ) -> tuple[list[Column], ParseError | None]:
    """The picked columns of every record, factorized, and the error that
    stopped the reading early, if any: the records before it are whole.

    A plain file (see :func:`_plain_columns`) is split with NumPy, any
    other is read through ``csv.reader`` (see :func:`_rows`); both read the
    same cells and number the same rows.
    """
    plain = _plain_columns(path, columns, what)
    if plain is not None:
        return plain, None
    seen: list[dict[str, int]] = [{} for _ in columns]
    codes: list[list[int]] = [[] for _ in columns]
    stopped = None
    try:
        for _rownum, cells in _rows(path, columns, what):
            for cell, index, out in zip(cells, seen, codes):
                out.append(index.setdefault(cell, len(index)))
    except ParseError as exc:
        if exc.row == 1:  # the header: no record was read
            raise
        stopped = exc
    return [(list(index), np.array(out, dtype=_code_dtype(len(index))))
            for index, out in zip(seen, codes)], stopped


def _line_starts(fh, start: int, end: int, parts: int) -> list[int]:
    """The bounds of ``parts`` runs of whole lines of a binary file between
    ``start`` and ``end``, two line starts (or ``end`` the file's end):
    each inner bound is the first line start at or after an even cut of
    the bytes. A bound met again is dropped, so a line longer than a run
    makes no empty run, and no bytes make no run."""
    bounds = [start]
    for g in range(1, parts + 1):
        fh.seek(start + (end - start) * g // parts - 1)  # the byte before the cut
        fh.readline()
        if fh.tell() > bounds[-1]:
            bounds.append(fh.tell())
    return bounds


def _plain(block: bytes) -> bool:
    """Whether a block of lines ends in ``\\n`` and has no ``"``, no NUL and
    no ``\\r`` outside a ``\\r\\n``."""
    return block.endswith(b"\n") and b'"' not in block and b"\0" not in block \
        and (b"\r" not in block or block.count(b"\r") == block.count(b"\r\n"))


def _remap(index: dict[bytes, int], cells: list[bytes]) -> np.ndarray:
    """Each cell's code in ``index``, which gains the cells it lacks in
    turn, in the narrowest unsigned type that holds every code of it."""
    remap = [index.setdefault(cell, len(index)) for cell in cells]
    return np.array(remap, dtype=_code_dtype(len(index)))


def _join(parts: Iterable[Column]) -> Column:
    """One column of factorized parts in file order: the parts' cells in
    the order first met, each part remapped (see :func:`_remap`), and the
    codes joined in the narrowest unsigned type that holds them."""
    index: dict[bytes, int] = {}
    codes = [_remap(index, cells)[part] for cells, part in parts]
    dtype = _code_dtype(len(index))
    return list(index), np.concatenate([np.zeros(0, dtype), *codes], dtype=dtype)


def _plain_columns(path: str | Path, columns: tuple[str, ...], what: str) -> list[Column] | None:
    """The picked columns of a plain CSV file, factorized; None if the file
    is not plain.

    A plain file has no ``"`` and no NUL (which ``csv.reader`` refuses
    before Python 3.11), ends every line in ``\\n`` or ``\\r\\n`` (the last
    may lack its end, as ``csv.reader`` allows), has as
    many commas on every line as its header, and no cell longer than
    ``csv.field_size_limit()`` bytes: ``csv.reader`` would split each of its
    lines at the commas. Every block is decoded before its cells are read,
    so a file that is not UTF-8 fails here as it would in ``csv.reader``.

    The data lines are cut into byte ranges of whole lines (see
    :func:`_line_starts`): one per group of ``workers.split``, but none
    under about RANGE_BYTES. This process reads the first and a forked
    child each other (see :func:`_range_columns`), and the ranges' columns
    are joined in file order (see :func:`_join`); each distinct cell is
    decoded once, after the join. The first range that is not plain or not
    UTF-8 decides the read, so any number of ranges reads a file as one
    range does.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        start, end = fh.tell(), fh.seek(0, os.SEEK_END)
        if not _plain(head):
            return None
        try:
            header = head.removeprefix(codecs.BOM_UTF8).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NotUtf8(path, what, exc.reason) from None
        header = header.removesuffix("\n").removesuffix("\r").split(",")
        pick = _pick(header, columns, what)
        if max(map(len, header)) > csv.field_size_limit():
            return None
        bounds = _line_starts(fh, start, end, len(workers.split((end - start) // RANGE_BYTES)))
    read = functools.partial(_range_columns, path, what, len(header), pick)
    ranges = workers.run_groups(read, list(zip(bounds, bounds[1:])) or [(start, end)])
    for outcome in ranges:
        if outcome is None:
            return None
        if isinstance(outcome, NotUtf8):
            raise outcome
    return [([cell.decode("utf-8") for cell in cells], codes)
            for cells, codes in map(_join, zip(*ranges))]


def _range_columns(path: str | Path, what: str, width: int, pick: list[int], span: tuple[int, int]
                   ) -> list[Column] | NotUtf8 | None:
    """The picked columns of the data lines in the byte range ``span`` of a
    file whose header has ``width`` cells, factorized: each column's
    distinct cells, as bytes, and its codes into them. The range is cut
    into blocks of whole lines of about BLOCK_BYTES each (see
    :func:`_line_starts`), each block factorized alone and the blocks
    joined (see :func:`_join`). None if a block is not plain, and the
    NotUtf8 error if one is not UTF-8 (the first such block decides)."""
    limit = csv.field_size_limit()
    parts: list[list[Column]] = [[] for _ in pick]
    with open(path, "rb") as fh:
        bounds = _line_starts(fh, *span, math.ceil((span[1] - span[0]) / BLOCK_BYTES))
        for lo, hi in zip(bounds, bounds[1:]):
            fh.seek(lo)
            block = fh.read(hi - lo)
            if not block.endswith(b"\n"):  # the file's last line, which may lack its end
                block += b"\n"
            if not _plain(block):
                return None
            try:
                block.isascii() or block.decode("utf-8")
            except UnicodeDecodeError as exc:
                return NotUtf8(path, what, exc.reason)
            buf = np.frombuffer(block + bytes(8), dtype=np.uint8)  # 8 bytes past every cell
            body = buf[:-8]
            ends = np.flatnonzero(body == ord("\n"))
            commas = np.flatnonzero(body == ord(","))
            if len(commas) != (width - 1) * len(ends):
                return None
            # each line's separators: the newline before it, its commas, its newline
            cuts = [np.append(-1, ends[:-1]), *commas.reshape(len(ends), -1).T, ends]
            if (cuts[1] <= cuts[0]).any() or (cuts[-2] >= cuts[-1]).any():
                return None  # a line holds another line's commas
            if (ends - cuts[0]).max() > limit + 1 \
                    and max((b - a).max() for a, b in zip(cuts, cuts[1:])) > limit + 1:
                return None  # a cell is over the limit
            words = np.ndarray((len(body) + 1,), dtype="<u8", buffer=buf, strides=(1,))
            for at, out in zip(pick, parts):
                size = cuts[at + 1] - cuts[at] - 1
                if at == width - 1:
                    size -= body[ends - 1] == ord("\r")
                out.append(_factorize(block, words, cuts[at] + 1, size))
    return [_join(out) for out in parts]


def _factorize(block: bytes, words: np.ndarray, start: np.ndarray, size: np.ndarray) -> Column:
    """The distinct cells among ``block[start[i]:start[i] + size[i]]``, as
    bytes, and each cell's index among them.

    ``words[j]`` is the little-endian 64-bit word of ``block[j:j + 8]``. A
    cell's key is its bytes as ``size // 8 + 1`` words, zero past the cell;
    as a plain file has no NUL, two cells have one key only if they are
    equal. Cells are sorted by key one word count at a time, and a run of
    equal cells (a record's key cells) only once.
    """
    nwords = size // 8 + 1
    counts = np.bincount(nwords)
    codes = np.empty(len(start), dtype=np.int32)
    cells: list[bytes] = []
    for w in np.flatnonzero(counts).tolist():
        rows = np.flatnonzero(nwords == w) if counts[w] < len(start) else slice(None)
        at, tail = start[rows], size[rows] - 8 * (w - 1)
        key = np.empty((w, len(at)), dtype=np.uint64)  # one row per word
        for j in range(w - 1):
            key[j] = words[at + 8 * j]
        key[-1] = words[at + 8 * (w - 1)] & _LOW_BYTES[tail]
        head = np.zeros(len(at), dtype=bool)
        head[0] = True
        for word in key:
            head[1:] |= word[1:] != word[:-1]
        first, inverse = _distinct_columns(key[:, head])
        codes[rows] = (len(cells) + inverse)[np.cumsum(head) - 1]
        first = np.flatnonzero(head)[first]
        cells += [block[a:a + n]
                  for a, n in zip(at[first].tolist(), (tail[first] + 8 * (w - 1)).tolist())]
    return cells, codes.astype(_code_dtype(len(cells)))


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

        home_lineup, away_lineup = _parse_lineup(home_lineup, fid), _parse_lineup(away_lineup, fid)
        shared = [player for player in home_lineup or () if player in (away_lineup or ())]
        if shared:
            raise MalformedLineup(fid, f"player {shared[0]!r} listed for both sides")
        fixtures[fid] = Fixture(
            fixture_id=fid,
            season=season_no,
            kickoff=kickoff_at,
            home_team=home,
            away_team=away,
            home_goals=goals[0],
            away_goals=goals[1],
            home_lineup=home_lineup,
            away_lineup=away_lineup,
        )
    return sorted(fixtures.values(), key=kickoff_order)


# The stats checks of one row, in the order it takes them.
(_NO_PLAYER, _NO_FIXTURE, _UNKNOWN_FIXTURE, _NO_GROUP, _BAD_GROUP, _NO_STAT,
 _NOT_A_NUMBER, _NOT_FINITE, _NEGATIVE, _PASSED) = range(10)


def load_player_stats(path: str | Path, fixtures: Iterable[Fixture]) -> StatsArchive:
    """Load the long-format stats file against already-loaded fixtures.

    Every record must reference a known fixture; raw stat values must be
    finite and non-negative. Stat names outside the schema are retained.

    The whole file is read into factorized columns before any row is
    checked. Each cell check runs once per distinct raw cell; a record's
    conflicting groups and repeated stats are found as masks over the rows.
    The error raised is the first failing row's and, of the checks it
    fails, the first in row order: player, fixture (missing, then unknown),
    group (missing, then invalid), stat name, value (missing or not a
    number, not finite, negative), conflicting group, repeated stat.
    """
    columns, stopped = _read_columns(path, STATS_COLUMNS, "stats")
    archive = _stats_archive(columns, {f.fixture_id for f in fixtures})
    if stopped is not None:
        raise stopped
    return archive


def _number(cell: str) -> tuple[float, int]:
    """A raw value cell's number and the first value check it fails."""
    try:
        value = float(cell)
    except ValueError:
        return 0.0, _NOT_A_NUMBER
    if not 0.0 <= value < math.inf:
        return 0.0, _NEGATIVE if math.isfinite(value) else _NOT_FINITE
    return value, _PASSED


def _stats_archive(columns: list[Column], known: Collection[str]) -> StatsArchive:
    """The archive of factorized stats columns, or the first failing row's
    error (see :func:`load_player_stats`)."""
    (pids, pid), (fids, fid), (groups, grp), (stats, stat), (raws, raw) = columns
    players, fixtures = [c.strip() for c in pids], [c.strip() for c in fids]
    groups, names = [c.strip() for c in groups], [c.strip() for c in stats]
    numbers = [_number(c) for c in raws]
    checks = [
        (pid, [_PASSED if p else _NO_PLAYER for p in players]),
        (fid, [_PASSED if f in known else _UNKNOWN_FIXTURE if f else _NO_FIXTURE
               for f in fixtures]),
        (grp, [_PASSED if g in POSITION_GROUPS else _BAD_GROUP if g else _NO_GROUP
               for g in groups]),
        (stat, [_PASSED if n else _NO_STAT for n in names]),
        (raw, [check for _value, check in numbers]),
    ]
    rows = limit = len(pid)  # the rows before ``limit`` pass every cell check
    failing = [np.array(cell, dtype=np.int8)[codes] for codes, cell in checks
               if min(cell, default=_PASSED) < _PASSED]
    if failing:
        fail = np.minimum.reduce(failing)
        limit = int(np.flatnonzero(fail < _PASSED)[0])
    (player_ids, player), (fixture_ids, fixture), (group_names, group), (stat_names, code) = (
        _codes(cells, [check == _PASSED for check in cell]) for cells, (_, cell) in
        zip((players, fixtures, groups, names), checks))
    pid, fid, grp, stat, raw = (codes[:limit] for codes, _cell in checks)

    # runs of rows that repeat their key cells, and the record of each
    new = np.ones(limit, dtype=bool)
    new[1:] = (pid[1:] != pid[:-1]) | (fid[1:] != fid[:-1]) | (grp[1:] != grp[:-1])
    heads = np.flatnonzero(new)
    lengths = np.diff(heads, append=limit)
    run_player, run_fixture, run_group = player[pid[heads]], fixture[fid[heads]], group[grp[heads]]
    _, first, record = np.unique(run_player.astype(np.int64) * len(fixture_ids) + run_fixture,
                                 return_index=True, return_inverse=True)
    record = record.reshape(-1)
    conflicts = heads[run_group != run_group[first][record]]
    # each record's rows, in file order: its runs in turn, summed in place
    # from steps of 1 and, at each run's first place, the jump to its head
    order = np.argsort(record, kind="stable")
    run_heads, run_lengths = heads[order], lengths[order]
    taken = np.ones(limit, dtype=np.min_scalar_type(-limit))
    taken[np.cumsum(run_lengths) - run_lengths] = run_heads - np.append(
        0, run_heads[:-1] + run_lengths[:-1] - 1)
    np.cumsum(taken, out=taken)
    sizes = np.bincount(record, weights=lengths, minlength=len(first)).astype(np.int64)
    # a failing cell's code -1 wraps, but no taken row holds one
    code = code.astype(_code_dtype(len(stat_names)))
    archive = StatsArchive(
        (player_ids, run_player[first]), (fixture_ids, run_fixture[first]),
        (group_names, run_group[first]), stat_names, code[stat[taken]],
        (np.array([value for value, _check in numbers]) + 0.0)[raw[taken]], sizes)

    found = []  # (row, the error of the row)
    if conflicts.size:
        at = int(conflicts[0])
        found.append((at, ParseError(at + 2, "conflicting position_group for "
                                             f"{(players[pid[at]], fixtures[fid[at]])}")))
    repeats = {k for k, layout in enumerate(archive.layouts) if len(set(layout)) < len(layout)}
    for r in np.flatnonzero(np.isin(archive.kind, list(repeats))).tolist():
        seen = set()
        for at in taken[archive.start[r]:archive.start[r] + sizes[r]].tolist():
            if code[stat[at]] in seen:
                found.append((at, ParseError(at + 2, f"duplicate stat {names[stat[at]]!r} for "
                                                     f"{(players[pid[at]], fixtures[fid[at]])}")))
                break
            seen.add(code[stat[at]])
    if found:
        raise min(found, key=itemgetter(0))[1]  # a conflict first, at one row
    if limit < rows:
        pid, fid, grp, stat, raw = (int(codes[limit]) for codes, _cell in checks)
        raise _row_error(int(fail[limit]), limit + 2, players[pid], fixtures[fid], groups[grp],
                         names[stat], raws[raw])
    return archive


def _row_error(check: int, rownum: int, player: str, fixture: str, group: str, stat: str,
               raw: str) -> IngestError:
    """The error of a row that fails ``check``, from its stripped cells and
    its raw value."""
    missing = {_NO_PLAYER: "player_id", _NO_FIXTURE: "fixture_id", _NO_GROUP: "position_group",
               _NO_STAT: "stat_name"}
    if check in missing:
        return ParseError(rownum, f"missing value for {missing[check]!r}")
    if check == _UNKNOWN_FIXTURE:
        return UnknownFixture(fixture)
    if check == _BAD_GROUP:
        return ParseError(rownum, f"position_group {group!r} not in {POSITION_GROUPS}")
    if check == _NOT_A_NUMBER:
        return ParseError(rownum, f"value {raw!r} is not a number" if raw.strip()
                          else "missing value for 'value'")
    if check == _NOT_FINITE:
        return ParseError(rownum, f"stat {stat!r} is not finite")
    return NegativeStat(player, stat)


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
    ordered = sorted(fixtures, key=kickoff_order)
    if test_size >= len(ordered):
        raise TestTooLarge(test_size, len(ordered))
    cut = len(ordered) - test_size
    return ordered[:cut], ordered[cut:]


def load_dataset(data_dir: str | Path, test_size: int = 100, odds: bool = True) -> Dataset:
    """Load the DATA_FILES from a directory; ``odds=False`` leaves odds.csv
    unread and the dataset's ``odds`` None."""
    fixtures_csv, stats_csv, odds_csv = (Path(data_dir, name) for name in DATA_FILES)
    train, test = chronological_split(load_fixtures(fixtures_csv), test_size)
    ordered = tuple(train + test)
    archive = load_player_stats(stats_csv, ordered)
    book = load_odds(odds_csv, ordered) if odds else None
    return Dataset(fixtures=ordered, stats=archive, odds=book, split_index=len(train))


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
