"""The 52-feature stat schema shared by the lineup and team approaches.

A model row carries the scoring side's offensive position-group averages
followed by the opposing side's defensive averages, in the layout that
``LAYOUT`` alone declares. The exact stat names are configuration, not code:
the default lives in ``data/default_schema.json`` and any file with the same
shape can be passed via ``--schema``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator, NamedTuple


# The row's parts in row order. Each names a schema field (and JSON key), the
# pool its groups average over, the scoring side's players (own) or the
# opponent's (opp), and each group's stat count, in row order.
Part = NamedTuple("Part", [("name", str), ("pool", str), ("counts", dict)])
LAYOUT = (Part("offensive", "own", {"DF": 13, "MF": 14, "FW": 13}),
          Part("defensive", "opp", {"GK": 5, "DF": 7}))


class SchemaError(Exception):
    pass


def _blocks(parts) -> Iterator[tuple[Part, str, object]]:
    """Each (part, group, the group's entry in ``parts[part.name]`` or ()) in
    row order; a part whose entry is not a dict raises SchemaError."""
    for part in LAYOUT:
        groups = parts.get(part.name)
        if not isinstance(groups, dict):
            raise SchemaError(f"no {part.name} object")
        for group in part.counts:
            yield part, group, groups.get(group, ())


@dataclass(frozen=True)
class FeatureSchema:
    """Stat names per position group, split into offensive and defensive."""

    offensive: dict[str, tuple[str, ...]]
    defensive: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for part, group, names in self.blocks():
            count = part.counts[group]
            if len(names) != count:
                raise SchemaError(f"{part.name} {group} needs {count} stats, got {len(names)}")
        names = [name for _part, _group, stats in self.blocks() for name in stats]
        if len(set(names)) != len(names):
            raise SchemaError("schema stat names must be unique across all groups")

    def blocks(self) -> Iterator[tuple[Part, str, tuple[str, ...]]]:
        """Each (part, group, stat names) of a row, in row order."""
        return _blocks(vars(self))

    def feature_names(self, side: str) -> tuple[str, ...]:
        """Column names for one side's matrix, 52 in fixture perspective.

        Bare names always refer to the home team and the ``away`` prefix to
        the away team, whichever side the row models. Layout is the scoring
        side's offensive block then the opponent's defensive block.
        """
        if side not in ("home", "away"):
            raise SchemaError(f"side must be 'home' or 'away', got {side!r}")
        away = "own" if side == "away" else "opp"  # the away team's pool
        return tuple(("away " if part.pool == away else "") + name
                     for part, _group, names in self.blocks() for name in names)

    def fingerprint(self) -> str:
        payload = {}
        for part, group, names in self.blocks():
            payload.setdefault(part.name, {})[group] = list(names)
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _from_mapping(raw) -> FeatureSchema:
    """The schema of a parsed JSON value: an object whose ``offensive`` and
    ``defensive`` objects map each group to a list of non-empty stat names."""
    if not isinstance(raw, dict):
        raise SchemaError(f"the top level must be a JSON object, not {type(raw).__name__}")
    parts = {}
    for part, group, names in _blocks(raw):
        if not (isinstance(names, list) and all(isinstance(name, str) and name for name in names)):
            raise SchemaError(f"{part.name} {group} must be a list of non-empty stat names")
        parts.setdefault(part.name, {})[group] = tuple(names)
    return FeatureSchema(**parts)


def load_schema(path: str | Path) -> FeatureSchema:
    """The schema in a JSON file; a file that is not one, or not valid
    JSON, raises SchemaError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _from_mapping(json.load(fh))
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise SchemaError(f"schema file {path} is not valid JSON: {exc}") from None
    except SchemaError as exc:
        raise SchemaError(f"schema file {path}: {exc}") from None


def default_schema() -> FeatureSchema:
    raw = resources.files("scoreline.data").joinpath("default_schema.json").read_text()
    return _from_mapping(json.loads(raw))
