"""The 52-feature stat schema shared by the lineup and team approaches.

A model row carries the scoring side's offensive position-group averages
(13 defender + 14 midfielder + 13 attacker stats) followed by the opposing
side's defensive averages (5 goalkeeper + 7 defender stats). The exact stat
names are configuration, not code: the default lives in
``data/default_schema.json`` and any file with the same shape can be passed
via ``--schema``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

OFFENSIVE_GROUPS = ("DF", "MF", "FW")
DEFENSIVE_GROUPS = ("GK", "DF")
OFFENSIVE_COUNTS = {"DF": 13, "MF": 14, "FW": 13}
DEFENSIVE_COUNTS = {"GK": 5, "DF": 7}
TOTAL_FEATURES = 52


class SchemaError(Exception):
    pass


@dataclass(frozen=True)
class FeatureSchema:
    """Stat names per position group, split into offensive and defensive."""

    offensive: dict[str, tuple[str, ...]]
    defensive: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for group, count in OFFENSIVE_COUNTS.items():
            names = self.offensive.get(group, ())
            if len(names) != count:
                raise SchemaError(f"offensive {group} needs {count} stats, got {len(names)}")
        for group, count in DEFENSIVE_COUNTS.items():
            names = self.defensive.get(group, ())
            if len(names) != count:
                raise SchemaError(f"defensive {group} needs {count} stats, got {len(names)}")
        all_names = self.offensive_names() + self.defensive_names()
        if len(set(all_names)) != TOTAL_FEATURES:
            raise SchemaError("schema stat names must be unique across all groups")

    def offensive_names(self) -> tuple[str, ...]:
        return tuple(s for g in OFFENSIVE_GROUPS for s in self.offensive[g])

    def defensive_names(self) -> tuple[str, ...]:
        return tuple(s for g in DEFENSIVE_GROUPS for s in self.defensive[g])

    def feature_names(self, side: str) -> tuple[str, ...]:
        """Column names for one side's matrix, 52 in fixture perspective.

        Bare names always refer to the home team and the ``away`` prefix to
        the away team, whichever side the row models. Layout is the scoring
        side's offensive block then the opponent's defensive block.
        """
        if side == "home":
            own, opp = "", "away "
        elif side == "away":
            own, opp = "away ", ""
        else:
            raise SchemaError(f"side must be 'home' or 'away', got {side!r}")
        offensive = [own + s for s in self.offensive_names()]
        defensive = [opp + s for s in self.defensive_names()]
        return tuple(offensive + defensive)

    def fingerprint(self) -> str:
        payload = {
            "offensive": {g: list(self.offensive[g]) for g in OFFENSIVE_GROUPS},
            "defensive": {g: list(self.defensive[g]) for g in DEFENSIVE_GROUPS},
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _from_mapping(raw) -> FeatureSchema:
    """The schema of a parsed JSON value: an object whose ``offensive`` and
    ``defensive`` objects map each group to a list of non-empty stat names."""
    if not isinstance(raw, dict):
        raise SchemaError(f"the top level must be a JSON object, not {type(raw).__name__}")
    parts = {}
    for part, groups in (("offensive", OFFENSIVE_GROUPS), ("defensive", DEFENSIVE_GROUPS)):
        section = raw.get(part)
        if not isinstance(section, dict):
            raise SchemaError(f"no {part} object")
        for group in groups:
            names = section.get(group)
            if not (isinstance(names, list)
                    and all(isinstance(name, str) and name for name in names)):
                raise SchemaError(f"{part} {group} must be a list of non-empty stat names")
        parts[part] = {group: tuple(section[group]) for group in groups}
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
