"""Text / name / season / country normalizers.

Semantics are preserved exactly from the reference implementation (behavior
studied at /root/reference — reimplemented from scratch, not copied):

- ``normalize_name``        — reference ``normalizers/name_normalizer.py:14-26``
- ``normalize_season``      — reference ``normalizers/season_normalizer.py:10-36``
- ``normalize_competition`` — reference ``normalizers/competition_normalizer.py:12-19``
- ``normalize_country``     — reference ``normalizers/nationality_normalizer.py:11-15``
- ``apply_team_alias``      — reference ``matchers/teams_matcher.py:29-33``

These are the per-record "extractor" semantics the parity tests pin
byte-for-byte; the serial oracle and the distributed stages call the same
scalar functions.
"""

from __future__ import annotations

import re
import unicodedata

_PUNCT_RE = re.compile(r"[^\w\s]")
_WS_RE = re.compile(r"\s+")
# alias expansion applied after punctuation stripping; list form so users can
# extend it (mirrors the reference's ALIAS_PATTERNS single entry).
NAME_ALIAS_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"\bfc\b"), "football club"),
]

# default config mirrored from the reference's config/ YAML files
COMPETITION_SPONSOR_PHRASES: tuple[str, ...] = (
    "presented by",
    "powered by",
    "sponsored by",
)
COUNTRY_MAP: dict[str, str] = {
    "brazil": "Brazil",
    "brasil": "Brazil",
    "br": "Brazil",
    "bra": "Brazil",
    "england": "England",
    "en": "England",
    "usa": "USA",
    "united states": "USA",
    "germany": "Germany",
}
TEAM_NAME_ALIASES: dict[str, str] = {
    "man city": "manchester city",
    "city fc": "city football club",
}


def normalize_name(name: str | None) -> str:
    """NFKD → strip combining marks → lower/strip → punct→space → collapse ws
    → ``\\bfc\\b``→"football club" → collapse ws again."""
    if not name:
        return ""
    text = unicodedata.normalize("NFKD", name)
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    text = text.lower().strip()
    text = _PUNCT_RE.sub(" ", text)
    text = _WS_RE.sub(" ", text)
    for pattern, replacement in NAME_ALIAS_PATTERNS:
        if pattern.search(text):
            text = pattern.sub(replacement, text)
    text = _WS_RE.sub(" ", text)
    return text


_SEASON_RANGE_RE = re.compile(r"(?P<start>\d{2,4})\s*[-/]\s*(?P<end>\d{2,4})")
_SEASON_YEAR_RE = re.compile(r"(?P<year>\d{4})")


def _expand_year(fragment: str, reference_start: int | None = None) -> int:
    if len(fragment) == 4:
        return int(fragment)
    value = int(fragment)
    if reference_start is not None:
        # 2-digit end year inherits the start year's century
        return int(f"{str(reference_start)[:2]}{fragment}")
    # 2-digit seasons assumed modern (2000s) unless > 30
    return 2000 + value if value <= 30 else 1900 + value


def normalize_season(season_name: str | None) -> tuple[int | None, int | None]:
    """Parse a season label into ``(start_year, end_year)``.

    ``"2020/21" → (2020, 2021)``; ``"20-21" → (2020, 2021)``;
    ``"2020" → (2020, 2021)``; unparseable → ``(None, None)``;
    ``end < start`` → ``end = start + 1``.
    """
    if not season_name:
        return None, None
    m = _SEASON_RANGE_RE.search(season_name)
    if m:
        start = _expand_year(m.group("start"))
        end = _expand_year(m.group("end"), reference_start=start)
        if end < start:
            end = start + 1
        return start, end
    m = _SEASON_YEAR_RE.search(season_name)
    if m:
        year = int(m.group("year"))
        return year, year + 1
    return None, None


def normalize_competition(
    name: str | None,
    sponsor_phrases: tuple[str, ...] = COMPETITION_SPONSOR_PHRASES,
) -> str:
    """lower → remove sponsor phrases (plain substring) → collapse ws → strip."""
    if not name:
        return ""
    lowered = name.lower()
    for phrase in sponsor_phrases:
        lowered = lowered.replace(phrase, "")
    return _WS_RE.sub(" ", lowered).strip()


def normalize_country(value: str | None, country_map: dict[str, str] = COUNTRY_MAP) -> str:
    """Case-insensitive lookup in the country alias map, identity otherwise."""
    if not value:
        return ""
    return country_map.get(value.lower(), value)


def apply_team_alias(name: str, aliases: dict[str, str] = TEAM_NAME_ALIASES) -> str:
    """Lowercase lookup in the team-alias map; identity when absent."""
    return aliases.get(name.lower(), name)
