"""MovieLens-1M parsing, linked-data metadata fetching, and profile assembly.

Metadata flows through three layers with fixed precedence: manual override
records beat fetched linked-data results, which beat the bare dataset (genres
only). Fetching is a one-time batch step whose output is persisted to a
line-delimited record file, so evaluation runs never touch the network.
"""

from __future__ import annotations

import json
import logging
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .data import (
    MOVIELENS_GENRES,
    ItemId,
    MovieProfile,
    ProfileSource,
    Rating,
    RatingColumns,
)

logger = logging.getLogger(__name__)

OVERRIDE_ACTOR_CAP = 7

# transport(url, form_fields, headers) -> (status_code, body_bytes)
Transport = Callable[[str, dict[str, str], dict[str, str]], tuple[int, bytes]]


class FetchError(Exception):
    """A metadata request failed at the transport or HTTP level."""


@dataclass(frozen=True)
class SparqlMovieResult:
    """Aggregated rows for one movie: all directors, all starring actors."""

    film_title: str
    director_names: frozenset[str]
    star_names: frozenset[str]
    distinct_titles: int = 1


@dataclass(frozen=True)
class FetchLogEntry:
    status: str  # fetched-ok | not-found | fetch-failed | overridden | dataset-only
    multi_title: bool = False


@dataclass(frozen=True)
class ProfileStore:
    """All assembled movie profiles plus the provenance log."""

    profiles: dict[ItemId, MovieProfile]
    fetch_log: dict[ItemId, FetchLogEntry]

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self.profiles

    def __len__(self) -> int:
        return len(self.profiles)

    def get(self, item_id: ItemId) -> MovieProfile | None:
        return self.profiles.get(item_id)


# -- MovieLens file parsing -----------------------------------------------------


# Characters per parse block; each block is extended to the end of its last line.
_BLOCK_CHARS = 1 << 20
_INT64 = np.iinfo(np.int64)


def parse_ratings(path) -> RatingColumns:
    """Parse `UserID::MovieID::Rating::Timestamp` lines into columns, in file order.

    The file is read in blocks of whole lines. Each block's fields go through
    ``int`` into an int64 table, and the field count per line and the 1-5
    range are checked on arrays. Blank lines are skipped. A file that fails
    any check is rescanned line by line only to raise the error of its first
    bad line, as ``path: line N: ...``. Ids and timestamps must fit in 64
    bits.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blocks = iter(lambda: fh.read(_BLOCK_CHARS) + fh.readline(), "")
            tables = [_parse_block(block) for block in blocks]
        columns = RatingColumns(*np.concatenate([np.empty((4, 0), np.int64), *tables], axis=1))
    except (ValueError, OverflowError):
        columns = None
    if columns is None:
        _raise_first_error(path)
    if not columns:
        raise ValueError(f"{path}: no ratings found")
    return columns


def _parse_block(block: str) -> np.ndarray:
    """The (4, n) int64 fields of a block's non-blank lines; ValueError if a
    line does not have 4 fields or a field is not an integer."""
    lines = list(filter(None, block.split("\n")))
    seps = np.fromiter(map(str.count, lines, repeat("::")), dtype=np.int64, count=len(lines))
    if (seps != 3).any():
        raise ValueError("a line does not have 4 fields")
    # "::" never spans a line break, so these are the lines' fields in order.
    fields = "\n".join(lines).replace("::", "\n").split("\n") if lines else []
    table = np.fromiter(map(int, fields), dtype=np.int64, count=len(fields))
    return table.reshape(-1, 4).T


def _raise_first_error(path) -> NoReturn:
    """Rescan the file line by line and raise the error of its first bad line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 '::' fields, got {len(parts)}")
            try:
                user_id, item_id, value, ts = (int(p) for p in parts)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer field in {line!r}") from None
            try:
                Rating(user_id=user_id, item_id=item_id, value=value, timestamp=ts)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not all(_INT64.min <= f <= _INT64.max for f in (user_id, item_id, ts)):
                raise ValueError(f"{path}: line {lineno}: field out of 64-bit range in {line!r}")
    raise RuntimeError(f"{path}: block parse failed, but no line is at fault")


def parse_movies(path) -> dict[ItemId, tuple[str, tuple[str, ...]]]:
    """Parse `MovieID::Title::Genre1|Genre2` lines into item_id -> (title, genres).

    The file ships in a legacy single-byte encoding; decoding is lenient.
    Labels outside the known genre vocabulary are kept with a warning.
    """
    movies: dict[ItemId, tuple[str, tuple[str, ...]]] = {}
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 '::' fields, got {len(parts)}")
            raw_id, title, genre_field = parts
            try:
                item_id: ItemId = int(raw_id)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer movie id {raw_id!r}") from None
            if item_id in movies:
                raise ValueError(f"{path}: line {lineno}: duplicate movie id {item_id}")
            genres = tuple(g for g in genre_field.split("|") if g)
            if not genres:
                raise ValueError(f"{path}: line {lineno}: movie {item_id} has no genres")
            for g in genres:
                if g not in MOVIELENS_GENRES:
                    logger.warning("movie %s: unknown genre label %r (kept)", item_id, g)
            movies[item_id] = (title, genres)
    if not movies:
        raise ValueError(f"{path}: no movies found")
    return movies


def strip_year(title: str) -> str:
    """Drop a trailing ' (1995)'-style year marker, if present."""
    t = title.rstrip()
    if t.endswith(")") and "(" in t:
        head, _, tail = t.rpartition("(")
        if tail[:-1].strip().isdigit():
            return head.rstrip()
    return t


# -- SPARQL client ----------------------------------------------------------------

QUERY_TEMPLATE = """\
SELECT ?film_title ?star_name ?nameDirector {
  {
    SELECT DISTINCT ?movies ?film_title
    WHERE {
      ?movies rdf:type <http://dbpedia.org/ontology/Film>;
      rdfs:label ?film_title.
    }
  }.
  ?movies dbpedia-owl:starring ?star;
  dbpedia-owl:director ?director.
  ?director foaf:name ?nameDirector.
  ?star foaf:name ?star_name.

  FILTER ((str(?film_title) IN ("%s"))
  &&(LANGMATCHES(LANG(?film_title),"en")))
}
ORDER BY ?film_title
"""

_SPARQL_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


def _escape_sparql_string(text: str) -> str:
    out = []
    for ch in text:
        esc = _SPARQL_ESCAPES.get(ch)
        if esc is not None:
            out.append(esc)
        elif ord(ch) < 0x20:
            raise ValueError(f"title contains unescapable control character {ch!r}")
        else:
            out.append(ch)
    return "".join(out)


def build_sparql_query(title: str) -> str:
    """The film query with the given title substituted (and escaped) in the filter."""
    if not title:
        raise ValueError("title must be non-empty")
    return QUERY_TEMPLATE % _escape_sparql_string(title)


_SPARQL_NS = {"sr": "http://www.w3.org/2005/sparql-results#"}


def _byte_offset(body: bytes, line: int, column: int) -> int:
    lines = body.split(b"\n")
    return sum(len(l) + 1 for l in lines[: line - 1]) + column


def parse_sparql_xml(body: bytes) -> SparqlMovieResult | None:
    """Aggregate a SPARQL results-XML document into one SparqlMovieResult.

    The endpoint emits one row per (director, star) combination; directors
    and stars are collected into distinct sets. None means zero result rows.
    """
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        line, column = exc.position
        raise ValueError(
            f"malformed XML at byte {_byte_offset(body, line, column)}: {exc}"
        ) from None

    titles: list[str] = []
    directors: set[str] = set()
    stars: set[str] = set()
    rows = root.findall(".//sr:results/sr:result", _SPARQL_NS)
    for row in rows:
        for binding in row.findall("sr:binding", _SPARQL_NS):
            name = binding.get("name")
            value = "".join(binding.itertext()).strip()
            if not value:
                continue
            if name == "film_title":
                titles.append(value)
            elif name == "nameDirector":
                directors.add(value)
            elif name == "star_name":
                stars.add(value)
    if not rows:
        return None
    distinct_titles = len(set(titles)) if titles else 1
    return SparqlMovieResult(
        film_title=titles[0] if titles else "",
        director_names=frozenset(directors),
        star_names=frozenset(stars),
        distinct_titles=max(1, distinct_titles),
    )


def _requests_transport(url: str, fields: dict[str, str], headers: dict[str, str]):
    import requests

    try:
        resp = requests.post(url, data=fields, headers=headers, timeout=30)
    except requests.RequestException as exc:
        raise FetchError(f"POST {url} failed: {exc}") from exc
    return resp.status_code, resp.content


def fetch_profile(
    title: str, endpoint: str, transport: Transport | None = None
) -> SparqlMovieResult | None:
    """POST the title query to the endpoint and aggregate the XML response.

    Returns None when the endpoint knows no such film. Raises FetchError on
    transport failures or non-success status codes.
    """
    transport = transport or _requests_transport
    query = build_sparql_query(title)
    status, body = transport(
        endpoint,
        {"query": query},
        {"Accept": "application/sparql-results+xml"},
    )
    if not 200 <= status < 300:
        raise FetchError(f"endpoint returned status {status} for title {title!r}")
    return parse_sparql_xml(body)


@dataclass(frozen=True)
class FetchOutcome:
    """One movie's batch-fetch result, as persisted by `fetch-metadata`."""

    item_id: ItemId
    title: str
    status: str  # ok | not-found | failed
    directors: frozenset[str] = frozenset()
    actors: frozenset[str] = frozenset()
    multi_title: bool = False


def fetch_all(
    movies: Mapping[ItemId, tuple[str, tuple[str, ...]]],
    endpoint: str,
    transport: Transport | None = None,
    concurrency: int = 4,
    retries: int = 2,
    delay: float = 0.1,
    limit: int | None = None,
) -> list[FetchOutcome]:
    """Fetch metadata for every movie with bounded parallelism.

    Each movie is queried with its year-stripped title first and retried with
    the raw title on an empty result. Failures are recorded, never raised.
    Output is sorted by item id regardless of completion order.
    """
    todo = sorted(movies.items())[: limit if limit is not None else len(movies)]

    def one(entry: tuple[ItemId, tuple[str, tuple[str, ...]]]) -> FetchOutcome:
        item_id, (title, _genres) = entry
        result: SparqlMovieResult | None = None
        failed = False
        for candidate in _title_candidates(title):
            failed = False
            for attempt in range(retries + 1):
                if delay:
                    time.sleep(delay)
                try:
                    result = fetch_profile(candidate, endpoint, transport)
                    break
                except (FetchError, ValueError) as exc:
                    failed = True
                    logger.warning(
                        "movie %s (%r): attempt %d failed: %s",
                        item_id, candidate, attempt + 1, exc,
                    )
            if result is not None:
                break
        if result is None:
            return FetchOutcome(item_id, title, "failed" if failed else "not-found")
        return FetchOutcome(
            item_id,
            title,
            "ok",
            directors=result.director_names,
            actors=result.star_names,
            multi_title=result.distinct_titles > 1,
        )

    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        outcomes = list(pool.map(one, todo))
    return sorted(outcomes, key=lambda o: str(o.item_id))


def _title_candidates(title: str) -> list[str]:
    stripped = strip_year(title)
    return [stripped, title] if stripped != title else [title]


# -- overrides and assembly ------------------------------------------------------


def _read_records(path, required: tuple[str, ...]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a JSON-lines file.

    A line that is not a JSON object, lacks a ``required`` field, or has a
    feature list that is not an array of strings raises ValueError naming
    the file and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}: line {lineno}: record must be a JSON object")
            missing = [f for f in required if f not in record]
            if missing:
                raise ValueError(f"{path}: line {lineno}: record lacks {', '.join(missing)}")
            for field in ("genres", "directors", "actors"):
                labels = record.get(field, [])
                if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
                    raise ValueError(f"{path}: line {lineno}: {field} is not an array of strings")
            yield lineno, record


def load_overrides(
    path,
    known_items: set[ItemId] | None = None,
    actor_cap: int | None = OVERRIDE_ACTOR_CAP,
) -> list[MovieProfile]:
    """Load manually curated people metadata from a JSON-lines file.

    Actor lists longer than the cap keep only the first `actor_cap` entries
    in file order. Records for items outside `known_items` are skipped with
    a warning.
    """
    profiles: list[MovieProfile] = []
    for lineno, record in _read_records(path, required=("item_id",)):
        item_id = record["item_id"]
        if known_items is not None and item_id not in known_items:
            logger.warning("%s: line %d: unknown item %r, record skipped", path, lineno, item_id)
            continue
        actors = list(record.get("actors", []))
        if actor_cap is not None and len(actors) > actor_cap:
            actors = actors[:actor_cap]
        profiles.append(
            MovieProfile(
                item_id=item_id,
                title=record.get("title", ""),
                genres=frozenset(record.get("genres", [])),
                directors=frozenset(record.get("directors", [])),
                actors=frozenset(actors),
                source=ProfileSource.OVERRIDE,
            )
        )
    return profiles


def assemble_profiles(
    movies: Mapping[ItemId, tuple[str, tuple[str, ...]]],
    fetched: Mapping[ItemId, FetchOutcome] | None = None,
    overrides: Sequence[MovieProfile] | None = None,
    linked_actor_cap: int | None = None,
) -> ProfileStore:
    """Merge dataset genres, fetched people, and overrides into one store.

    Genres always come from the dataset. People come from an override when
    one exists, else from a successful fetch, else stay empty. Fetched actor
    sets are kept whole by default; a cap keeps the first N in sorted order.
    Idempotent.
    """
    fetched = fetched or {}
    override_by_id = {p.item_id: p for p in (overrides or [])}

    def capped(actors: frozenset[str]) -> frozenset[str]:
        if linked_actor_cap is None or len(actors) <= linked_actor_cap:
            return actors
        return frozenset(sorted(actors)[:linked_actor_cap])

    profiles: dict[ItemId, MovieProfile] = {}
    log: dict[ItemId, FetchLogEntry] = {}
    for item_id, (title, genres) in movies.items():
        ov = override_by_id.get(item_id)
        fo = fetched.get(item_id)
        if ov is not None:
            profiles[item_id] = MovieProfile(
                item_id=item_id,
                title=title,
                genres=frozenset(genres),
                directors=ov.directors,
                actors=ov.actors,
                source=ProfileSource.OVERRIDE,
            )
            log[item_id] = FetchLogEntry("overridden")
        elif fo is not None and fo.status == "ok":
            profiles[item_id] = MovieProfile(
                item_id=item_id,
                title=title,
                genres=frozenset(genres),
                directors=fo.directors,
                actors=capped(fo.actors),
                source=ProfileSource.LINKED_DATA,
            )
            log[item_id] = FetchLogEntry("fetched-ok", multi_title=fo.multi_title)
        else:
            profiles[item_id] = MovieProfile(
                item_id=item_id,
                title=title,
                genres=frozenset(genres),
                source=ProfileSource.DATASET,
            )
            if fo is None:
                log[item_id] = FetchLogEntry("dataset-only")
            else:
                log[item_id] = FetchLogEntry(
                    "not-found" if fo.status == "not-found" else "fetch-failed"
                )
    return ProfileStore(profiles=profiles, fetch_log=log)


# -- persistence -----------------------------------------------------------------


def _dump_record(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def save_fetched(outcomes: Sequence[FetchOutcome], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for o in sorted(outcomes, key=lambda o: str(o.item_id)):
            fh.write(
                _dump_record(
                    {
                        "item_id": o.item_id,
                        "title": o.title,
                        "status": o.status,
                        "directors": sorted(o.directors),
                        "actors": sorted(o.actors),
                        "multi_title": o.multi_title,
                    }
                )
                + "\n"
            )


def load_fetched(path) -> dict[ItemId, FetchOutcome]:
    out: dict[ItemId, FetchOutcome] = {}
    for _, r in _read_records(path, required=("item_id", "status")):
        out[r["item_id"]] = FetchOutcome(
            item_id=r["item_id"],
            title=r.get("title", ""),
            status=r["status"],
            directors=frozenset(r.get("directors", [])),
            actors=frozenset(r.get("actors", [])),
            multi_title=bool(r.get("multi_title", False)),
        )
    return out


def save_profiles(store: ProfileStore, path) -> None:
    """Write one JSON record per movie, sorted by item id; reruns are byte-identical."""
    with open(path, "w", encoding="utf-8") as fh:
        for item_id in sorted(store.profiles, key=str):
            p = store.profiles[item_id]
            fh.write(
                _dump_record(
                    {
                        "item_id": p.item_id,
                        "title": p.title,
                        "genres": sorted(p.genres),
                        "directors": sorted(p.directors),
                        "actors": sorted(p.actors),
                        "source": p.source.value,
                    }
                )
                + "\n"
            )


def load_profiles(path) -> ProfileStore:
    profiles: dict[ItemId, MovieProfile] = {}
    log: dict[ItemId, FetchLogEntry] = {}
    status_of = {
        ProfileSource.OVERRIDE: "overridden",
        ProfileSource.LINKED_DATA: "fetched-ok",
        ProfileSource.DATASET: "dataset-only",
    }
    for lineno, r in _read_records(path, required=("item_id", "genres")):
        try:
            source = ProfileSource(r.get("source", "dataset"))
            profile = MovieProfile(
                item_id=r["item_id"],
                title=r.get("title", ""),
                genres=frozenset(r["genres"]),
                directors=frozenset(r.get("directors", [])),
                actors=frozenset(r.get("actors", [])),
                source=source,
            )
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: bad profile record: {exc}") from None
        profiles[profile.item_id] = profile
        log[profile.item_id] = FetchLogEntry(status_of[source])
    if not profiles:
        raise ValueError(f"{path}: no profiles found")
    return ProfileStore(profiles=profiles, fetch_log=log)
