"""MovieLens-1M parsing, linked-data metadata fetching, and profile assembly.

Metadata flows through three layers with fixed precedence: manual override
records beat fetched linked-data results, which beat the bare dataset (genres
only). Fetching is a one-time batch step whose output is persisted to a
line-delimited record file, so evaluation runs never touch the network.
"""

from __future__ import annotations

import collections
import itertools
import json
import logging
import time
import urllib.parse
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .data import (
    MOVIELENS_GENRES,
    RATING_MAX,
    RATING_MIN,
    ItemId,
    MovieProfile,
    ProfileSource,
    Rating,
    RatingColumns,
    usable_cpus,
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


# The log status of a profile from each source; a dataset profile whose fetch
# found nothing or failed is logged as not-found or fetch-failed instead.
_STATUS_OF = {
    ProfileSource.OVERRIDE: "overridden",
    ProfileSource.LINKED_DATA: "fetched-ok",
    ProfileSource.DATASET: "dataset-only",
}


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


# Characters per parse block; each block is extended to the end of its last line. A
# parse thread's freed arrays stay resident in its malloc arena, and a later fork
# inherits them: an ML-1M-shape run with 1 MiB blocks peaked about 20 MiB higher,
# protocol process and largest worker together, than with these.
_BLOCK_CHARS = 1 << 18
# Blocks read and not yet handed to the join (queued, parsing or parsed), and the parse
# pool's threads: a fixed count, so the parse's peak memory does not grow with the CPU
# count. A third block's layout-check arrays would outgrow the join's peak at small blocks.
_IN_FLIGHT = 2
# Files of fewer blocks parse in the calling thread: on a 300 KB file (two blocks) a
# pool took longer than no pool and left its threads' malloc arenas 1.6 MiB resident.
_POOL_MIN_BLOCKS = 4
# Ids and timestamps must lie in int64's range.
_INT64 = range(-(2**63), 2**63)
# A parsed column's candidate dtypes, narrowest first.
_NARROW = tuple(map(np.iinfo, (np.int8, np.int16, np.int32, np.int64)))
# The only bytes of a block the byte path parses.
_PLAIN_BYTES = b"0123456789:\n"
# "::" becomes two spaces, which numpy's reader takes as one separator.
_COLONS_TO_SPACES = bytes.maketrans(b":", b" ")
# Field digits on the byte path; 18 nines are below 2**63, so no field overflows.
_MAX_DIGITS = 18


def parse_ratings(path) -> RatingColumns:
    """Parse `UserID::MovieID::Rating::Timestamp` lines into columns, in file order.

    The file is read once, in text mode, in blocks of whole lines. A block of
    plain lines (four fields of 1-18 ASCII digits joined by ``::``, no blank
    lines) with every value 1-5 is checked on arrays and parsed by numpy's C
    reader. A file of four blocks or more (1 MiB) has its plain blocks
    parsed on a thread pool of ``_IN_FLIGHT`` (two) threads, one per block
    parsed at a time, whatever a run's worker count, when this process may
    run on more than one CPU; the pool is shut down before the parse
    returns. The calling thread reads the blocks, walks any other block line
    by line through ``int``, skipping blank lines, and numbers the lines, in
    file order; the walk raises its first bad line's error as
    ``path: line N: ...``. Each column is stored in the narrowest of int8,
    int16, int32 and int64 that holds its values (ML-1M: 9 bytes a rating),
    so a caller widens a column before arithmetic that could leave that
    range. Ids and timestamps must fit in 64 bits.
    """
    with open(path, "r", encoding="utf-8") as fh:
        blocks = iter(lambda: fh.read(_BLOCK_CHARS) + fh.readline(), "")
        head = list(itertools.islice(blocks, _POOL_MIN_BLOCKS))
        blocks = itertools.chain(head, blocks)
        if len(head) < _POOL_MIN_BLOCKS or usable_cpus() == 1:
            tables = list(_block_tables(path, ((b, _plain_table(b)) for b in blocks)))
        else:
            with ThreadPoolExecutor(_IN_FLIGHT) as pool:
                tables = list(_block_tables(path, _parsed_ahead(pool, blocks)))
    # After an empty int8 table, joining promotes each column to the widest
    # of its blocks' dtypes, and a file without lines has 4 columns.
    columns = RatingColumns(*map(np.concatenate, zip(np.empty((4, 0), np.int8), *tables)))
    if not columns:
        raise ValueError(f"{path}: no ratings found")
    return columns


def _parsed_ahead(pool, blocks) -> Iterator[tuple[str, np.ndarray | None]]:
    """Each block with its ``_plain_table``, in file order, parsed on ``pool``
    at most ``_IN_FLIGHT`` blocks ahead of the one handed out."""
    ahead: collections.deque = collections.deque()
    for block in blocks:
        ahead.append((block, pool.submit(_plain_table, block)))
        if len(ahead) == _IN_FLIGHT:
            block, table = ahead.popleft()
            yield block, table.result()
    for block, table in ahead:
        yield block, table.result()


def _block_tables(path, parsed) -> Iterator[list[np.ndarray]]:
    """Each block's 4 columns, each in the narrowest signed dtype that holds its
    values, from (block, plain table or None) pairs in file order."""
    first_line = 1
    for block, table in parsed:
        if table is not None:
            first_line += table.shape[1]  # a plain block has no blank lines
        else:
            table = _line_table(path, block, first_line)
            first_line += block.count("\n")
        yield [col.astype(_narrowest(col)) for col in table]


def _plain_table(block: str) -> np.ndarray | None:
    """The (4, n) table of a block of n plain lines with every value 1-5; None otherwise.

    No warning filter guards numpy's reader: ``_plain_lines`` admits only fields of
    1-18 digits, integers below 2**63 between spaces once translated, on which the
    reader has nothing to warn about. A count other than 4 values a line is not plain."""
    if not block.isascii():
        return None
    data = block.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"
    n = _plain_lines(data)
    if n is None:
        return None
    values = np.fromstring(data.translate(_COLONS_TO_SPACES), dtype=np.int64, sep=" ")
    if values.size != 4 * n:
        return None
    table = values.reshape(n, 4).T
    return table if RATING_MIN <= table[2].min() and table[2].max() <= RATING_MAX else None


def _narrowest(col: np.ndarray) -> np.dtype:
    """The narrowest signed dtype that holds every value of ``col``."""
    lo, hi = (col.min(), col.max()) if col.size else (0, 0)
    return next(t.dtype for t in _NARROW if t.min <= lo and hi <= t.max)


def _plain_lines(data: bytes) -> int | None:
    """The line count of ``data`` if every line is ``d::d::d::d`` with 1-18
    digits per field and ends with a newline; None otherwise. Its index arrays
    are freed before the parse allocates, so they add nothing to its peak."""
    if data.translate(None, _PLAIN_BYTES):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    colons = np.flatnonzero(raw == ord(":"))
    ends = np.flatnonzero(raw == ord("\n"))
    n = ends.size
    if colons.size != 6 * n or (colons[1::2] - colons[::2] != 1).any():
        return None
    # Each line's separators: the previous line end, its three "::" and its
    # own end. Fields of 1+ digits between them keep every pair on its line.
    starts = np.concatenate(([-1], ends[:-1]))
    marks = np.column_stack((starts, colons[::2].reshape(n, 3), ends))
    digits = np.diff(marks, axis=1) - (1, 2, 2, 2)  # "\n" or "::" before a field
    return n if 1 <= digits.min() and digits.max() <= _MAX_DIGITS else None


def _line_table(path, block: str, first_line: int) -> np.ndarray:
    """The (4, n) table of a block's n non-blank lines through ``int``; raises
    the error of its first bad line, numbered from the block's ``first_line``."""
    fields = []
    for lineno, line in enumerate(block.split("\n"), start=first_line):
        if not line:
            continue
        parts = line.split("::")
        if len(parts) != 4:
            raise ValueError(f"{path}: line {lineno}: expected 4 '::' fields, got {len(parts)}")
        try:
            user_id, item_id, value, ts = row = list(map(int, parts))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-integer field in {line!r}") from None
        if not RATING_MIN <= value <= RATING_MAX:
            try:
                Rating(user_id=user_id, item_id=item_id, value=value, timestamp=ts)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if not (user_id in _INT64 and item_id in _INT64 and ts in _INT64):
            raise ValueError(f"{path}: line {lineno}: field out of 64-bit range in {line!r}")
        fields += row
    return np.array(fields, dtype=np.int64).reshape(-1, 4).T


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


def parse_sparql_xml(body: bytes) -> SparqlMovieResult | None:
    """Aggregate a SPARQL results-XML document into one SparqlMovieResult.

    The endpoint emits one row per (director, star) combination; directors
    and stars are collected into distinct sets. None means zero result rows.
    """
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        raise ValueError(f"malformed XML: {exc}") from None

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


_FETCH_STATUSES = ("ok", "not-found", "failed")


@dataclass(frozen=True)
class FetchOutcome:
    """One movie's batch-fetch result, as persisted by `fetch-metadata`."""

    item_id: ItemId
    title: str
    status: str  # one of _FETCH_STATUSES
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

    Each movie is queried with its year-stripped title first and with the raw
    title after an empty answer. Failures are recorded, never raised: a movie
    is "failed" when no title answered and any attempt failed.
    Output is in query order, by item id, regardless of completion order. A
    setting out of range, or an endpoint that is no http(s) URL with a host,
    raises ValueError before any request.
    """
    for name, value, least in (("concurrency", concurrency, 1), ("retries", retries, 0),
                               ("delay", delay, 0), ("limit", 0 if limit is None else limit, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
    bad_endpoint = f"endpoint must be an http or https URL with a host, got {endpoint!r}"
    try:
        url = urllib.parse.urlsplit(endpoint)
    except ValueError:  # a malformed host, such as an unclosed "["
        raise ValueError(bad_endpoint) from None
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ValueError(bad_endpoint)
    todo = sorted(movies.items())[:limit]
    logger.info("fetching metadata for %d movies from %s", len(todo), endpoint)

    def one(entry: tuple[ItemId, tuple[str, tuple[str, ...]]]) -> FetchOutcome:
        item_id, (title, _genres) = entry
        failed = False  # over every title: an empty answer does not clear a failure
        for candidate in _title_candidates(title):
            for attempt in range(retries + 1):
                if delay:
                    time.sleep(delay)
                try:
                    result = fetch_profile(candidate, endpoint, transport)
                except (FetchError, ValueError) as exc:
                    failed = True
                    logger.warning(
                        "movie %s (%r): attempt %d failed: %s",
                        item_id, candidate, attempt + 1, exc,
                    )
                    continue
                if result is None:
                    break
                return FetchOutcome(item_id, title, "ok", result.director_names,
                                    result.star_names, result.distinct_titles > 1)
        return FetchOutcome(item_id, title, "failed" if failed else "not-found")

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(one, todo))


def _title_candidates(title: str) -> list[str]:
    stripped = strip_year(title)
    return [stripped, title] if stripped != title else [title]


# -- overrides and assembly ------------------------------------------------------


def _is_labels(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# Each record field a loader reads: the check its value must pass, and what it is otherwise.
_FIELD_CHECKS = {
    "item_id": (
        lambda v: isinstance(v, (int, str)) and not isinstance(v, bool),
        "not an integer or a string",
    ),
    "title": (lambda v: isinstance(v, str), "not a string"),
    "genres": (_is_labels, "not an array of strings"),
    "directors": (_is_labels, "not an array of strings"),
    "actors": (_is_labels, "not an array of strings"),
    "status": (lambda v: v in _FETCH_STATUSES, f"not one of {', '.join(_FETCH_STATUSES)}"),
    "multi_title": (lambda v: isinstance(v, bool), "not a boolean"),
}
_PROFILE_FIELDS = ("item_id", "title", "genres", "directors", "actors")


def _read_records(
    path, required: tuple[str, ...], checked: tuple[str, ...] = _PROFILE_FIELDS
) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a JSON-lines file.

    A line that is not a JSON object, lacks a ``required`` field, has a
    ``checked`` field of the wrong type or repeats an earlier record's
    ``item_id`` raises ValueError naming the file and line.
    """
    first_lines: dict[ItemId, int] = {}
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
            for field in checked:
                check, otherwise = _FIELD_CHECKS[field]
                if field in record and not check(record[field]):
                    raise ValueError(f"{path}: line {lineno}: {field} is {otherwise}")
            first = first_lines.setdefault(record["item_id"], lineno)
            if first != lineno:
                raise ValueError(f"{path}: line {lineno}: duplicate item_id "
                                 f"{record['item_id']!r} (first on line {first})")
            yield lineno, record


def load_overrides(path, known_items: set[ItemId] | None = None) -> list[MovieProfile]:
    """Load manually curated people metadata from a JSON-lines file.

    Actor lists keep only their first ``OVERRIDE_ACTOR_CAP`` (7) entries in
    file order, the paper's cap. Records for items outside `known_items` are
    skipped with a warning.
    """
    profiles: list[MovieProfile] = []
    for lineno, record in _read_records(path, required=("item_id",)):
        item_id = record["item_id"]
        if known_items is not None and item_id not in known_items:
            logger.warning("%s: line %d: unknown item %r, record skipped", path, lineno, item_id)
            continue
        profiles.append(_profile(path, lineno, record, ProfileSource.OVERRIDE, OVERRIDE_ACTOR_CAP))
    return profiles


def _profile(path, lineno: int, record: dict, source, actor_cap: int | None = None) -> MovieProfile:
    """One ``_read_records`` record's profile from ``source`` (a ProfileSource or its value),
    keeping the first ``actor_cap`` actors; a rejected record names its file and line."""
    try:
        return MovieProfile(
            item_id=record["item_id"],
            title=record.get("title", ""),
            genres=frozenset(record.get("genres", [])),
            directors=frozenset(record.get("directors", [])),
            actors=frozenset(record.get("actors", [])[:actor_cap]),
            source=ProfileSource(source),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: bad profile record: {exc}") from None


def assemble_profiles(
    movies: Mapping[ItemId, tuple[str, tuple[str, ...]]],
    fetched: Mapping[ItemId, FetchOutcome] | None = None,
    overrides: Sequence[MovieProfile] | None = None,
) -> ProfileStore:
    """Merge dataset genres, fetched people, and overrides into one store.

    Genres always come from the dataset. People come from an override when
    one exists, else from a successful fetch, else stay empty. Fetched actor
    sets are kept whole. Idempotent.
    """
    fetched = fetched or {}
    override_by_id = {p.item_id: p for p in (overrides or [])}

    profiles: dict[ItemId, MovieProfile] = {}
    log: dict[ItemId, FetchLogEntry] = {}
    for item_id, (title, genres) in movies.items():
        ov = override_by_id.get(item_id)
        fo = fetched.get(item_id)
        if ov is not None:
            source, directors, actors = ProfileSource.OVERRIDE, ov.directors, ov.actors
            entry = FetchLogEntry(_STATUS_OF[source])
        elif fo is not None and fo.status == "ok":
            source, directors, actors = ProfileSource.LINKED_DATA, fo.directors, fo.actors
            entry = FetchLogEntry(_STATUS_OF[source], multi_title=fo.multi_title)
        else:
            source, directors, actors = ProfileSource.DATASET, frozenset(), frozenset()
            if fo is None:
                entry = FetchLogEntry(_STATUS_OF[source])
            else:
                entry = FetchLogEntry("not-found" if fo.status == "not-found" else "fetch-failed")
        profiles[item_id] = MovieProfile(
            item_id=item_id,
            title=title,
            genres=genres,
            directors=directors,
            actors=actors,
            source=source,
        )
        log[item_id] = entry
    return ProfileStore(profiles=profiles, fetch_log=log)


# -- persistence -----------------------------------------------------------------


def _write_records(path, rows: Iterable) -> None:
    """Write each dataclass row as one JSON object per line, ordered by ``str(item_id)``
    (10 before 9) whatever the order given; the twin of ``_read_records``. Keys are sorted, label sets become sorted
    arrays and a profile's source its value, so reruns are byte-identical."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in sorted(rows, key=lambda r: str(r.item_id)):
            record = json.dumps(
                asdict(row), ensure_ascii=False, sort_keys=True, separators=(",", ":"),
                default=sorted,
            )
            fh.write(record + "\n")


def save_fetched(outcomes: Sequence[FetchOutcome], path) -> None:
    _write_records(path, outcomes)


def load_fetched(path) -> dict[ItemId, FetchOutcome]:
    out: dict[ItemId, FetchOutcome] = {}
    fields = _PROFILE_FIELDS + ("status", "multi_title")
    for _, r in _read_records(path, required=("item_id", "status"), checked=fields):
        out[r["item_id"]] = FetchOutcome(
            item_id=r["item_id"],
            title=r.get("title", ""),
            status=r["status"],
            directors=frozenset(r.get("directors", [])),
            actors=frozenset(r.get("actors", [])),
            multi_title=r.get("multi_title", False),
        )
    return out


def save_profiles(store: ProfileStore, path) -> None:
    """Write one JSON record per movie, ordered by ``str(item_id)``; reruns are byte-identical."""
    _write_records(path, store.profiles.values())


def load_profiles(path) -> ProfileStore:
    profiles: dict[ItemId, MovieProfile] = {}
    log: dict[ItemId, FetchLogEntry] = {}
    for lineno, r in _read_records(path, required=("item_id", "genres")):
        profile = _profile(path, lineno, r, r.get("source", "dataset"))
        profiles[profile.item_id] = profile
        log[profile.item_id] = FetchLogEntry(_STATUS_OF[profile.source])
    if not profiles:
        raise ValueError(f"{path}: no profiles found")
    return ProfileStore(profiles=profiles, fetch_log=log)
