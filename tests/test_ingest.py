"""File parsing, the SPARQL client, overrides, assembly, and persistence."""

from __future__ import annotations

import json

import pytest

from contentcf.data import MovieProfile, ProfileSource
from contentcf.ingest import (
    FetchError,
    FetchOutcome,
    assemble_profiles,
    build_sparql_query,
    fetch_all,
    fetch_profile,
    load_fetched,
    load_overrides,
    load_profiles,
    parse_movies,
    parse_ratings,
    parse_sparql_xml,
    save_fetched,
    save_profiles,
    strip_year,
)

RATINGS = "1::1193::5::978300760\n1::661::3::978302109\n2::1193::4::978300123\n"
MOVIES = (
    "1::Toy Story (1995)::Animation|Children's|Comedy\n"
    "2::Jumanji (1995)::Adventure|Children's|Fantasy\n"
    "661::James and the Giant Peach (1996)::Animation|Children's|Musical\n"
    "1193::One Flew Over the Cuckoo's Nest (1975)::Drama\n"
)


def sparql_xml(rows):
    """Standard SPARQL results XML with (title, director, star) rows."""
    body = []
    for title, director, star in rows:
        body.append(
            "<result>"
            f'<binding name="film_title"><literal xml:lang="en">{title}</literal></binding>'
            f'<binding name="star_name"><literal>{star}</literal></binding>'
            f'<binding name="nameDirector"><literal>{director}</literal></binding>'
            "</result>"
        )
    return (
        '<?xml version="1.0"?>\n'
        '<sparql xmlns="http://www.w3.org/2005/sparql-results#">'
        "<head>"
        '<variable name="film_title"/><variable name="star_name"/>'
        '<variable name="nameDirector"/>'
        "</head>"
        f"<results>{''.join(body)}</results></sparql>"
    ).encode()


class TestParseRatings:
    def test_single_line(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::1193::5::978300760\n")
        (r,) = parse_ratings(path)
        assert (r.user_id, r.item_id, r.value, r.timestamp) == (1, 1193, 5, 978300760)

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text(RATINGS)
        rs = parse_ratings(path)
        assert [(r.user_id, r.item_id) for r in rs] == [(1, 1193), (1, 661), (2, 1193)]

    def test_out_of_range_rejected_with_line(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::1193::5::1\n1::661::9::2\n")
        with pytest.raises(ValueError, match="line 2.*out of range"):
            parse_ratings(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::1193::5::1\n1::661::3\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_ratings(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::x::5::1\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_ratings(path)


class TestParseMovies:
    def test_genres_split(self, tmp_path):
        path = tmp_path / "movies.dat"
        path.write_text(MOVIES, encoding="latin-1")
        movies = parse_movies(path)
        title, genres = movies[1]
        assert title == "Toy Story (1995)"
        assert set(genres) == {"Animation", "Children's", "Comedy"}
        assert len(movies) == 4

    def test_empty_genres_rejected(self, tmp_path):
        path = tmp_path / "movies.dat"
        path.write_text("5::No Genres (1999)::\n")
        with pytest.raises(ValueError, match="line 1.*genres"):
            parse_movies(path)

    def test_unknown_genre_kept_with_warning(self, tmp_path, caplog):
        path = tmp_path / "movies.dat"
        path.write_text("5::Oddity (1999)::Mockumentary\n")
        with caplog.at_level("WARNING"):
            movies = parse_movies(path)
        assert movies[5][1] == ("Mockumentary",)
        assert "Mockumentary" in caplog.text

    def test_legacy_encoding_tolerated(self, tmp_path):
        path = tmp_path / "movies.dat"
        path.write_bytes("10::Les Mis\xe9rables (1995)::Drama\n".encode("latin-1"))
        movies = parse_movies(path)
        assert "Mis" in movies[10][0]

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "movies.dat"
        path.write_text("1::A (1990)::Drama\n1::B (1991)::Comedy\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_movies(path)


class TestStripYear:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Toy Story (1995)", "Toy Story"),
            ("Toy Story", "Toy Story"),
            ("Seven (a.k.a. Se7en) (1995)", "Seven (a.k.a. Se7en)"),
            ("(500) Days of Summer", "(500) Days of Summer"),
        ],
    )
    def test_cases(self, raw, expected):
        assert strip_year(raw) == expected


class TestBuildSparqlQuery:
    def test_title_substituted_into_filter(self):
        q = build_sparql_query("Toy Story")
        assert 'FILTER ((str(?film_title) IN ("Toy Story"))' in q
        assert "SELECT ?film_title ?star_name ?nameDirector {" in q
        assert "dbpedia-owl:starring ?star;" in q
        assert 'LANGMATCHES(LANG(?film_title),"en")' in q
        assert "ORDER BY ?film_title" in q

    def test_template_identical_modulo_title(self):
        a = build_sparql_query("Alpha").replace("Alpha", "@")
        b = build_sparql_query("Beta").replace("Beta", "@")
        assert a == b

    def test_empty_title_rejected(self):
        with pytest.raises(ValueError):
            build_sparql_query("")

    def test_quote_escaped(self):
        q = build_sparql_query('The "Best" Film')
        assert 'IN ("The \\"Best\\" Film")' in q

    def test_backslash_escaped(self):
        assert '\\\\' in build_sparql_query("a\\b")

    def test_control_character_rejected(self):
        with pytest.raises(ValueError, match="control"):
            build_sparql_query("bad\x01title")


class TestParseSparqlXml:
    def test_rows_aggregate(self):
        result = parse_sparql_xml(sparql_xml([("F", "D1", "A1"), ("F", "D1", "A2")]))
        assert result.director_names == {"D1"}
        assert result.star_names == {"A1", "A2"}
        assert result.film_title == "F"
        assert result.distinct_titles == 1

    def test_empty_results_not_found(self):
        assert parse_sparql_xml(sparql_xml([])) is None

    def test_multi_title_flagged(self):
        result = parse_sparql_xml(sparql_xml([("F", "D", "A"), ("F (film)", "D2", "A2")]))
        assert result.distinct_titles == 2

    def test_malformed_xml_reports_byte_offset(self):
        with pytest.raises(ValueError, match="byte"):
            parse_sparql_xml(b"<sparql><results><result>")


class TestFetchProfile:
    def test_fixture_roundtrip(self):
        calls = []

        def transport(url, fields, headers):
            calls.append((url, fields, headers))
            return 200, sparql_xml([("F", "D1", "A1"), ("F", "D1", "A2")])

        result = fetch_profile("Some Film", "http://endpoint/sparql", transport)
        assert result.director_names == {"D1"}
        assert result.star_names == {"A1", "A2"}
        (url, fields, headers), = calls
        assert url == "http://endpoint/sparql"
        assert 'IN ("Some Film")' in fields["query"]
        assert headers["Accept"] == "application/sparql-results+xml"

    def test_deterministic_for_fixed_fixture(self):
        def transport(url, fields, headers):
            return 200, sparql_xml([("F", "D", "A")])

        first = fetch_profile("X", "http://e", transport)
        second = fetch_profile("X", "http://e", transport)
        assert first == second

    def test_error_status_raises(self):
        def transport(url, fields, headers):
            return 503, b"unavailable"

        with pytest.raises(FetchError, match="503"):
            fetch_profile("X", "http://e", transport)

    def test_not_found(self):
        def transport(url, fields, headers):
            return 200, sparql_xml([])

        assert fetch_profile("X", "http://e", transport) is None


class TestFetchAll:
    def test_year_stripped_then_raw_title(self, tmp_path):
        seen = []

        def transport(url, fields, headers):
            query = fields["query"]
            seen.append(query)
            if 'IN ("Weird Movie (1999)")' in query:
                return 200, sparql_xml([("Weird Movie (1999)", "D", "A")])
            return 200, sparql_xml([])

        movies = {7: ("Weird Movie (1999)", ("Drama",))}
        (outcome,) = fetch_all(movies, "http://e", transport=transport, delay=0)
        assert outcome.status == "ok"
        assert outcome.directors == {"D"}
        assert 'IN ("Weird Movie")' in seen[0]

    def test_failures_recorded_not_raised(self):
        def transport(url, fields, headers):
            raise FetchError("down")

        movies = {1: ("A (1990)", ("Drama",)), 2: ("B (1991)", ("Comedy",))}
        outcomes = fetch_all(movies, "http://e", transport=transport, delay=0, retries=1)
        assert [o.status for o in outcomes] == ["failed", "failed"]

    def test_limit(self):
        def transport(url, fields, headers):
            return 200, sparql_xml([])

        movies = {i: (f"M{i} (2000)", ("Drama",)) for i in range(10)}
        outcomes = fetch_all(movies, "http://e", transport=transport, delay=0, limit=5)
        assert len(outcomes) == 5
        assert all(o.status == "not-found" for o in outcomes)


class TestLoadOverrides:
    def test_actor_cap_applied_in_file_order(self, tmp_path):
        path = tmp_path / "overrides.jsonl"
        record = {
            "item_id": 1,
            "title": "Big Cast",
            "directors": ["D"],
            "actors": [f"A{i}" for i in range(9)],
        }
        path.write_text(json.dumps(record) + "\n")
        (profile,) = load_overrides(path)
        assert profile.actors == {f"A{i}" for i in range(7)}
        assert profile.source is ProfileSource.OVERRIDE

    def test_unknown_item_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "overrides.jsonl"
        path.write_text('{"item_id": 999, "actors": ["A"]}\n')
        with caplog.at_level("WARNING"):
            assert load_overrides(path, known_items={1, 2}) == []
        assert "999" in caplog.text

    def test_empty_file(self, tmp_path):
        path = tmp_path / "overrides.jsonl"
        path.write_text("")
        assert load_overrides(path) == []

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "overrides.jsonl"
        path.write_text('{"item_id": 1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_overrides(path)


class TestAssembleProfiles:
    MOVIES = {
        1: ("Toy Story (1995)", ("Animation", "Comedy")),
        2: ("Jumanji (1995)", ("Adventure",)),
        3: ("Heat (1995)", ("Action", "Crime")),
    }

    def test_dataset_only(self):
        store = assemble_profiles(self.MOVIES)
        assert len(store) == 3
        p = store.get(1)
        assert p.genres == {"Animation", "Comedy"}
        assert p.directors == frozenset()
        assert p.source is ProfileSource.DATASET
        assert store.fetch_log[1].status == "dataset-only"

    def test_fetch_fills_people(self):
        fetched = {
            1: FetchOutcome(1, "Toy Story", "ok", directors=frozenset({"D"}), actors=frozenset({"A"})),
            2: FetchOutcome(2, "Jumanji", "not-found"),
            3: FetchOutcome(3, "Heat", "failed"),
        }
        store = assemble_profiles(self.MOVIES, fetched=fetched)
        assert store.get(1).directors == {"D"}
        assert store.get(1).source is ProfileSource.LINKED_DATA
        assert store.fetch_log[1].status == "fetched-ok"
        assert store.fetch_log[2].status == "not-found"
        assert store.fetch_log[3].status == "fetch-failed"

    def test_override_beats_fetch_keeps_dataset_genres(self):
        fetched = {
            1: FetchOutcome(1, "Toy Story", "ok", directors=frozenset({"D"}), actors=frozenset({"A"}))
        }
        overrides = [
            MovieProfile(
                item_id=1,
                title="ignored",
                genres=frozenset({"Horror"}),
                directors=frozenset({"OD"}),
                actors=frozenset({"OA"}),
                source=ProfileSource.OVERRIDE,
            )
        ]
        store = assemble_profiles(self.MOVIES, fetched=fetched, overrides=overrides)
        p = store.get(1)
        assert p.directors == {"OD"}
        assert p.actors == {"OA"}
        assert p.genres == {"Animation", "Comedy"}  # dataset genres always win
        assert store.fetch_log[1].status == "overridden"

    def test_idempotent(self):
        fetched = {1: FetchOutcome(1, "T", "ok", directors=frozenset({"D"}))}
        a = assemble_profiles(self.MOVIES, fetched=fetched)
        b = assemble_profiles(self.MOVIES, fetched=fetched)
        assert a == b

    def test_every_movie_profiled(self):
        store = assemble_profiles(self.MOVIES)
        assert set(store.profiles) == set(self.MOVIES)

    def test_linked_actor_cap(self):
        fetched = {
            1: FetchOutcome(
                1, "Toy Story", "ok", actors=frozenset({f"A{i}" for i in range(9)})
            )
        }
        unlimited = assemble_profiles(self.MOVIES, fetched=fetched)
        assert len(unlimited.get(1).actors) == 9  # all starring actors kept
        capped = assemble_profiles(self.MOVIES, fetched=fetched, linked_actor_cap=4)
        assert capped.get(1).actors == {"A0", "A1", "A2", "A3"}


class TestPersistence:
    def _store(self):
        movies = TestAssembleProfiles.MOVIES
        fetched = {
            1: FetchOutcome(1, "Toy Story", "ok", directors=frozenset({"Dir"}), actors=frozenset({"A1", "A2"}))
        }
        return assemble_profiles(movies, fetched=fetched)

    def test_profiles_roundtrip(self, tmp_path):
        store = self._store()
        path = tmp_path / "profiles.jsonl"
        save_profiles(store, path)
        loaded = load_profiles(path)
        assert loaded.profiles == store.profiles

    def test_save_byte_identical(self, tmp_path):
        store = self._store()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_profiles(store, a)
        save_profiles(store, b)
        assert a.read_bytes() == b.read_bytes()

    def test_fetched_roundtrip(self, tmp_path):
        outcomes = [
            FetchOutcome(2, "B", "not-found"),
            FetchOutcome(1, "A", "ok", directors=frozenset({"D"}), actors=frozenset({"X"}), multi_title=True),
        ]
        path = tmp_path / "fetched.jsonl"
        save_fetched(outcomes, path)
        loaded = load_fetched(path)
        assert loaded[1].directors == {"D"}
        assert loaded[1].multi_title is True
        assert loaded[2].status == "not-found"

    def test_unicode_preserved(self, tmp_path):
        movies = {10: ("Les Misérables (1995)", ("Drama",))}
        fetched = {10: FetchOutcome(10, "x", "ok", directors=frozenset({"Bille Août"}))}
        store = assemble_profiles(movies, fetched=fetched)
        path = tmp_path / "profiles.jsonl"
        save_profiles(store, path)
        assert "Août" in path.read_text(encoding="utf-8")
        assert load_profiles(path).get(10).directors == {"Bille Août"}


# One valid record per loader, and the field each one requires beyond item_id.
LOADERS = {
    "overrides": (load_overrides, {"item_id": 1, "actors": ["A"]}, "item_id"),
    "fetched": (load_fetched, {"item_id": 1, "status": "ok"}, "status"),
    "profiles": (load_profiles, {"item_id": 1, "genres": ["Drama"]}, "genres"),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
class TestJsonLinesRecords:
    def _write(self, tmp_path, loader, second_line):
        _, record, _ = LOADERS[loader]
        path = tmp_path / f"{loader}.jsonl"
        path.write_text(json.dumps(record) + "\n" + second_line + "\n")
        return LOADERS[loader][0], path

    def test_blank_lines_skipped(self, tmp_path, loader):
        load, path = self._write(tmp_path, loader, "   ")
        assert len(load(path)) == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "invalid JSON"),
            ("[1, 2]", "record must be a JSON object"),
            ('"item"', "record must be a JSON object"),
        ],
    )
    def test_malformed_line_rejected_with_its_number(self, tmp_path, loader, line, message):
        load, path = self._write(tmp_path, loader, line)
        with pytest.raises(ValueError, match=f"{path.name}: line 2: {message}"):
            load(path)

    @pytest.mark.parametrize("field", ["genres", "directors", "actors"])
    @pytest.mark.parametrize("value", ["Drama", 5, None, ["A", 5]])
    def test_feature_field_must_be_array_of_strings(self, tmp_path, loader, field, value):
        _, record, _ = LOADERS[loader]
        load, path = self._write(tmp_path, loader, json.dumps({**record, field: value}))
        with pytest.raises(
            ValueError, match=f"{path.name}: line 2: {field} is not an array of strings"
        ):
            load(path)

    def test_missing_required_field_rejected_with_its_number(self, tmp_path, loader):
        _, record, required = LOADERS[loader]
        load, path = self._write(
            tmp_path, loader, json.dumps({k: v for k, v in record.items() if k != required})
        )
        with pytest.raises(ValueError, match=f"{path.name}: line 2: record lacks {required}"):
            load(path)
