"""End-to-end command-line behavior on tiny datasets and a stub endpoint."""

from __future__ import annotations

import argparse
import csv
import logging
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from unittest import mock

import numpy as np
import pytest

from contentcf import ingest
from contentcf.cli import _CONFIG_KEYS, ENDPOINT_ENV_VAR, build_parser, main
from test_ingest import sparql_xml


@pytest.fixture
def dataset(tmp_path):
    """A small but non-trivial ratings/movies pair on disk."""
    rng = np.random.default_rng(4)
    lines = []
    for u in range(1, 16):
        items = rng.choice(8, size=rng.integers(4, 9), replace=False)
        for i in items:
            lines.append(f"{u}::{int(i) + 1}::{int(rng.integers(1, 6))}::97830{u:04d}")
    (tmp_path / "ratings.dat").write_text("\n".join(lines) + "\n")
    genres = ["Drama", "Comedy", "Action", "Thriller"]
    movie_lines = [
        f"{i + 1}::Movie {i + 1} ({1990 + i})::{genres[i % 4]}|{genres[(i + 1) % 4]}"
        for i in range(8)
    ]
    (tmp_path / "movies.dat").write_text("\n".join(movie_lines) + "\n")
    return tmp_path


def build_profiles(dataset):
    out = dataset / "profiles.jsonl"
    rc = main(
        [
            "build-profiles",
            "--movies", str(dataset / "movies.dat"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


class TestEvaluateCommand:
    def test_single_cell_grid(self, dataset, capsys):
        out = dataset / "report.csv"
        rc = main(
            [
                "evaluate",
                "--data-dir", str(dataset),
                "--method", "pc",
                "--k", "50",
                "--workers", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert rows[1][0] == "pc"
        assert rows[1][1] == "50"
        assert "Number of Neighbours" in capsys.readouterr().out

    def test_wpc_five_rows(self, dataset):
        profiles = build_profiles(dataset)
        out = dataset / "report.csv"
        rc = main(
            [
                "evaluate",
                "--data-dir", str(dataset),
                "--method", "wpc",
                "--profiles", str(profiles),
                "--k", "1,2,3,4,5",
                "--workers", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 6
        assert [r[0] for r in rows[1:]] == ["wpc"] * 5
        # Each k keeps its own fallback count.
        assert [r[-2] for r in rows[1:]] == ["8", "7", "7", "7", "7"]

    def test_wpc_without_profiles_is_usage_error(self, dataset):
        with pytest.raises(SystemExit):
            main(
                [
                    "evaluate",
                    "--data-dir", str(dataset),
                    "--method", "wpc",
                    "--workers", "1",
                ]
            )

    def test_missing_file_nonzero_exit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["evaluate", "--data-dir", str(tmp_path / "nope"), "--workers", "1"])

    def test_unknown_flag_rejected(self, dataset):
        with pytest.raises(SystemExit):
            main(["evaluate", "--data-dir", str(dataset), "--frobnicate"])

    def test_config_file_defaults_overridden_by_flags(self, dataset, capsys):
        cfg = dataset / "run.cfg"
        cfg.write_text("method=pc\nk=1,2\nworkers=1\nout=%s\n" % (dataset / "c.csv"))
        rc = main(["evaluate", "--data-dir", str(dataset), "--config", str(cfg), "--k", "3"])
        assert rc == 0
        with (dataset / "c.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        # flag --k 3 wins over config k=1,2
        assert [r[1] for r in rows[1:]] == ["3"]

    @pytest.mark.parametrize(
        "source", ["data-dir={d}", "data-dir={d}/nope\nratings={d}/ratings.dat"],
        ids=["data-dir", "ratings-over-data-dir"],
    )
    def test_wpc_run_from_config_file_alone(self, dataset, source, capsys):
        profiles = build_profiles(dataset)
        rc = main(
            ["evaluate", "--data-dir", str(dataset), "--method", "wpc", "--profiles",
             str(profiles), "--k", "1,2", "--workers", "1", "--out", str(dataset / "flags.csv")]
        )
        assert rc == 0
        cfg = dataset / "run.cfg"
        cfg.write_text(
            source.format(d=dataset)
            + f"\nmethod=wpc\nprofiles={profiles}\nk=1,2\nout={dataset / 'config.csv'}\n"
        )
        assert main(["evaluate", "--config", str(cfg), "--workers", "1"]) == 0
        report = (dataset / "config.csv").read_bytes()
        assert report.splitlines()[1].startswith(b"wpc,1,")
        assert report == (dataset / "flags.csv").read_bytes()

    @pytest.mark.parametrize(
        "command", [["evaluate", "--workers", "1"], ["predict", "--user", "1", "--item", "2"]]
    )
    def test_config_file_key_given_twice_rejected(self, dataset, command, capsys, caplog):
        cfg = dataset / "run.cfg"
        cfg.write_text("k=1\n# neighbours\nk=50\n")
        out = dataset / "never.csv"
        if command[0] == "evaluate":
            command = command + ["--out", str(out)]
        rc = main(command[:1] + ["--data-dir", str(dataset), "--config", str(cfg)] + command[1:])
        assert rc == 1
        assert "run.cfg: line 3: 'k' given again (first on line 1)" in caplog.text
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_deterministic_across_runs(self, dataset, capsys):
        args = [
            "evaluate", "--data-dir", str(dataset),
            "--method", "pc", "--k", "2,4", "--workers", "1",
        ]
        main(args + ["--out", str(dataset / "r1.csv")])
        main(args + ["--out", str(dataset / "r2.csv")])
        assert (dataset / "r1.csv").read_bytes() == (dataset / "r2.csv").read_bytes()

    @pytest.mark.parametrize(
        "line, flags",
        [("seed=", []), ("workers=two", []), ("k=5,x", []), ("min-sim=abc", []),
         ("seed=x", ["--seed", "3"])],
    )
    def test_config_file_bad_value_names_file_line_and_key(self, dataset, line, flags, caplog):
        # A value is parsed where it is read, so it fails even where a flag overrides its key.
        cfg = dataset / "run.cfg"
        cfg.write_text(f"method=pc\n{line}\n")
        out = dataset / "never.csv"
        rc = main(["evaluate", "--data-dir", str(dataset), "--config", str(cfg),
                   "--out", str(out)] + flags)
        assert rc == 1
        key = line.partition("=")[0]
        assert f"run.cfg: line 2: bad value for '{key}': " in caplog.text
        assert not out.exists()

    def test_split_is_no_setting(self, dataset, caplog):
        out = dataset / "never.csv"
        base = ["evaluate", "--data-dir", str(dataset), "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(base + ["--split", "global"])
        assert exc.value.code == 2
        cfg = dataset / "run.cfg"
        cfg.write_text("split=per-item\n")
        assert main(base + ["--config", str(cfg)]) == 1
        assert "run.cfg: line 1: this command reads no key 'split'" in caplog.text
        assert not out.exists()


class TestPredictCommand:
    def test_prediction_in_range(self, dataset, capsys):
        rc = main(
            ["predict", "--data-dir", str(dataset), "--user", "1", "--item", "2"]
        )
        assert rc == 0
        value = float(capsys.readouterr().out.strip())
        assert 1.0 <= value <= 5.0

    def test_same_invocation_identical(self, dataset, capsys):
        args = ["predict", "--data-dir", str(dataset), "--user", "3", "--item", "1"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_explicit_k_flag(self, dataset, capsys):
        rc = main(
            ["predict", "--data-dir", str(dataset), "--user", "1", "--item", "2", "--k", "3"]
        )
        assert rc == 0
        assert 1.0 <= float(capsys.readouterr().out.strip()) <= 5.0

    def test_k_from_flag_config_file_or_default(self, dataset, capsys):
        cfg = dataset / "run.cfg"
        cfg.write_text("k=1\n")
        base = ["predict", "--data-dir", str(dataset), "--user", "1", "--item", "2"]
        outputs = []
        for extra in (["--config", str(cfg)], ["--k", "1"], [], ["--k", "50"]):
            assert main(base + extra) == 0
            outputs.append(capsys.readouterr().out)
        # k=1 and the default k=50 predict differently here.
        assert outputs[0] == outputs[1] != outputs[2] == outputs[3]

    def test_config_file_k_list_rejected(self, dataset, caplog):
        cfg = dataset / "run.cfg"
        cfg.write_text("k=5,10\n")
        rc = main(
            ["predict", "--data-dir", str(dataset), "--config", str(cfg),
             "--user", "1", "--item", "2"]
        )
        assert rc == 1
        assert "predict takes one k" in caplog.text

    def test_wpc_prediction(self, dataset, capsys):
        profiles = build_profiles(dataset)
        rc = main(
            [
                "predict", "--data-dir", str(dataset),
                "--method", "wpc", "--profiles", str(profiles),
                "--user", "1", "--item", "2",
            ]
        )
        assert rc == 0
        assert 1.0 <= float(capsys.readouterr().out.strip()) <= 5.0

    def test_wpc_settings_from_config_file(self, dataset, capsys):
        profiles = build_profiles(dataset)
        base = ["predict", "--user", "1", "--item", "2"]
        rc = main(base + ["--ratings", str(dataset / "ratings.dat"), "--method", "wpc",
                          "--profiles", str(profiles)])
        assert rc == 0
        from_flags = capsys.readouterr().out
        assert main(base + ["--ratings", str(dataset / "ratings.dat")]) == 0
        assert capsys.readouterr().out != from_flags  # pc predicts differently here
        cfg = dataset / "run.cfg"
        cfg.write_text(
            f"ratings={dataset / 'ratings.dat'}\nmethod=wpc\nprofiles={profiles}\n"
        )
        assert main(base + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == from_flags

    def test_config_file_value_outside_choices_rejected(self, dataset):
        # argparse choices never see config-file values; RunConfig must.
        cfg = dataset / "bad.cfg"
        cfg.write_text("denominator=ABS\n")
        rc = main(
            ["predict", "--data-dir", str(dataset), "--config", str(cfg),
             "--user", "1", "--item", "2"]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "command", [["evaluate", "--workers", "1"], ["predict", "--user", "1", "--item", "2"]]
    )
    @pytest.mark.parametrize("line", ["k=5,x", "k="])
    def test_config_file_bad_k_list_rejected(self, dataset, command, line, caplog):
        # The k list from a config file is parsed outside argparse.
        cfg = dataset / "bad.cfg"
        cfg.write_text(line + "\n")
        rc = main(command[:1] + ["--data-dir", str(dataset), "--config", str(cfg)] + command[1:])
        assert rc == 1
        assert "bad k list" in caplog.text

    @pytest.mark.parametrize(
        "command", [["evaluate", "--workers", "1"], ["predict", "--user", "1", "--item", "2"]]
    )
    @pytest.mark.parametrize(
        "text, message",
        [(None, "No such file or directory"), ("bogus line\n", "line 1: expected key=value")],
    )
    def test_config_file_error_logged_exit_1(self, dataset, command, text, message, caplog):
        cfg = dataset / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        rc = main(command[:1] + ["--data-dir", str(dataset), "--config", str(cfg)] + command[1:])
        assert rc == 1
        assert message in caplog.text

    @pytest.mark.parametrize(
        "command, key",
        [
            (["evaluate", "--workers", "1"], "metod"),
            (["predict", "--user", "1", "--item", "2"], "seed"),  # predict draws no folds
            (["predict", "--user", "1", "--item", "2"], "out"),
        ],
    )
    def test_config_file_key_the_command_does_not_read_rejected(
        self, dataset, command, key, caplog
    ):
        cfg = dataset / "run.cfg"
        cfg.write_text(f"k=1\n\n{key}=wpc\n")
        out = dataset / "never.csv"
        if command[0] == "evaluate":
            command = command + ["--out", str(out)]
        rc = main(command[:1] + ["--data-dir", str(dataset), "--config", str(cfg)] + command[1:])
        assert rc == 1
        assert f"run.cfg: line 3: this command reads no key '{key}'" in caplog.text
        assert not out.exists()

    def test_unknown_user_exits_nonzero(self, dataset):
        with pytest.raises(SystemExit, match="user"):
            main(["predict", "--data-dir", str(dataset), "--user", "999", "--item", "1"])

    def test_unknown_item_exits_nonzero(self, dataset):
        with pytest.raises(SystemExit, match="item"):
            main(["predict", "--data-dir", str(dataset), "--user", "1", "--item", "999"])


class TestBuildProfilesCommand:
    def test_one_record_per_movie(self, dataset):
        out = build_profiles(dataset)
        assert len(out.read_text().splitlines()) == 8

    def test_rerun_byte_identical(self, dataset):
        first = build_profiles(dataset).read_bytes()
        second = build_profiles(dataset).read_bytes()
        assert first == second

    def test_with_overrides(self, dataset):
        ov = dataset / "overrides.jsonl"
        ov.write_text('{"item_id": 1, "directors": ["Hand Curated"], "actors": []}\n')
        out = dataset / "profiles.jsonl"
        rc = main(
            [
                "build-profiles",
                "--movies", str(dataset / "movies.dat"),
                "--overrides", str(ov),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "Hand Curated" in out.read_text()


class _StubSparqlHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        body = sparql_xml([("F", "Stub Director", "Stub Star")])
        self.send_response(200)
        self.send_header("Content-Type", "application/sparql-results+xml")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _StubSparqlHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/sparql"
    server.shutdown()
    server.server_close()
    thread.join()


class TestFetchMetadataCommand:
    def test_limit_caps_fetch_log(self, dataset, stub_endpoint):
        out = dataset / "fetched.jsonl"
        rc = main(
            [
                "fetch-metadata",
                "--movies", str(dataset / "movies.dat"),
                "--endpoint", stub_endpoint,
                "--out", str(out),
                "--limit", "5",
                "--delay", "0",
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert all('"status":"ok"' in l for l in lines)
        assert "Stub Director" in lines[0]

    def test_fetch_line_counts_the_movies_fetched(self, dataset, stub_endpoint, caplog):
        out = dataset / "fetched.jsonl"
        with caplog.at_level(logging.INFO):
            rc = main(
                ["fetch-metadata", "--movies", str(dataset / "movies.dat"),
                 "--endpoint", stub_endpoint, "--out", str(out), "--limit", "1", "--delay", "0"]
            )
        assert rc == 0
        fetch_lines = [r.getMessage() for r in caplog.records if "fetching" in r.getMessage()]
        assert fetch_lines == [f"fetching metadata for 1 movies from {stub_endpoint}"]

    def test_endpoint_from_config_file(self, dataset, stub_endpoint, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        cfg = dataset / "fetch.cfg"
        cfg.write_text(f"endpoint={stub_endpoint}\n")
        out = dataset / "fetched.jsonl"
        rc = main(
            ["fetch-metadata", "--movies", str(dataset / "movies.dat"), "--out", str(out),
             "--config", str(cfg), "--limit", "1", "--delay", "0"]
        )
        assert rc == 0
        assert '"status":"ok"' in out.read_text()

    def test_env_var_overrides_endpoint(self, dataset, stub_endpoint, monkeypatch):
        monkeypatch.setenv("CONTENTCF_SPARQL_ENDPOINT", stub_endpoint)
        out = dataset / "fetched.jsonl"
        rc = main(
            [
                "fetch-metadata",
                "--movies", str(dataset / "movies.dat"),
                "--endpoint", "http://unreachable.invalid/sparql",
                "--out", str(out),
                "--limit", "1",
                "--delay", "0",
            ]
        )
        assert rc == 0
        assert '"status":"ok"' in out.read_text()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--concurrency", "0", "concurrency must be >= 1, got 0"),
            ("--retries", "-1", "retries must be >= 0, got -1"),
            ("--delay", "-1", "delay must be >= 0, got -1.0"),
            ("--limit", "-1", "limit must be >= 0, got -1"),
            # The last --endpoint given wins.
            *(
                ("--endpoint", url, f"endpoint must be an http or https URL with a host, got {url!r}")
                for url in ("", "dbpedia.org/sparql", "http://[dbpedia.org/sparql")
            ),
        ],
    )
    def test_bad_setting_exits_1_before_any_request(
        self, dataset, flag, value, message, monkeypatch, caplog
    ):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        out = dataset / "fetched.jsonl"
        no_request = mock.patch.object(ingest, "fetch_profile", side_effect=AssertionError("request"))
        with no_request, caplog.at_level(logging.INFO):
            rc = main(
                [
                    "fetch-metadata",
                    "--movies", str(dataset / "movies.dat"),
                    "--endpoint", "http://unreachable.invalid/sparql",
                    "--out", str(out),
                    flag, value,
                ]
            )
        assert rc == 1
        assert message in caplog.text
        assert "fetching metadata" not in caplog.text
        assert not out.exists()

    def test_config_file_key_it_does_not_read_rejected(self, dataset, caplog):
        cfg = dataset / "fetch.cfg"
        cfg.write_text("endpoint=http://unreachable.invalid/sparql\nconcurrency=2\n")
        out = dataset / "fetched.jsonl"
        with mock.patch.object(ingest, "fetch_profile", side_effect=AssertionError("request")):
            rc = main(
                ["fetch-metadata", "--movies", str(dataset / "movies.dat"), "--out", str(out),
                 "--config", str(cfg)]
            )
        assert rc == 1
        assert "fetch.cfg: line 2: this command reads no key 'concurrency'" in caplog.text


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["evaluate", "predict", "fetch-metadata", "build-profiles"]
    )
    def test_help_exists(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_option_sets(self):
        # Every subcommand's options; each is read back under its name with
        # "-" turned into "_".
        shared = {"-h", "--help", "--config", "--verbose"}
        run = {"--data-dir", "--ratings", "--profiles", "--method", "--k0-branch",
               "--denominator", "--min-sim", "--k"}
        expected = {
            "fetch-metadata": shared | {"--movies", "--endpoint", "--out", "--limit",
                                        "--concurrency", "--retries", "--delay"},
            "build-profiles": shared | {"--movies", "--fetched", "--overrides", "--out"},
            "evaluate": shared | run | {"--seed", "--sample-test", "--workers", "--out"},
            "predict": shared | run | {"--user", "--item"},
        }
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(expected)
        for command, subparser in sub.choices.items():
            options = {o: a.dest for a in subparser._actions for o in a.option_strings}
            assert set(options) == expected[command], command
            for option, dest in options.items():
                if option not in shared:
                    assert dest == option[2:].replace("-", "_"), option

    def test_config_keys_are_the_option_names(self):
        # evaluate and predict read their own options' names without "--", except
        # config, verbose, user and item; a flag added without its key fails here.
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        unread = {"-h", "--help", "--config", "--verbose", "--user", "--item"}
        for command in ("evaluate", "predict"):
            options = {o for a in sub.choices[command]._actions for o in a.option_strings}
            assert sorted(_CONFIG_KEYS[command]) == sorted(o[2:] for o in options - unread)
        assert _CONFIG_KEYS["fetch-metadata"] == ("endpoint",)
        assert _CONFIG_KEYS["build-profiles"] == ()

    def test_predict_help_describes_run_settings(self, capsys):
        with pytest.raises(SystemExit):
            main(["predict", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for text in ("zero-overlap weight branch", "prediction denominator",
                     "exclude neighbors below this similarity"):
            assert text in out

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "contentcf.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "evaluate" in proc.stdout
