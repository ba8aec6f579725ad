"""End-to-end command-line behavior on tiny datasets and a stub endpoint."""

from __future__ import annotations

import csv
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from contentcf.cli import main
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

    def test_deterministic_across_runs(self, dataset, capsys):
        args = [
            "evaluate", "--data-dir", str(dataset),
            "--method", "pc", "--k", "2,4", "--workers", "1",
        ]
        main(args + ["--out", str(dataset / "r1.csv")])
        main(args + ["--out", str(dataset / "r2.csv")])
        assert (dataset / "r1.csv").read_bytes() == (dataset / "r2.csv").read_bytes()


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


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["evaluate", "predict", "fetch-metadata", "build-profiles"]
    )
    def test_help_exists(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "contentcf.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "evaluate" in proc.stdout
