import json

import pytest

from cliquesub import pipeline
from cliquesub.cli import cli_main
from cliquesub.graph_io import read_graph, write_graph
from cliquesub.oracles import alpha_exact
from cliquesub.subdivision import SubdivisionCertificate
from conftest import cycle


def run(*argv):
    return cli_main(list(argv))


class TestGen:
    def test_gen_and_read_back(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert run("gen", "--n", "40", "--p", "0.5", "--seed", "7", "--out", str(out)) == 0
        g = read_graph(out)
        assert g.n == 40
        assert "wrote" in capsys.readouterr().out

    def test_gen_graph6(self, tmp_path):
        out = tmp_path / "g.g6"
        assert run("gen", "--n", "12", "--p", "0.3", "--seed", "1",
                   "--format", "graph6", "--out", str(out)) == 0
        assert read_graph(out, "graph6").n == 12

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run("gen", "--n", "30", "--p", "0.4", "--seed", "5", "--out", str(a))
        run("gen", "--n", "30", "--p", "0.4", "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestStats:
    def test_c5_stats(self, tmp_path, capsys):
        p = tmp_path / "c5.txt"
        write_graph(cycle(5), p)
        assert run("stats", str(p)) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["alpha"], data["omega"], data["dsatur"]) == (2, 2, 3)
        assert data["chi_lower"] == data["chi_upper"] == 3
        assert data["notes"] == []
        hypotheses = data["paper_hypotheses"]
        assert [e["holds"] for e in hypotheses["sparse"]] == [True, False]
        assert hypotheses["sparse"][0]["detail"] == "alpha = 2, n = 5"
        assert hypotheses["auto"] == hypotheses["sparse"]

    def test_inexact_alpha_is_reported_unknown(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        run("gen", "--n", "40", "--p", "0.3", "--out", str(p))
        capsys.readouterr()
        assert run("stats", str(p), "--budget-nodes", "1") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["alpha_tag"] != "exact"
        alpha_entry, d_entry = data["paper_hypotheses"]["sparse"]
        assert alpha_entry["holds"] is None and alpha_entry["detail"] == "alpha = unknown, n = 40"
        assert d_entry["requirement"] == "d <= c" and d_entry["holds"] is False

    def test_missing_file(self, tmp_path, capsys):
        assert run("stats", str(tmp_path / "nope.txt")) == 2
        assert "error" in capsys.readouterr().err


class TestPipelineVerify:
    def test_end_to_end_chain(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        cert = tmp_path / "cert.json"
        report = tmp_path / "report.json"
        run("gen", "--n", "300", "--p", "0.9", "--seed", "2", "--out", str(gpath))
        rc = run(
            "pipeline", str(gpath), "--case", "sparse", "--seed", "1",
            "--budget-nodes", "200000", "--out", str(report), "--cert-out", str(cert),
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["claimed_sigma_lower"] >= 1
        assert cert.exists()
        capsys.readouterr()
        assert run("verify", str(gpath), str(cert)) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")

    def test_verify_tampered_exits_one(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        cert_path = tmp_path / "cert.json"
        run("gen", "--n", "300", "--p", "0.9", "--seed", "2", "--out", str(gpath))
        run(
            "pipeline", str(gpath), "--case", "sparse", "--seed", "1",
            "--budget-nodes", "200000", "--cert-out", str(cert_path),
        )
        cert = SubdivisionCertificate.from_json(cert_path.read_text())
        pairs = sorted(cert.paths)
        if len(pairs) >= 2:
            a, b = pairs[0], pairs[1]
            donor = cert.paths[a][1:-1]
            u, v = b
            cert.paths[b] = (u,) + donor + (v,)
            cert_path.write_text(cert.to_json())
            capsys.readouterr()
            assert run("verify", str(gpath), str(cert_path)) == 1
            assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, field",
        [
            ("{}", "branch"),
            ("[]", "JSON object"),
            ('{"branch": [0, 1], "paths": [{"pair": [0, 1]}]}', "paths[0].via"),
        ],
    )
    def test_verify_malformed_certificate_is_input_error(self, tmp_path, capsys, text, field):
        gpath = tmp_path / "g.txt"
        cert_path = tmp_path / "cert.json"
        write_graph(cycle(5), gpath)
        cert_path.write_text(text)
        assert run("verify", str(gpath), str(cert_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_practical_dense_refusal_searches_no_alpha(self, tmp_path, capsys, monkeypatch):
        # the gate d^2*n >= 1600 reads only n and m, so it refuses first
        calls = []

        def counted(g, *args):
            calls.append(g.n)
            raise AssertionError("alpha searched before a refusal that needs none")

        monkeypatch.setattr(pipeline, "alpha_exact", counted)
        gpath = tmp_path / "g.txt"
        run("gen", "--n", "200", "--p", "0.5", "--seed", "1", "--out", str(gpath))
        capsys.readouterr()
        assert run("pipeline", str(gpath), "--case", "dense") == 2
        assert calls == []
        assert "refused: hypothesis not met: d^2 * n >= 1600" in capsys.readouterr().err


class TestSweep:
    def test_csv_to_stdout(self, capsys):
        assert run("sweep", "--n", "20,30", "--p", "0.6", "--seeds", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n,p,seed,")
        assert len(lines) == 3

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("sweep", "--n", "25", "--p", "0.7", "--seeds", "2", "--out", str(a))
        run("sweep", "--n", "25", "--p", "0.7", "--seeds", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_n_list(self, capsys):
        assert run("sweep", "--n", "abc") == 2

    def test_n_zero_is_input_error(self, capsys):
        assert run("sweep", "--n", "0") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_seeds_is_input_error(self, seeds, capsys):
        assert run("sweep", "--n", "5", "--seeds", seeds) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_budget_bounds_the_one_alpha_search(self, capsys, monkeypatch):
        # --budget-nodes is the budget of the cell's one alpha search, which
        # its pipeline runs
        calls = []

        def counted(g, budget):
            calls.append((g.n, budget))
            return alpha_exact(g, budget)

        monkeypatch.setattr(pipeline, "alpha_exact", counted)
        assert run("sweep", "--n", "400", "--budget-nodes", "50") == 0
        assert calls == [(400, 50)]
        (line,) = capsys.readouterr().out.splitlines()[1:]
        assert ",heuristic," in line


class TestBounds:
    def test_dispatch_values(self, capsys):
        assert run("bounds", "--n", "1e6", "--alpha", "10") == 0
        out = capsys.readouterr().out
        assert "part-1" in out
        assert "value:" in out

    def test_induction_check(self, capsys):
        assert run("bounds", "--n", "1e150", "--k", "1e130") == 0
        out = capsys.readouterr().out
        assert "branch: main" in out and "passed: True" in out

    @pytest.mark.parametrize("n", ["1", "0.5"])
    def test_induction_check_needs_k_at_most_n(self, n, capsys):
        assert run("bounds", "--n", n, "--k", "10") == 2
        captured = capsys.readouterr()
        assert "passed" not in captured.out
        assert captured.err.startswith("error: ")

    def test_nothing_to_do(self, capsys):
        assert run("bounds", "--n", "100") == 2

    @pytest.mark.parametrize("n", ["inf", "1e400", "nan", "10.7"])
    def test_dispatch_needs_a_whole_finite_n(self, n, capsys):
        assert run("bounds", "--n", n, "--alpha", "3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --n must be a whole number")


class TestUsage:
    def test_unknown_flag_exits_two(self, capsys):
        assert run("gen", "--bogus") == 2

    def test_unknown_command_exits_two(self, capsys):
        assert run("frobnicate") == 2

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "subdivision" in capsys.readouterr().out
