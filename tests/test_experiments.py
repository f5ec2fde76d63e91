import json
import math

import pytest

from cliquesub import experiments, pipeline
from cliquesub.experiments import (
    OPTIMAL_P,
    ExperimentRecord,
    SweepBudgets,
    emit_report,
    find_certified_ratio_violation,
    records_from_json,
    run_ratio_sweep,
)
from cliquesub.graphs import gen_gnp
from cliquesub.oracles import SigmaUpperCert, alpha_exact


class TestRecords:
    def test_complete_graph_record(self):
        # p = 1 gives K_50: chi bounds collapse to 50, the subdivision
        # certificate covers every vertex, and no counting certificate
        # exists below n, so the point ratio is exactly 1
        recs = run_ratio_sweep([50], 1.0, 1)
        (r,) = recs
        assert (r.chi_lower, r.chi_upper, r.sigma_lower) == (50, 50, 50)
        assert r.chi_lower_tag == "exact"
        assert r.sigma_upper_t is None
        assert r.ratio_point == 1.0

    def test_sorted_and_deterministic(self):
        a = run_ratio_sweep([40, 20], 0.5, 2)
        b = run_ratio_sweep([40, 20], 0.5, 2)
        assert [(r.n, r.seed) for r in a] == [(20, 0), (20, 1), (40, 0), (40, 1)]
        assert a == b

    def test_field_consistency(self):
        recs = run_ratio_sweep([30, 60], OPTIMAL_P, 2)
        for r in recs:
            assert r.chi_lower <= r.chi_upper
            assert r.sigma_lower >= 1
            if r.sigma_upper_t is not None:
                assert r.sigma_lower < r.sigma_upper_t
            assert r.reference == pytest.approx(math.sqrt(r.n) / math.log(r.n))

    def test_empty_ns_rejected(self):
        with pytest.raises(ValueError):
            run_ratio_sweep([], 0.5, 1)

    @pytest.mark.parametrize("ns", [[0], [-3], [20, 0]])
    def test_n_below_one_rejected(self, ns):
        with pytest.raises(ValueError, match=">= 1"):
            run_ratio_sweep(ns, 0.5, 1)

    @pytest.mark.parametrize("seeds", [0, -2])
    def test_seeds_below_one_rejected(self, seeds):
        with pytest.raises(ValueError, match="seeds per n must be >= 1"):
            run_ratio_sweep([20], 0.5, seeds)
        with pytest.raises(ValueError, match="seeds per n must be >= 1"):
            find_certified_ratio_violation([20], seeds_per_n=seeds)

    def test_repeated_n_gives_one_record_per_cell(self):
        assert run_ratio_sweep([20, 20], 0.5, 2) == run_ratio_sweep([20], 0.5, 2)


class TestEmission:
    def test_empty_records(self):
        assert emit_report([], "csv").splitlines() == [
            "n,p,seed,chi_upper,chi_lower,chi_lower_tag,sigma_lower,"
            "sigma_upper_t,ratio_lower,ratio_point,reference"
        ]
        assert emit_report([], "json") == "[]"

    def test_single_row(self):
        rec = ExperimentRecord(
            n=50, p=1.0, seed=0, chi_upper=50, chi_lower=50,
            chi_lower_tag="exact", sigma_lower=50, sigma_upper_t=None,
            ratio_lower=None, ratio_point=1.0, reference=1.807,
        )
        text = emit_report([rec], "csv")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("50,1.0,0,50,50,exact,50,,,1.0,")

    def test_lf_endings_and_stability(self):
        recs = run_ratio_sweep([25], 0.6, 2)
        text = emit_report(recs, "csv")
        assert "\r" not in text
        assert emit_report(recs, "csv") == text

    def test_json_round_trip(self):
        recs = run_ratio_sweep([25, 35], 0.6, 2)
        back = records_from_json(emit_report(recs, "json"))
        assert back == recs

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            emit_report([], "tsv")


class TestViolationSearch:
    def test_small_sizes_report_gap_not_violation(self):
        # at these sizes the counting certificate is far above the coloring
        # bound, so the search must downgrade to reporting the gap
        rec, log = find_certified_ratio_violation([40, 60], seeds_per_n=1)
        assert rec is None
        assert any("best gap" in line for line in log)

    def test_repeated_n_searches_each_graph_once(self, monkeypatch):
        cells = []
        cell = experiments._cell

        def counted(g, *args):
            cells.append(g.n)
            return cell(g, *args)

        monkeypatch.setattr(experiments, "_cell", counted)
        assert find_certified_ratio_violation([30, 30]) == find_certified_ratio_violation([30])
        assert cells == [30, 30]

    def test_log_names_budget_failures(self):
        budgets = SweepBudgets(omega_nodes=5)
        rec, log = find_certified_ratio_violation([40], budgets=budgets)
        assert rec is None
        assert any("omega not exact" in line for line in log)


class TestAlphaReuse:
    # (chi_upper, chi_lower, chi_lower_tag, sigma_lower, sigma_upper_t) on
    # G(200, 1 - e^-2, seed), measured when a cell searched for alpha four
    # times: in the cell, in sigma_lower_auto, at sparse entry and on g'.
    # Every search now runs in the pipeline, so that is where they are counted.
    PINNED = {
        0: (67, 40, "exact", 19, None),
        1: (65, 40, "exact", 19, None),
        2: (69, 40, "exact", 19, None),
    }
    BUDGETS = SweepBudgets(omega_nodes=2_000)

    @staticmethod
    def count_alpha_searches(monkeypatch) -> list[int]:
        """Orders of the graphs that the pipeline searches."""
        calls = []

        def counted(g, budget):
            calls.append(g.n)
            return alpha_exact(g, budget)

        monkeypatch.setattr(pipeline, "alpha_exact", counted)
        return calls

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_one_search_per_cell(self, monkeypatch, seed):
        calls = self.count_alpha_searches(monkeypatch)
        (r,) = run_ratio_sweep([200], OPTIMAL_P, 1, self.BUDGETS, base_seed=seed)
        assert calls == [200]
        got = (r.chi_upper, r.chi_lower, r.chi_lower_tag, r.sigma_lower, r.sigma_upper_t)
        assert got == self.PINNED[seed]

    @pytest.mark.parametrize("alpha_nodes", [5, 100_000])
    def test_one_search_with_any_budget(self, monkeypatch, alpha_nodes):
        # the cell reads the pipeline's alpha whether or not the search ran out
        calls = self.count_alpha_searches(monkeypatch)
        budgets = SweepBudgets(alpha_nodes=alpha_nodes, omega_nodes=2_000)
        (r,) = run_ratio_sweep([200], OPTIMAL_P, 1, budgets)
        assert calls == [200]
        if alpha_nodes == 5:
            assert r.chi_lower_tag == "heuristic"
        else:
            assert r.chi_lower_tag == "exact" and r.sigma_lower == self.PINNED[0][3]


class TestUpperCertificateHandedIn:
    """A cell never searches for omega; a sigma upper bound, and with it
    ``ratio_lower``, comes only from the certificate that the gap search
    adds to a cell's record."""

    # G(80, 1 - e^-2, 0): ceil(n/alpha) = 20 and sigma_lower = 8
    G80 = gen_gnp(80, OPTIMAL_P, 0)

    @staticmethod
    def count(monkeypatch, module, name) -> list[int]:
        calls = []
        original = getattr(module, name)

        def counted(g, *args):
            calls.append(g.n)
            return original(g, *args)

        monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def certify_with(monkeypatch, t: int) -> None:
        """Make the gap search's counting certificate read sigma < t."""
        fake = SigmaUpperCert(t, 2, 0, t, 80)
        monkeypatch.setattr(experiments, "sigma_upper_cert", lambda g, omega: fake)

    def test_cell_searches_no_omega(self, monkeypatch):
        calls = self.count(monkeypatch, experiments, "omega_exact")
        r = experiments._cell(gen_gnp(200, OPTIMAL_P, 0), OPTIMAL_P, 0, SweepBudgets())
        assert calls == []
        assert (r.sigma_upper_t, r.ratio_lower) == (None, None)

    def test_certificate_sets_upper_fields(self, monkeypatch):
        plain = experiments._cell(self.G80, OPTIMAL_P, 0, SweepBudgets())
        assert (plain.chi_lower, plain.sigma_lower) == (20, 8)
        self.certify_with(monkeypatch, 10)
        rec, log = find_certified_ratio_violation([80])
        assert log[-1].startswith("CERTIFIED")
        assert rec == ExperimentRecord(
            **{**plain.to_json_dict(), "sigma_upper_t": 10, "ratio_lower": 20 / 10}
        )

    def test_lower_bound_meeting_the_certificate_raises(self, monkeypatch):
        plain = experiments._cell(self.G80, OPTIMAL_P, 0, SweepBudgets())
        assert plain.sigma_lower > 1
        self.certify_with(monkeypatch, plain.sigma_lower)
        with pytest.raises(AssertionError, match="met the counting upper"):
            find_certified_ratio_violation([80])

    def test_gap_search_searches_alpha_once_per_graph(self, monkeypatch):
        calls = self.count(monkeypatch, pipeline, "alpha_exact")
        rec, _ = find_certified_ratio_violation([40, 60], seeds_per_n=2)
        assert rec is None
        assert calls == [40, 40, 60, 60]

        # a certificate below ceil(n/alpha) = 20 and above sigma_lower = 8 on
        # G(80, 1 - e^-2, 0): the search returns the record of that graph
        calls.clear()
        self.certify_with(monkeypatch, 10)
        rec, log = find_certified_ratio_violation([80])
        assert calls == [80]
        assert log[-1].startswith("CERTIFIED")
        assert (rec.n, rec.seed, rec.chi_lower, rec.sigma_lower) == (80, 0, 20, 8)
        assert (rec.sigma_upper_t, rec.ratio_lower) == (10, 2.0)
