"""Smoke + shape tests for the figure drivers (tiny scale)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.figures import (fig5, fig6, fig7, fig7_report, fig8,
                                       scale_factor)


@pytest.fixture(scope="module")
def fig5_network():
    return fig5("network", num_streams=3, horizon=4000,
                selectivities=(3.2, 0.4), error_allowances=(0.004, 0.032))


class TestScaleFactor:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_factor() == 1.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scale_factor() == 2.5

    def test_floor_at_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert scale_factor() == 1.0

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "big")
        with pytest.raises(ConfigurationError):
            scale_factor()

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ConfigurationError, match="bad REPRO_SCALE"):
            scale_factor()


class TestFig5:
    def test_cells_cover_grid(self, fig5_network):
        assert len(fig5_network.cells) == 4
        cell = fig5_network.cell(3.2, 0.004)
        assert 0.0 < cell.sampling_ratio <= 1.0

    def test_savings_grow_with_allowance(self, fig5_network):
        for k in fig5_network.selectivities:
            low = fig5_network.cell(k, 0.004).sampling_ratio
            high = fig5_network.cell(k, 0.032).sampling_ratio
            assert high <= low + 0.02

    def test_small_selectivity_saves_more(self, fig5_network):
        coarse = fig5_network.cell(3.2, 0.032).sampling_ratio
        fine = fig5_network.cell(0.4, 0.032).sampling_ratio
        assert fine <= coarse + 0.02

    def test_report_renders(self, fig5_network):
        text = fig5_network.report()
        assert "Fig.5 (network)" in text
        assert "0.032" in text

    def test_unknown_domain(self):
        with pytest.raises(ConfigurationError):
            fig5("storage", num_streams=1, horizon=100)

    def test_missing_cell_raises(self, fig5_network):
        with pytest.raises(KeyError):
            fig5_network.cell(99.0, 0.004)

    @pytest.mark.parametrize("domain", ["system", "application"])
    def test_other_domains_run(self, domain):
        result = fig5(domain, num_streams=2, horizon=3000,
                      selectivities=(0.4,), error_allowances=(0.032,))
        cell = result.cells[0]
        assert 0.0 < cell.sampling_ratio <= 1.0


class TestFig6:
    def test_periodic_costs_most(self):
        result = fig6(error_allowances=(0.0, 0.032), num_servers=1,
                      vms_per_server=8, horizon=600)
        periodic, adaptive = result.stats
        assert periodic["mean"] > adaptive["mean"]
        assert result.sampling_ratios[0] == pytest.approx(1.0)
        assert result.sampling_ratios[1] < 1.0
        assert "Fig.6" in result.report()

    def test_box_stats_ordered(self):
        result = fig6(error_allowances=(0.008,), num_servers=1,
                      vms_per_server=4, horizon=400)
        st = result.stats[0]
        assert st["min"] <= st["q25"] <= st["median"] <= st["q75"] \
            <= st["max"]


class TestFig7:
    def test_misdetection_within_reason(self):
        result = fig7(num_streams=2, horizon=4000,
                      selectivities=(0.8,), error_allowances=(0.008,))
        matrix = result.misdetection_matrix()
        value = matrix[(0.8, 0.008)]
        assert 0.0 <= value <= 0.2
        assert "mis-detection" in fig7_report(result)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8(skews=(0.0, 2.0), num_monitors=4, horizon=6000,
                    repeats=1)

    def test_shapes(self, result):
        assert len(result.even_ratios) == 2
        assert all(0.0 < r <= 1.2 for r in result.even_ratios)
        assert all(0.0 < r <= 1.2 for r in result.adaptive_ratios)

    def test_even_degrades_with_hotspot_skew(self, result):
        assert result.even_ratios[1] > result.even_ratios[0]

    def test_report_renders(self, result):
        assert "Fig.8" in result.report()
