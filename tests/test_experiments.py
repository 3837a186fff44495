"""Experiment-driver tests (fast mode) plus the runner registry."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import available_experiments, run_experiment
from repro.util.validation import ValidationError


class TestRunner:
    def test_registry_covers_all_paper_artefacts(self):
        names = available_experiments()
        for required in ("table1", "table2", "table3", "table4",
                         "fig3", "fig4", "fig5", "fig6"):
            assert required in names

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValidationError):
            run_experiment("fig99")

    def test_result_renders(self):
        result = run_experiment("table1", fast=True)
        text = result.render()
        assert "Table I" in text
        assert "EP" in text and "x264" in text


class TestDescriptiveExperiments:
    def test_table1_runs_kernels(self):
        result = run_experiment("table1", fast=True)
        assert len(result.data["kernel_checksums"]) == 6

    def test_table3_sizes(self):
        result = run_experiment("table3", fast=True)
        sizes = result.data["sizes"]
        assert "CG.C" in sizes
        assert "x264.native" in sizes
        assert "150, 000" in sizes["CG.C"]["description"]


class TestMeasuredExperiments:
    def test_table2_fast(self):
        result = run_experiment("table2", fast=True)
        rows = result.data["rows"]
        assert rows, "table2 must produce grid cells"
        # Full-core anchored cells must track the paper closely.
        full = [r for r in rows if r["machine"] == "intel_uma"
                and r["n"] == 8 and r["program"] in ("CG", "IS")]
        for r in full:
            assert r["measured"] == pytest.approx(r["paper"], abs=0.15)

    def test_fig3_observations_hold(self):
        result = run_experiment("fig3", fast=True)
        assert all("OK" in note for note in result.notes
                   if "->" in note)

    def test_fig4_verdicts(self):
        result = run_experiment("fig4", fast=True)
        series = result.data
        assert series["CG.S"]["heavy_measured"] is True
        assert series["CG.C"]["heavy_measured"] is False
        # CCDF values are probabilities and non-increasing on the grid.
        p = series["CG.C"]["ccdf_p"]
        assert all(0.0 <= v <= 1.0 for v in p)
        assert all(a >= b - 1e-12 for a, b in zip(p, p[1:]))

    def test_fig5_error_in_paper_band(self):
        result = run_experiment("fig5", fast=True)
        for mkey, d in result.data.items():
            assert d["mean_relative_error"] < 0.20, mkey

    def test_fig6_negative_region_and_growth(self):
        result = run_experiment("fig6", fast=True)
        d = result.data["intel_numa"]
        assert d["negative_omega_in_package"] is True
        assert d["omega_full"] > 0.3
        assert d["misses_growth_factor"] > 1e3

    def test_table4_ordering(self):
        result = run_experiment("table4", fast=True)
        grid = result.data["intel_uma"]
        # Fast mode runs the first three columns: EP.C, IS.C, FT.B.
        bursty = grid["EP.C"]["measured"]
        contended = grid["IS.C"]["measured"]
        assert contended > bursty

    def test_sp_peak_dominates(self):
        result = run_experiment("sp_peak", fast=True)
        d = result.data["intel_uma"]
        assert d["winner"] == "SP"

    def test_ablation_inputs(self):
        result = run_experiment("ablation_inputs", fast=True)
        errors = result.data["intel_numa"]
        # No mysterious improvement from dropping fit information.
        assert errors["reduced"] >= errors["full"] - 0.02

    def test_ablation_burstiness(self):
        result = run_experiment("ablation_burstiness", fast=True)
        assert result.data["CG.S"] is True
        assert result.data["CG.C"] is False


class TestCli:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out

    def test_experiment_command(self, capsys):
        from repro.cli import main

        assert main(["table3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_topology_command(self, capsys):
        from repro.cli import main

        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "logical" in out

    def test_seed_flag(self, capsys):
        from repro.cli import main

        assert main(["table1", "--fast", "--seed", "3"]) == 0

    @staticmethod
    def _repro_list(stdout):
        env = {**os.environ, "PYTHONUNBUFFERED": "1",
               "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        return subprocess.Popen([sys.executable, "-m", "repro", "list"],
                                stdout=stdout, stderr=subprocess.PIPE,
                                env=env)

    def test_reader_closing_early_leaves_no_traceback(self):
        # ``repro list | head -1``: the reader takes one line and leaves.
        proc = self._repro_list(subprocess.PIPE)
        assert proc.stdout.readline() == b"available experiments:\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert b"Traceback" not in err

    def test_reader_gone_exits_one_quietly(self):
        # With the reader gone before the first line, the first write
        # fails every time.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self._repro_list(write)
            _, err = proc.communicate(timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert err == b""


class TestNewerExperiments:
    def test_fig1_fig2_structure(self):
        result = run_experiment("fig1_fig2", fast=True)
        assert result.data["intel_uma"]["n_controllers"] == 1
        assert result.data["amd_numa"]["distance_classes"] == [0, 1, 2]
        assert all("OK" in n for n in result.notes if "->" in n)

    def test_ablation_extended(self):
        result = run_experiment("ablation_extended", fast=True)
        d = result.data["intel_uma"]
        assert 0.0 <= d["base"] < 0.3
        assert 0.0 <= d["extended"] < 0.4
