"""Unit tests for the analysis/reporting helpers."""

import os

import pytest

from repro.analysis import format_table, gmean, placement_map, run_schemes
from repro.analysis.report import write_result
from repro.nuca import MeshGeometry, four_core_config
from repro.nuca.geometry import Placement
from repro.workloads import build_workload


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.0], ["longer", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "1.000" in text

    def test_empty_rows(self):
        text = format_table(["h1", "h2"], [])
        assert "h1" in text


class TestGmean:
    def test_basic(self):
        assert gmean([2.0, 8.0]) == pytest.approx(4.0)

    def test_identity(self):
        assert gmean([1.0, 1.0, 1.0]) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gmean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gmean([1.0, 0.0])


class TestWriteResult:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = write_result("myexp", "hello")
        assert path.read_text() == "hello\n"
        assert path.parent == tmp_path

    def test_equal_golden_untouched(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        golden = tmp_path / "myexp.txt"
        golden.write_text("hello\n")
        os.utime(golden, ns=(0, 0))
        assert write_result("myexp", "hello") == golden
        assert golden.stat().st_mtime_ns == 0

    def test_different_golden_raises_with_diff(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        golden = tmp_path / "myexp.txt"
        golden.write_text("a\nold\n")
        with pytest.raises(ValueError) as excinfo:
            write_result("myexp", "a\nnew")
        message = str(excinfo.value)
        assert str(golden) in message
        assert "\n-old\n" in message and "\n+new\n" in message
        assert golden.read_text() == "a\nold\n"


class TestPlacementMap:
    def test_symbols_and_unused(self):
        geo = MeshGeometry(dim=3, n_cores=1, bank_bytes=1024)
        p = Placement({0: 1024.0, 4: 512.0})
        text = placement_map(geo, {"points": p}, core=0)
        assert "P" in text
        assert "." in text
        assert "*" in text  # core marker
        assert "P=points" in text

    def test_majority_owner_shown(self):
        geo = MeshGeometry(dim=2, n_cores=1, bank_bytes=1024)
        a = Placement({0: 300.0})
        b = Placement({0: 700.0})
        text = placement_map(geo, {"alpha": a, "beta": b})
        first_cell = text.splitlines()[0].split()[0]
        assert first_cell == "B"

    def test_symbol_collision_resolved(self):
        geo = MeshGeometry(dim=2, n_cores=1, bank_bytes=1024)
        text = placement_map(
            geo,
            {"points": Placement({0: 1.0}), "pugh": Placement({1: 1.0})},
        )
        legend = text.splitlines()[-1]
        # Two distinct symbols despite the same initial.
        assert "points" in legend and "pugh" in legend
        syms = [part.split("=")[0].strip() for part in legend.split()[1:3]]
        assert len(set(syms)) == 2


class TestRunSchemes:
    def test_subset_and_whirlpool_fallbacks(self):
        cfg = four_core_config()
        w = build_workload("MIS", scale="train", seed=0)
        out = run_schemes(w, cfg, schemes=["Jigsaw", "Whirlpool"])
        assert set(out) == {"Jigsaw", "Whirlpool"}
        # MIS is ported: Whirlpool uses the manual classification and
        # should not lose to Jigsaw.
        assert out["Whirlpool"].cycles <= out["Jigsaw"].cycles * 1.02

    def test_whirltool_fallback_for_unported_app(self):
        cfg = four_core_config()
        w = build_workload("dict", scale="train", seed=0)
        out = run_schemes(w, cfg, schemes=["Jigsaw", "Whirlpool"])
        assert "Whirlpool" in out
