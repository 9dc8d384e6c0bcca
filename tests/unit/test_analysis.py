"""Unit tests for the reporting helpers."""

import pytest

from repro.analysis.report import Table, format_series, format_table


class TestTable:
    def test_render_contains_title_headers_rows(self):
        table = Table(title="T", headers=["a", "b"])
        table.add_row("x", 1.5)
        rendered = table.render()
        assert "T" in rendered
        assert "a" in rendered and "b" in rendered
        assert "x" in rendered and "1.50" in rendered

    def test_row_width_mismatch_rejected(self):
        table = Table(title="T", headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_boolean_cells(self):
        table = Table(title="T", headers=["ok"])
        table.add_row(True)
        assert "yes" in table.render()

    def test_columns_aligned(self):
        table = Table(title="T", headers=["col", "x"])
        table.add_row("short", 1)
        table.add_row("much-longer-cell", 2)
        lines = format_table(table).splitlines()
        data_lines = lines[3:]
        positions = {line.rstrip()[-1] for line in data_lines}
        assert positions == {"1", "2"}


class TestFormatSeries:
    def test_contains_points(self):
        rendered = format_series("S", [(0.0, 1.5), (10.0, 2.5)])
        assert "1.5000" in rendered and "10.0" in rendered

