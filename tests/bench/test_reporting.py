"""Tests for the text reporting helpers."""

from repro.bench import format_bars, format_table, format_timeline


class TestFormatTable:
    def test_columns_and_rows(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 3.25}]
        text = format_table(rows, title="T")
        assert text.startswith("T\n")
        assert "a" in text and "b" in text
        assert "2.500" in text and "10" in text

    def test_empty(self):
        assert "(no rows)" in format_table([], title="x")

    def test_alignment(self):
        rows = [{"name": "x", "v": 1.0}, {"name": "longer", "v": 2.0}]
        lines = format_table(rows).splitlines()
        assert len({len(l) for l in lines[2:]}) == 1  # data lines equal width

    def test_columns_pick_and_order(self):
        rows = [{"a": 1, "b": 2, "note": "x"}, {"a": 3, "b": 4, "note": "y"}]
        lines = format_table(rows, columns=("b", "a")).splitlines()
        assert lines[0].split() == ["b", "a"]  # picked, in the order asked
        assert [l.split() for l in lines[2:]] == [["2", "1"], ["4", "3"]]
        assert "note" not in lines[0] and "x" not in lines[2]  # extras ignored

    def test_none_renders_as_dash(self):
        assert format_table([{"slo_ms": None}]).splitlines()[-1].strip() == "-"


class TestFormatBars:
    def test_bar_lengths_proportional(self):
        rows = [{"k": "a", "v": 1.0}, {"k": "b", "v": 2.0}]
        text = format_bars(rows, "k", "v")
        a_line = next(l for l in text.splitlines() if l.startswith("a"))
        b_line = next(l for l in text.splitlines() if l.startswith("b"))
        assert b_line.count("#") == 2 * a_line.count("#")

    def test_min_one_mark(self):
        rows = [{"k": "tiny", "v": 0.0001}, {"k": "big", "v": 100.0}]
        text = format_bars(rows, "k", "v")
        tiny = next(l for l in text.splitlines() if l.startswith("tiny"))
        assert "#" in tiny

    def test_empty(self):
        assert "(no rows)" in format_bars([], "k", "v")


class TestFormatTimeline:
    def test_renders_segments(self):
        segments = [
            {"kernel": "k1", "start_ms": 0.0, "end_ms": 5.0, "duration_ms": 5.0},
            {"kernel": "k2", "start_ms": 5.0, "end_ms": 6.0, "duration_ms": 1.0},
        ]
        text = format_timeline(segments)
        assert "k1" in text and "k2" in text
        assert "█" in text

    def test_caps_rows(self):
        segments = [
            {
                "kernel": f"k{i}",
                "start_ms": float(i),
                "end_ms": i + 1.0,
                "duration_ms": 1.0,
            }
            for i in range(100)
        ]
        text = format_timeline(segments, max_rows=10)
        assert len(text.splitlines()) <= 12

    def test_empty(self):
        assert "(no segments)" in format_timeline([])
