"""The one writer and the one CSV cell rule that every report, calibration
and config file goes through."""

from __future__ import annotations

from latebind.errors import csv_text, write_file


def test_csv_text_cells_and_write_file_bytes(tmp_path):
    text = csv_text("kind,low,high,count", [
        ("filter", 0.1, 1e-300, 3),
        ("join", None, None, None),   # a kind with no break-even
        ("agg", -0.0, 2.5, 0),
    ])
    assert text == ("kind,low,high,count\n"
                    "filter,0.1,1e-300,3\n"
                    "join,,,\n"
                    "agg,-0.0,2.5,0\n")
    assert csv_text("latency,cumulative_fraction", []) == "latency,cumulative_fraction\n"
    path = tmp_path / "made" / "here" / "rows.csv"
    write_file(path, text)
    data = path.read_bytes()
    assert data == text.encode("utf-8") and b"\r" not in data
