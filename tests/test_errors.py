"""The one writer and the one CSV cell rule that every report, calibration
and config.json file goes through, and the checks of the one JSON reader,
which reads thresholds files and statistics documents."""

from __future__ import annotations

import io
import json
import re
import sys

import pytest

from latebind.errors import ValidationError, csv_text, json_fields, load_json, write_file
from latebind.policy import Thresholds
from latebind.stats import TableStats


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


def statistics_doc(**column: object) -> dict:
    """A statistics document of one column, `column` overriding its keys."""
    return {"table": "t", "row_count": 2, "columns": {"a": {
        "column": "a", "row_count": 2, "ndv": 2, "min_value": 0, "max_value": 1,
        "bucket_edges": [0.0, 1.0, 2.0], "bucket_counts": [1, 1], **column}}}


@pytest.mark.parametrize("doc,message", [
    (statistics_doc(ndv="x"), "column stats key 'ndv' takes int, not 'x'"),
    (statistics_doc(bucket_edges=[0.0, "q", 2.0]),
     "column stats key 'bucket_edges' takes tuple[float, ...], not 'q'"),
    ({key: value for key, value in statistics_doc().items() if key != "table"},
     "statistics lacks keys ['table']"),
    # a number written as a string is no number
    ({**statistics_doc(), "row_count": "2"}, "statistics key 'row_count' takes int, not '2'"),
    ({**statistics_doc(), "extra": 1}, "unknown statistics keys: ['extra']"),
    (statistics_doc(oops=2), "unknown column stats keys: ['oops']"),
    # JSON true is no integer, though Python's bool is an int
    ({**statistics_doc(), "row_count": True}, "statistics key 'row_count' takes int, not True"),
    (statistics_doc(bucket_edges=5),
     "column stats key 'bucket_edges' takes tuple[float, ...], not 5"),
], ids=["nested_int", "nested_tuple_item", "missing_key", "int_as_text", "unknown_key",
        "unknown_nested_key", "bool_as_int", "tuple_not_list"])
def test_malformed_statistics_document_rejected(doc, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_json(TableStats, io.StringIO(json.dumps(doc)), "statistics")


def test_integer_at_the_largest_float_passes_for_a_float():
    largest = int(sys.float_info.max)
    assert json_fields(Thresholds, {"rho_join": largest}, "threshold") == {"rho_join": largest}
    with pytest.raises(ValidationError, match="^threshold key 'rho_join' takes float, not "):
        json_fields(Thresholds, {"rho_join": largest + 1}, "threshold")
