"""The one writer and the one CSV cell rule that every report, calibration
and config.json file goes through, and the checks of the one JSON reader,
which reads thresholds files, the one document read back."""

from __future__ import annotations

import io
import json
import re
import sys

import pytest

from latebind.errors import ValidationError, csv_text, json_fields, load_json, write_file
from latebind.policy import Thresholds


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


@pytest.mark.parametrize("doc,message", [
    # JSON true is no float, though Python's bool is an int and True >= 1
    # would pass Thresholds' own check of offload_margin
    ({"offload_margin": True}, "threshold key 'offload_margin' takes float, not True"),
    # a number written as a string is no number
    ({"offload_margin": "1.5"}, "threshold key 'offload_margin' takes float, not '1.5'"),
    # nor inside n_star, where True would pass as an N* of 1 and offload
    # every filter
    ({"n_star": {"filter": True}}, "threshold key 'n_star' takes dict[str, float], not True"),
    ({"rho_join": 5.0, "extra": 1}, "unknown threshold keys: ['extra']"),
], ids=["bool_as_float", "float_as_text", "bool_in_n_star", "unknown_key"])
def test_malformed_thresholds_document_rejected(doc, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_json(Thresholds, io.StringIO(json.dumps(doc)), "threshold")


def test_integer_at_the_largest_float_passes_for_a_float():
    largest = int(sys.float_info.max)
    assert json_fields(Thresholds, {"rho_join": largest}, "threshold") == {"rho_join": largest}
    with pytest.raises(ValidationError, match="^threshold key 'rho_join' takes float, not "):
        json_fields(Thresholds, {"rho_join": largest + 1}, "threshold")
