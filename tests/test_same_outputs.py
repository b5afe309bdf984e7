"""``tools/same_outputs.py`` names every field in which two outputs differ:
the largest numeric moves of each column, and each other field by its JSON key
path or its CSV line and column."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import same_outputs  # noqa: E402


def _manifest(directory: Path, outputs: list[str], wall_time_s: float) -> Path:
    directory.mkdir()
    path = directory / "run_manifest.json"
    path.write_text(json.dumps({
        "command": "markov-audit", "seed": 42, "outputs": outputs,
        "wall_time_s": wall_time_s, "peak_rss_mb": 40.0,
    }), encoding="utf-8")
    return path


def test_manifests_differing_only_in_outputs_name_it(tmp_path):
    old = _manifest(tmp_path / "old", ["markov_audit.csv", "markov_audit.json", "run_manifest.json"], 1.0)
    new = _manifest(tmp_path / "new", ["markov_audit.csv", "run_manifest.json"], 2.0)
    assert same_outputs.compare(old.parent, new.parent) == ["run_manifest.json"]
    report = same_outputs.largest_difference(old, new)
    assert report.startswith("no number moved")
    assert "outputs[1]" in report and "outputs[2]" in report
    assert "wall_time_s" not in report and "seed" not in report


def test_csv_text_cells_are_named_by_line_and_column(tmp_path):
    old, new = tmp_path / "a.csv", tmp_path / "b.csv"
    old.write_text("model_id,beta,slope\nchain,0.5,-1.5\nchain,1,-2\n", encoding="utf-8")
    new.write_text("model_id,beta,slope\nchain,0.5,-1.5\nstar,1,-2.5\n", encoding="utf-8")
    report = same_outputs.largest_difference(old, new)
    assert report == ("largest moves: slope 0.5 absolute (-2.0 -> -2.5), 0.2 relative (-2.0 -> -2.5); "
                      "other fields differ: line 3 column model_id")


def test_numeric_fields_in_only_one_file_are_counted_not_named(tmp_path):
    old, new = tmp_path / "a.json", tmp_path / "b.json"
    old.write_text(json.dumps({"x": [1.0, 2.0], "name": "a"}), encoding="utf-8")
    new.write_text(json.dumps({"x": [1.0], "name": "a"}), encoding="utf-8")
    report = same_outputs.largest_difference(old, new)
    assert report == "no number moved, 1 numeric field(s) in only one"


def test_each_column_reports_its_own_largest_moves(tmp_path):
    # One figure over all fields once took the absolute move from one column
    # and the relative move from another.
    old, new = tmp_path / "a.csv", tmp_path / "b.csv"
    old.write_text("ell,trace_error,slope\n1,0.001,-6\n2,6e-16,-6\n3,3e-16,-6\n", encoding="utf-8")
    new.write_text("ell,trace_error,slope\n1,0.001,-6.5\n2,2e-16,-6.5\n3,3.5e-16,-6.5\n", encoding="utf-8")
    report = same_outputs.largest_difference(old, new)
    assert report == ("largest moves: slope 0.5 absolute (-6.0 -> -6.5), 0.0769 relative (-6.0 -> -6.5); "
                      "trace_error 4e-16 absolute (6e-16 -> 2e-16), 0.667 relative (6e-16 -> 2e-16)")
