"""Tests of the benchmark's own logic: span self time, the output check,
seeded inputs and the metric list in BENCHMARK.json.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench.check import check_output, corpus_digest, text_digest
from perfbench.trace import SpanRecorder, self_time
from perfbench.workloads import MAX_WORDS, MIN_WORDS, OK_STATUSES, Expected, documents, web_generator

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ------------------------------------------------------------ self time


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (3.0, 4.5)]) == pytest.approx(6.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)


def test_self_time_without_children_is_the_duration():
    assert self_time(1.5, 4.0, []) == pytest.approx(2.5)


def test_recorder_nests_spans_and_tags_them_with_the_row():
    rec = SpanRecorder()
    leaf = rec.wrap(lambda: None, "leaf")

    def row(url):
        leaf()
        leaf()

    row = rec.wrap(row, "row", row_arg=0)
    batch = rec.wrap(lambda urls: [row(u) for u in urls], "batch")
    batch(["u1", "u2"])

    assert rec.names == ["batch", "row", "leaf", "leaf", "row", "leaf", "leaf"]
    assert rec.parents == [-1, 0, 1, 1, 0, 4, 4]
    assert rec.ids == [None, "u1", "u1", "u1", "u2", "u2", "u2"]
    own = rec.self_times()
    # self times partition the root span
    assert sum(own) == pytest.approx(rec.duration(0))
    assert own[1] == pytest.approx(rec.duration(1) - rec.duration(2) - rec.duration(3))


def test_recorder_names_spans_from_arguments():
    rec = SpanRecorder()
    read = rec.wrap(lambda fmt: fmt, lambda fmt: f"read.{fmt}")
    read("pdf")
    read("html")
    assert rec.names == ["read.pdf", "read.html"]


# --------------------------------------------------------- output check


def _case():
    expected = {
        "u1": Expected("html", "html", OK_STATUSES),
        "u2": Expected("pdf", "pdf", OK_STATUSES),
        "u3": Expected("undecodable", "bad_file", frozenset({"bad_file"})),
    }
    rows = [
        ("u1", "ok", "html", text_digest("a")),
        ("u2", "ok", "pdf", text_digest("b")),
        ("u3", "bad_file", "bad_file", text_digest("")),
    ]
    reference = {r[0]: (r[1], r[3]) for r in rows}
    return expected, rows, reference


def test_check_accepts_the_expected_output():
    expected, rows, reference = _case()
    res = check_output(rows, expected, reference)
    assert res.failed == 0
    assert res.mix == {"bad_file": {"bad_file": 1}, "html": {"ok": 1}, "pdf": {"ok": 1}}


def test_check_rejects_a_dropped_row():
    expected, rows, reference = _case()
    res = check_output(rows[:2], expected, reference)
    assert res.missing == 1
    assert res.failed == 1
    assert res.digest != corpus_digest(rows)


def test_check_rejects_a_duplicated_row():
    expected, rows, reference = _case()
    res = check_output(rows + [rows[0]], expected, reference)
    assert res.duplicated == 1
    assert res.failed == 1


def test_check_rejects_a_status_off_the_expected_mix():
    expected, rows, reference = _case()
    rows[2] = ("u3", "ok", "txt", text_digest("junk"))
    res = check_output(rows, expected, reference)
    assert res.mix_mismatches == 1
    assert res.reference_mismatches == 1
    assert res.failed == 1


def test_check_counts_parse_errors_and_text_mismatches():
    expected, rows, reference = _case()
    rows[0] = ("u1", "parse_error", "html", text_digest(""))
    rows[1] = ("u2", "ok", "pdf", text_digest("other"))
    res = check_output(rows, expected, reference)
    assert (res.parse_errors, res.reference_mismatches, res.failed) == (1, 2, 2)


def test_digest_ignores_row_order():
    _, rows, _ = _case()
    assert corpus_digest(rows) == corpus_digest(list(reversed(rows)))


# -------------------------------------------------------------- inputs


def test_documents_depend_on_the_seed_only():
    assert documents(3, 40).equals(documents(3, 40))
    assert not documents(3, 40).equals(documents(4, 40))


def test_documents_keep_their_shape_across_seeds():
    def shape(seed):
        return [[w if w == "the" else len(w) for w in t.split(" ")]
                for t in documents(seed, 50)["text"].to_pylist()]

    assert shape(1) == shape(2)
    assert all(MIN_WORDS <= len(s) <= MAX_WORDS for s in shape(1))


def test_web_mix_follows_the_doc_id_rules():
    fmts = [web_generator(i)[1] for i in range(40)]
    assert fmts.count("bad_file") == 4
    assert fmts.count("pdf") == 2
    assert fmts.count("html") == 28


# ------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_lists_every_reported_metric():
    from perfbench.run import END_TO_END, per_layer_names, per_layer_unit

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    assert all(m["unit"] == per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == ["web_pages", "pdf_docs", "scan_pages"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# ------------------------------------------------------------ processes


def test_reap_descendants_kills_and_reaps_orphans():
    """An orphaned grandchild is reparented to the run and reaped."""
    import subprocess
    import sys

    script = (
        "import subprocess, sys, time\n"
        "from perfbench.run import become_subreaper, descendants, reap_descendants\n"
        "become_subreaper()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 &'], check=True)\n"
        "time.sleep(0.2)\n"
        "before = len(descendants())\n"
        "reap_descendants(grace_s=0.2)\n"
        "print(before, len(descendants()))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.split() == ["1", "0"]
