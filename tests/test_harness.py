"""Batch runner: reproducible reports, oracle sandwich, error continuation."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import pytest

from moddeg.harness import CSV_FIELDS, run_batch

MIXED_SPECS = [
    ("random", {"n1": 9, "n2": 7, "p": 0.3}),
    ("random", {"n1": 6, "n2": 6, "p": 0.7}),
    ("regularish", {"n1": 12, "n2": 5, "degree": 2}),
    ("star", {"leaves": 8, "center_side": 2}),
    ("complete", {"a": 4, "b": 4}),
    ("matching", {"pairs": 6}),
]


class TestReproducibility:
    def test_json_and_csv_are_byte_identical_across_runs(self):
        first = run_batch(MIXED_SPECS, 3, mode="sampled", seed=42, oracle_max_n=14)
        second = run_batch(MIXED_SPECS, 3, mode="sampled", seed=42, oracle_max_n=14)
        assert first.to_json() == second.to_json()
        assert first.to_csv() == second.to_csv()

    def test_seed_changes_the_instances(self):
        a = run_batch(MIXED_SPECS, 3, seed=1)
        b = run_batch(MIXED_SPECS, 3, seed=2)
        assert a.to_json() != b.to_json()

    def test_timing_is_segregated(self):
        report = run_batch(MIXED_SPECS[:3], 2, seed=5)
        flat = report.to_dict()
        assert "timing" not in flat
        assert "elapsed" not in report.to_csv()
        timed = report.to_dict(include_timing=True)
        assert timed["timing"]["total_s"] > 0
        assert len(timed["timing"]["per_record_s"]) == 3
        header = report.to_csv(include_timing=True).splitlines()[1]
        assert header.split(",")[-1] == "elapsed_s"

    def test_csv_shape(self):
        report = run_batch(MIXED_SPECS[:2], 2, seed=0)
        text = report.to_csv()
        assert text.startswith("# schema_version=1 k=2 mode=sampled seed=0")
        rows = list(csv.DictReader(io.StringIO(text.split("\n", 1)[1])))
        assert len(rows) == 2
        assert list(rows[0]) == CSV_FIELDS

    def test_json_shape(self):
        report = run_batch(MIXED_SPECS[:2], 2, seed=0)
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 1
        assert payload["summary"]["count"] == 2
        assert len(payload["records"]) == 2


class TestRecordArithmetic:
    def test_ratio_fields_recompute(self):
        report = run_batch(MIXED_SPECS, 2, seed=11)
        for rec in report.records:
            assert rec.error is None
            assert rec.n == rec.n1 + rec.n2
            assert rec.ratio == Fraction(rec.order, rec.n)
            assert rec.scaled_ratio == rec.ratio * rec.k
            assert rec.verified

    def test_summary_consistency(self):
        report = run_batch(MIXED_SPECS, 2, seed=11)
        info = report.summary()
        assert info["count"] == len(MIXED_SPECS)
        assert info["errors"] == 0
        assert info["all_verified"] is True
        assert sum(info["case_counts"].values()) == len(MIXED_SPECS)
        worst = min(report.records, key=lambda rec: (rec.ratio, rec.index))
        assert info["min_ratio"] == str(worst.ratio)
        assert info["min_ratio_index"] == worst.index


class TestOracleComparison:
    def test_optimum_bounds_the_construction(self):
        report = run_batch(MIXED_SPECS, 2, seed=3, oracle_max_n=14)
        saw_oracle = 0
        for rec in report.records:
            if rec.n <= 14:
                saw_oracle += 1
                assert rec.optimum is not None and rec.optimum_exact
                assert rec.order <= rec.optimum
            else:
                assert rec.optimum is None and rec.optimum_exact is None
        assert saw_oracle >= 2

    def test_oracle_off_by_default(self):
        report = run_batch(MIXED_SPECS[:2], 2, seed=3)
        assert all(rec.optimum is None for rec in report.records)

    def test_complete_family_is_tight(self):
        for k in (2, 3, 4):
            report = run_batch(
                [("complete", {"a": k, "b": k})], k, seed=0, oracle_max_n=10
            )
            rec = report.records[0]
            assert rec.order == rec.optimum == 2
            assert rec.scaled_ratio == 1

    def test_matchings_achieve_ratio_one(self):
        report = run_batch([("matching", {"pairs": 7})], 4, seed=0)
        assert report.records[0].ratio == 1


class TestErrorContinuation:
    def test_bad_instance_recorded_and_batch_continues(self):
        specs = [
            ("matching", {"pairs": 3}),
            ("regularish", {"n1": 4, "n2": 2, "degree": 5}),  # impossible degree
            ("star", {"leaves": 4}),
        ]
        report = run_batch(specs, 2, seed=8)
        assert len(report.records) == 3
        bad = report.records[1]
        assert bad.error is not None and "ValueError" in bad.error
        assert bad.order == 0 and not bad.verified
        assert report.records[0].error is None
        assert report.records[2].error is None
        info = report.summary()
        assert info["errors"] == 1
        assert info["all_verified"] is False

    def test_error_record_names_the_instance_as_generate_does(self):
        specs = [
            ("random", {"p": 2, "n2": 3, "n1": 3}),
            ("star", {"leaves": 3, "center_side": 3}),
        ]
        report = run_batch(specs, 2, seed=8)
        seeded, fixed = report.records
        assert seeded.descriptor == f"random(n1=3,n2=3,p=2,seed={seeded.gen_seed})"
        assert seeded.error == "ValueError: 'p' must be in [0, 1], got 2"
        assert fixed.descriptor == "star(center_side=3,leaves=3)"
        assert fixed.error == "ValueError: 'center_side' must be 1 or 2, got 3"

    def test_error_records_survive_serialization(self):
        specs = [("regularish", {"n1": 2, "n2": 2, "degree": 9})]
        report = run_batch(specs, 2, seed=8)
        payload = json.loads(report.to_json())
        assert payload["records"][0]["error"].startswith("ValueError")
        row = list(
            csv.DictReader(io.StringIO(report.to_csv().split("\n", 1)[1]))
        )[0]
        assert row["error"].startswith("ValueError")

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            run_batch([], 2)

    @pytest.mark.parametrize("kwargs", [
        {"k": 1}, {"k": 2, "mode": "greedy"}, {"k": 2, "retries": 0},
    ])
    def test_bad_run_parameters_rejected_before_any_instance(self, kwargs):
        with pytest.raises(ValueError):
            run_batch([("matching", {"pairs": 2})], **kwargs)
