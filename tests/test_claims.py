"""Claim-check driver tests.

Exercises the cheap claims end to end at the ``tiny`` budget plus the
driver plumbing (JSON verdicts, CLI exit codes, unknown-claim errors).
Claim 4 (the full differential matrix) is deliberately left to the CI
``claims`` job -- it re-runs what tests/test_differential.py already
covers, at ~45s a pass.
"""

import json

import pytest

from repro.batch import HAS_NUMPY
from repro.verify.claims import (
    CLAIMS,
    ClaimVerdict,
    claim_replication,
    cli,
    run_claims,
)


class TestVerdicts:
    def test_claim_registry_is_1_to_4(self):
        assert sorted(CLAIMS) == [1, 2, 3, 4]

    def test_replication_claim_passes_tiny(self):
        verdict = claim_replication("tiny")
        assert verdict.passed, verdict.summary()
        assert verdict.claim == 2
        assert verdict.details["worst"] < verdict.details["threshold"]

    def test_verdict_round_trips_to_dict(self):
        verdict = ClaimVerdict(
            claim=1, name="demo", passed=True, budget="tiny", seconds=0.5,
            details={"speedup": 7.0},
        )
        payload = verdict.as_dict()
        assert payload["claim"] == 1 and payload["passed"] is True
        assert json.loads(json.dumps(payload)) == payload
        assert "PASS" in verdict.summary()
        assert "FAIL" in ClaimVerdict(
            claim=1, name="demo", passed=False, budget="tiny", seconds=0.5
        ).summary()

    def test_unknown_claim_raises(self):
        with pytest.raises(KeyError, match="no claim 9"):
            run_claims([9])


class TestCli:
    def test_cli_writes_json_verdicts(self, tmp_path):
        out = tmp_path / "nested" / "verdict.json"
        assert cli(["--claim", "2", "--json", str(out)]) == 0
        verdicts = json.loads(out.read_text())
        assert len(verdicts) == 1
        assert verdicts[0]["claim"] == 2
        assert verdicts[0]["passed"] is True
        assert verdicts[0]["budget"] == "tiny"

    def test_cli_requires_a_selection(self, capsys):
        with pytest.raises(SystemExit):
            cli([])

    def test_cli_batch_speedup_claim(self, tmp_path):
        """Claim 1 end to end (a few seconds at the tiny budget)."""
        out = tmp_path / "verdict.json"
        assert cli(["--claim", "1", "--json", str(out)]) == 0
        (verdict,) = json.loads(out.read_text())
        details = verdict["details"]
        if HAS_NUMPY:
            assert details["speedup"] >= details["threshold"]
        else:  # the lane-by-lane fallback has no speedup to claim
            assert details["skipped"] == "python backend"

    def test_cli_warm_start_claim(self):
        """Claim 3 end to end: two subprocess builds, warm beats cold."""
        assert cli(["--claim", "3"]) == 0
