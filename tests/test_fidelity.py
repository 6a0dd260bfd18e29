"""The exit rule of tools/fidelity.py: compare on small hand-made digest dicts, and main on faked digest runs."""

import importlib.util
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fidelity.py"
spec = importlib.util.spec_from_file_location("fidelity", TOOL)
fidelity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fidelity)

A, B = "a" * 64, "b" * 64
BASE = {"cli/period": A, "closed_form/kink_array #0 g": B, "sweep/00001": "NoConvergence", "oracle_sweep/000": A}
EXTRA = {**BASE, "sweep/00002": A}


def compare(base, change):
    return fidelity.compare(base, change, {}, {})


def test_identical_digests_pass(capsys):
    assert compare(BASE, dict(BASE)) == 0
    out = capsys.readouterr().out
    assert "DIFFER" not in out and "0 keys on one side only" in out


@pytest.mark.parametrize("base, change", [("NoConvergence", "DomainError"), ("DomainError", A),
                                          (A, "DomainError"), (A, B)],
                         ids=["refusal to refusal", "refusal to answer", "answer to refusal", "answer to answer"])
def test_a_differing_digest_fails(capsys, base, change):
    assert compare({**BASE, "sweep/00002": base}, {**BASE, "sweep/00002": change}) == 1
    assert f"DIFFER: sweep/00002: {base[:22]} -> {change[:22]}" in capsys.readouterr().out


@pytest.mark.parametrize("base, change", [(EXTRA, BASE), (BASE, EXTRA)], ids=["base only", "change only"])
def test_a_key_on_one_side_only_is_counted_and_passes(capsys, base, change):
    assert compare(base, change) == 0
    out = capsys.readouterr().out
    assert "1 keys on one side only" in out and "DIFFER" not in out


def fake_runs(monkeypatch, codes):
    """Fake `git archive` (an empty tar) and the digest runs, each exiting with codes[side]; return the sides run."""
    empty = io.BytesIO()
    tarfile.open(fileobj=empty, mode="w").close()
    ran = []

    def run(argv, check=False, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, stdout=empty.getvalue())
        json_out = Path(argv[argv.index("--json-out") + 1])
        ran.append(json_out.stem)
        code = codes[json_out.stem]
        if check and code:
            raise subprocess.CalledProcessError(code, argv)
        if not code:
            json_out.write_text(json.dumps({"digests": BASE, "columns": {}}))
        return subprocess.CompletedProcess(argv, code)

    monkeypatch.setattr(fidelity.subprocess, "run", run)
    monkeypatch.setattr(sys, "argv", ["fidelity.py", "--base", "HEAD"])
    return ran


@pytest.mark.parametrize("codes", [{"base": 0, "change": 0}, {"base": 1, "change": 0}, {"base": 0, "change": 1},
                                   {"base": 1, "change": 2}],
                         ids=["both digest", "base fails", "change fails", "both fail"])
def test_both_sides_run_and_a_failed_run_is_named(monkeypatch, capsys, codes):
    # a failed run ended the gate in a CalledProcessError, and a failed base left the change undigested
    ran = fake_runs(monkeypatch, codes)
    assert fidelity.main() == (1 if any(codes.values()) else 0)
    assert ran == ["base", "change"]
    out = capsys.readouterr().out
    for side, code in codes.items():
        assert (f"FAILED: the {side} digest run exited {code}" in out) is bool(code)
