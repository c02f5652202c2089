"""Tests of the benchmark itself: inputs, output checks and tracing.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dyncode import gf2, shor_code  # noqa: E402
from dyncode.cli import main as cli_main  # noqa: E402
from dyncode.library import save_code  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_code_files(workload, tmp_path):
    first = workloads.build_ops(workload, 7, tmp_path / "a")
    second = workloads.build_ops(workload, 7, tmp_path / "b")
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    workloads.build_ops(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _shor_op(tmp_path: Path, command: str, *args: str) -> tuple[workloads.Op, str]:
    save_code(shor_code(mask_z1z2=True), tmp_path / "shor.json")
    op = workloads.Op(0, command, "shor-masked", "shor.json", args)
    result = run.run_op(cli_main, op, tmp_path)
    assert result.error is None
    return op, result.output


def test_classify_check_rejects_flipped_syndrome_sign(tmp_path):
    op, output = _shor_op(tmp_path, "classify")
    assert checks.check(op, output, tmp_path / op.file) == []
    report = json.loads(output)
    assert report["unmasked"]
    report["unmasked"][0]["syndrome"]["sign"] *= -1
    problems = checks.check(op, json.dumps(report), tmp_path / op.file)
    assert any("sign" in p for p in problems)


def test_classify_check_rejects_wrong_destabilizer(tmp_path):
    save_code(workloads.random_local_code(random.Random(2), 32, 40), tmp_path / "local.json")
    op = workloads.Op(0, "classify", "random-local", "local.json")
    output = run.run_op(cli_main, op, tmp_path).output
    report = json.loads(output)
    assert checks.check(op, output, tmp_path / op.file) == []
    assert len(report["permanently_masked"]) >= 2
    first, second = report["permanently_masked"][:2]
    first["destabilizer"], second["destabilizer"] = second["destabilizer"], first["destabilizer"]
    problems = checks.check(op, json.dumps(report), tmp_path / op.file)
    assert any("destabilizer" in p for p in problems)


def test_distance_check_rejects_wrong_witness(tmp_path):
    op, output = _shor_op(tmp_path, "distance")
    assert checks.check(op, output, tmp_path / op.file) == []
    report = json.loads(output)
    witness = report["d_isg"]["witness"]
    q = next(i for i, ch in enumerate(witness) if ch != "I")
    swapped = {"X": "Z", "Z": "X", "Y": "X"}[witness[q]]
    # Same weight, but no longer commutes with every generator.
    report["d_isg"]["witness"] = witness[:q] + swapped + witness[q + 1:]
    problems = checks.check(op, json.dumps(report), tmp_path / op.file)
    assert any("anticommutes" in p for p in problems)
    # A group element of the reported weight is not a logical.
    report["d_isg"]["witness"] = "IZZIIIIII"
    report["d_isg"]["value"]["value"] = 2
    problems = checks.check(op, json.dumps(report), tmp_path / op.file)
    assert any("excluded group" in p for p in problems)


def test_simulate_check_rejects_disagreement(tmp_path):
    op, output = _shor_op(tmp_path, "simulate", "--errors", "0:X1")
    assert checks.check(op, output, tmp_path / op.file) == []
    report = json.loads(output)
    entry = next(e for e in report["logical_outcomes"] if "agree" in e)
    entry["agree"] = False
    assert checks.check(op, json.dumps(report), tmp_path / op.file)


def _traced_counts(workload: str, tmp_path: Path, count: int):
    ops = workloads.build_ops(workload, 3, tmp_path / workload)[:count]
    results, tracer, overhead = run.traced_phase(cli_main, ops, tmp_path / workload, spans.Tracer)
    assert all(r.error is None for r in results)
    assert overhead > 0
    return {name: run.layer_value(tracer, name)
            for name in run.PER_LAYER if name.endswith((".calls", ".rows", ".cycles"))}


def test_distance_search_is_not_reached(tmp_path):
    # The first six ops hold one of each family, classify and floquet alike.
    counts = _traced_counts("classify-floquet", tmp_path, 6)
    assert counts["classify.distance_search.calls"] == 0
    assert counts["gf2.in_span.calls"] > 0
    assert counts["classify.tagging.calls"] > 0 and counts["floquet.cycles"] > 0


def test_traced_counts_repeat_and_bindings_are_restored(tmp_path):
    original = gf2.in_span
    first = _traced_counts("distance-errors", tmp_path, 4)
    assert first["classify.distance_search.calls"] > 0
    assert first == _traced_counts("distance-errors", tmp_path, 4)
    assert gf2.in_span is original
    from dyncode import classify, engine, floquet
    assert classify.in_span is engine.in_span is floquet.in_span is original


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify-floquet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
