"""
Command-line interface: validate, classify, distance, floquet, simulate.

Reports are JSON documents with sorted keys, so output is byte-identical
across runs for a fixed input and seed.  Every number in a report is
wrapped with a provenance marker.  Exit codes: 0 ok, 1 validation
failure, 2 cap exceeded, 3 internal invariant violation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from importlib import metadata

import click
import orjson

from .classify import (
    build_gauge_group,
    isg_distance,
    run_classification,
    subsystem_distance,
    unmasked_distance,
)
from .engine import (
    INITIAL_STABILIZER,
    RANDOM_BIT,
    CapExceededError,
    DynamicalCode,
    InternalInvariantError,
    ValidationError,
    validate_code,
)
from .errors import (
    SpacetimeError,
    logical_outcome,
    syndrome_of_spacetime_error,
    traced_simulation,
    verify_round0_decoding,
)
from .floquet import (
    growth_accounting,
    check_subset_monotonicity,
    initialization_depth,
    isg_rows,
    iterate_cycles,
    unmask_cycle_count,
)
from .gf2 import bits
from .library import load_code
from .pauli import PauliOperator, format_pauli, parse_pauli

SCHEMA_VERSION = 1


@functools.cache
def _tool_version() -> str:
    try:
        return metadata.version("artifact")
    except metadata.PackageNotFoundError:
        return "unknown"


def _computed(value):
    return {"value": value, "provenance": "computed"}


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _dumps(report: dict) -> str:
    """The bytes of ``json.dumps(report, indent=2, sort_keys=True)``: orjson's,
    except where they would differ (an int past 64 bits, which orjson refuses;
    a non-ASCII or DEL character, which it writes unescaped)."""
    try:
        out = orjson.dumps(report, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS)
        if out.isascii() and b"\x7f" not in out:
            return out.decode()
    except orjson.JSONEncodeError:
        pass
    return json.dumps(report, indent=2, sort_keys=True)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(_dumps(report))
    elif lines := _text_lines(report, "", []):
        click.echo("\n".join(lines))


def _text_lines(node, prefix: str, lines: list[str]) -> list[str]:
    if isinstance(node, dict) and set(node) != {"value", "provenance"}:
        for key in sorted(node):
            _text_lines(node[key], f"{prefix}.{key}" if prefix else key, lines)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _text_lines(item, f"{prefix}[{i}]", lines)
    else:
        lines.append(f"{prefix}: {node['value'] if isinstance(node, dict) else node}")
    return lines


def _report_shell(command: str, path: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool_version": _tool_version(),
        "command": command,
        "input_digest": _digest(path),
    }


def _run(command):
    """Execute a command body, mapping exceptions to exit codes."""
    try:
        command()
    except ValidationError as exc:
        click.echo(json.dumps({"error": "validation", "diagnostics":
                               exc.diagnostics}, sort_keys=True), err=True)
        sys.exit(1)
    except CapExceededError as exc:
        click.echo(json.dumps({"error": "cap-exceeded", "message": str(exc)},
                              sort_keys=True), err=True)
        sys.exit(2)
    except InternalInvariantError as exc:
        click.echo(json.dumps({"error": "internal-invariant", "message":
                               str(exc)}, sort_keys=True), err=True)
        sys.exit(3)


def _shift_code(code: DynamicalCode, isg_round: int) -> DynamicalCode:
    """Replace s0 by the ISG reached after ``isg_round`` rounds."""
    if isg_round == 0:
        return code
    return code.derive(isg_rows(code, isg_round), range(isg_round, len(code.rounds)))


def _expr_to_json(expr) -> dict:
    return {
        "sign": -1 if expr.sign else 1,
        "symbols": [[INITIAL_STABILIZER, i] for i in bits(expr.initial)]
        + [[RANDOM_BIT, i] for i in bits(expr.random)],
    }


def _distance_to_json(result) -> dict:
    if result.no_logicals:
        return {"status": "no-logicals"}
    if result.exceeded_cap:
        return {"status": "exceeded-cap", "cap": _computed(result.cap)}
    payload = {"status": "ok", "value": _computed(result.value)}
    if result.witness is not None:
        payload["witness"] = format_pauli(result.witness)
    return payload


@click.group()
def main():
    """Analyze measurement-defined stabilizer codes."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def validate(file, fmt):
    """Check a code file structurally; exit 0 iff clean."""

    def body():
        code = load_code(file)
        report = _report_shell("validate", file)
        report["diagnostics"] = validate_code(code)
        report["n"] = _computed(code.n)
        report["rounds"] = _computed(len(code.rounds))
        _emit(report, fmt)

    _run(body)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--window", type=int, default=None,
              help="Rounds to classify over (default: all).")
@click.option("--isg-round", type=int, default=0, show_default=True,
              help="Classify the ISG reached after this many rounds.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def classify(file, window, isg_round, fmt):
    """Partition the initial stabilizers into unmasked / temporarily
    masked / permanently masked, with syndrome formulas and destabilizers."""

    def body():
        code = _shift_code(load_code(file), isg_round)
        result = run_classification(code, window=window)
        report = _report_shell("classify", file)
        report["window"] = _computed(result.window)
        report["unmasked"] = [
            {
                "operator": format_pauli(u.op),
                "syndrome": _expr_to_json(u.syndrome),
            }
            for u in result.U
        ]
        report["temporarily_masked"] = [format_pauli(t) for t in result.T]
        report["permanently_masked"] = [
            {"operator": format_pauli(p), "destabilizer": format_pauli(k)}
            for p, k in zip(result.P, result.K)
        ]
        report["generator_tags"] = list(result.tags)
        _emit(report, fmt)

    _run(body)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--window", type=int, default=None)
@click.option("--cap", type=int, default=6, show_default=True,
              help="Maximum weight searched before giving up.")
@click.option("--t-destab", type=click.Choice(["canonical", "exhaustive"]),
              default="canonical", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def distance(file, window, cap, t_destab, fmt):
    """Compute the unmasked, subsystem, and ISG distances."""

    def body():
        code = load_code(file)
        if cap < 0:  # before the classification, which it would waste
            raise ValidationError([{"kind": "cap-out-of-range", "cap": cap}])
        result = run_classification(code, window=window)
        gauge = build_gauge_group(result, t_destab_policy=t_destab)
        report = _report_shell("distance", file)
        d_u = unmasked_distance(gauge, cap=cap)
        report["d_u"] = _distance_to_json(d_u)
        # The gauge group's center is span(U), so without destabilizer
        # choices d_u's search is the subsystem search.
        report["d_subsystem"] = _distance_to_json(
            subsystem_distance(gauge, cap=cap) if gauge.has_choices() else d_u
        )
        report["d_isg"] = _distance_to_json(
            isg_distance(list(code.s0), code.n, cap=cap)
        )
        report["t_destab_policy"] = t_destab
        _emit(report, fmt)

    _run(body)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--max-cycles", type=int, default=0,
              help="Cap of the cycle trace only (default: qubit count + 2); "
              "the unmask count's cap stays |ISG| + 2.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def floquet(file, max_cycles, fmt):
    """Cycle analysis: initialization depth, monotonicity, growth, unmasking."""

    def body():
        code = load_code(file)
        sequence = [m for rnd in code.rounds for m in rnd]
        encoded = [entry for rnd in code.encoded_rounds for entry in rnd]
        trace = iterate_cycles(sequence, code.n, max_cycles=max_cycles, encoded=encoded)
        accounting = growth_accounting(trace)
        report = _report_shell("floquet", file)
        report["initialization_depth"] = _computed(initialization_depth(trace))
        report["monotonicity_violations"] = check_subset_monotonicity(trace)
        report["growth_deltas"] = [_computed(d) for d in accounting["deltas"]]
        report["growth_violations"] = accounting["violations"]
        report["unmask_cycles"] = _computed(unmask_cycle_count(code))
        _emit(report, fmt)

    _run(body)


def parse_error_spec(spec: str, n: int) -> dict:
    """Parse comma-separated "round:pauli" error placements."""
    errors = {}
    if not spec:
        return errors
    for part in spec.split(","):
        if ":" not in part:
            raise ValidationError(
                [{"kind": "bad-error-spec", "part": part}]
            )
        round_text, pauli_text = part.split(":", 1)
        try:
            round_index = int(round_text)
            if round_index in errors:
                raise ValueError("round placed twice")
            errors[round_index] = parse_pauli(pauli_text.strip(), n)
        except ValueError:
            raise ValidationError(
                [{"kind": "bad-error-spec", "part": part}]
            ) from None
    return errors


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--errors", "error_spec", default="",
              help='Error placements, e.g. "0:X1,2:Z6Z7".')
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the sampled outcome assignment.")
@click.option("--max-weight", type=int, default=1, show_default=True,
              help="Weight bound for the decodability check.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def simulate(file, error_spec, seed, max_weight, fmt):
    """Inject spacetime errors: syndromes and a decodability verdict."""

    def body():
        code = load_code(file)
        placed = parse_error_spec(error_spec, code.n)
        bad = [r for r in placed if r > len(code.rounds)]
        if bad:
            raise ValidationError(
                [{"kind": "round-out-of-range", "round": r} for r in bad]
            )
        error = SpacetimeError.make(code.n, placed)
        result = run_classification(code)
        gauge = build_gauge_group(result)
        rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)
        report = _report_shell("simulate", file)
        report["seed"] = _computed(seed)
        report["errors"] = {
            str(r): format_pauli(op) for r, op in error.by_round
        }
        occurrences = list(code.measurements())
        syndromes = []
        for u in result.U:
            decomposition = _syndrome_decomposition(code.n, occurrences, u)
            bit = syndrome_of_spacetime_error(error, decomposition, u.op)
            syndromes.append(
                {"stabilizer": format_pauli(u.op), "flip": _computed(bit)}
            )
        report["syndromes"] = syndromes
        verdict = verify_round0_decoding(gauge, max_weight)
        report["decoding"] = {
            "ok": verdict.ok,
            "errors_checked": _computed(verdict.errors_checked),
            "max_weight": _computed(verdict.max_weight),
        }
        if verdict.violation is not None:
            report["decoding"]["violation"] = [
                format_pauli(op) for op in verdict.violation
            ]
        report["logical_outcomes"] = _logical_outcomes(code, error, rng)
        _emit(report, fmt)

    _run(body)


def _logical_outcomes(code: DynamicalCode, error, rng) -> list[dict]:
    """Evaluate each tracked logical two ways under one sampled outcome set.

    The formula value comes from the closed-form spacetime product; the
    simulated value from evaluating the symbolic forward simulation under
    the same (seeded) assignment of all unknown bits.  They must agree.
    """
    logical_ops = list(code.logical_basis)
    evolution, record, traces = traced_simulation(code, logical_ops, dict(error.by_round))
    tracked = evolution.tableau.tracked.slots()
    exprs = [expr for _, _, expr in record] + [evolution.outcome(s) for s in tracked]
    initial = random_bits = 0
    for expr in exprs:
        initial |= expr.initial
        random_bits |= expr.random

    def draw(mask: int) -> int:
        """One seeded +/-1 per symbol of ``mask``, lowest first; the mask
        of those drawn as -1."""
        minus = 0
        for i in bits(mask):
            if rng.choice((1, -1)) < 0:
                minus |= 1 << i
        return minus

    # Initial-stabilizer symbols draw first, then the random bits.
    minus_initial = draw(initial)
    minus_random = draw(random_bits)

    def value(expr) -> int:
        parity = (expr.sign + (expr.initial & minus_initial).bit_count()
                  + (expr.random & minus_random).bit_count())
        return -1 if parity & 1 else 1

    initial_values = {i: -1 if minus_initial >> i & 1 else 1 for i in bits(initial)}
    measurement_values = {t: value(expr) for t, _, expr in record}
    results = []
    for i, (op, trace) in enumerate(zip(logical_ops, traces)):
        entry = {"logical": format_pauli(op)}
        if trace is None:
            entry["status"] = "measured-out"
            results.append(entry)
            continue
        l0_value = -1 if minus_random >> i & 1 else 1
        formula = logical_outcome(
            trace, error, l0_value, initial_values, measurement_values
        )
        simulated = value(evolution.outcome(i))  # a traced logical keeps its slot
        entry["status"] = "ok"
        entry["formula_value"] = _computed(formula)
        entry["simulated_value"] = _computed(simulated)
        entry["agree"] = formula == simulated
        results.append(entry)
    return results


def _syndrome_decomposition(n: int, occurrences: list, unmasked_entry) -> dict:
    """Per-round operator products entering an unmasked syndrome formula;
    ``occurrences[t]`` is the (round, operator) of measurement t."""
    masks: dict[int, tuple[int, int]] = {}
    for index in bits(unmasked_entry.syndrome.random):
        r, m = occurrences[index]
        x, z = masks.get(r, (0, 0))
        masks[r] = (x ^ m.x_mask, z ^ m.z_mask)
    return {r: PauliOperator(n, x, z) for r, (x, z) in masks.items()}
