"""
Builders for the reference codes used as fixtures, plus file round-trip.

All builders return validate_code-clean :class:`DynamicalCode` instances
with deterministic generator ordering, so classification output is
stable across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .engine import DynamicalCode, ValidationError, validate_code
from .pauli import PauliOperator, decode, format_pauli, parse_pauli

FILE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CodeSpec:
    """A named fixture with its known reference values."""

    name: str
    parameters: dict
    code: DynamicalCode
    reference: dict = field(default_factory=dict)


def _pauli(n: int, text: str) -> PauliOperator:
    return parse_pauli(text, n)


def shor_code(mask_z1z2: bool = False) -> DynamicalCode:
    """The nine-qubit code with one round measuring its stabilizers.

    With ``mask_z1z2`` the schedule withholds the Z1Z2 generator, leaving
    its syndrome temporarily masked.
    """
    n = 9
    gens = [
        _pauli(n, "Z1 Z2"),
        _pauli(n, "Z2 Z3"),
        _pauli(n, "Z4 Z5"),
        _pauli(n, "Z5 Z6"),
        _pauli(n, "Z7 Z8"),
        _pauli(n, "Z8 Z9"),
        _pauli(n, "X1 X2 X3 X4 X5 X6"),
        _pauli(n, "X4 X5 X6 X7 X8 X9"),
    ]
    measured = gens[1:] if mask_z1z2 else gens
    return DynamicalCode.make(
        n, gens, [measured],
        labels={
            "name": "shor-masked" if mask_z1z2 else "shor",
            "logical_z": "X1 X2 X3",
            "logical_x": "Z1 Z4 Z7",
        },
    )


def bacon_shor(rows: int, cols: int) -> DynamicalCode:
    """Bacon-Shor subsystem code on a rows x cols grid, two-round schedule.

    Round 1 measures the vertical XX gauge checks, round 2 the
    horizontal ZZ gauge checks.  The initial generators are the X
    stabilizers on adjacent row pairs and the Z stabilizers on adjacent
    column pairs.

    Raises:
        ValueError: if either dimension is below 2.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid must be at least 2x2")
    n = rows * cols

    def q(i, j):
        return i * cols + j

    gens = []
    for i in range(rows - 1):
        xm = 0
        for j in range(cols):
            xm |= (1 << q(i, j)) | (1 << q(i + 1, j))
        gens.append(PauliOperator(n, xm, 0))
    for j in range(cols - 1):
        zm = 0
        for i in range(rows):
            zm |= (1 << q(i, j)) | (1 << q(i, j + 1))
        gens.append(PauliOperator(n, 0, zm))
    xx_round = [
        PauliOperator(n, (1 << q(i, j)) | (1 << q(i + 1, j)), 0)
        for i in range(rows - 1)
        for j in range(cols)
    ]
    zz_round = [
        PauliOperator(n, 0, (1 << q(i, j)) | (1 << q(i, j + 1)))
        for i in range(rows)
        for j in range(cols - 1)
    ]
    return DynamicalCode.make(
        n, gens, [xx_round, zz_round],
        labels={"name": "bacon-shor", "rows": rows, "cols": cols},
    )


def _honeycomb_layout(cells_x: int, cells_y: int):
    """Site indexing and colored edge/plaquette structure of the torus.

    Each unit cell holds sites A and B.  Edges come in three types per
    cell and are colored so that every hexagonal plaquette of color c is
    bounded by edges of the other two colors only.
    """
    if cells_x % 3 or cells_y % 3 or cells_x < 3 or cells_y < 3:
        raise ValueError(
            "torus admits the three-coloring only when both cell counts "
            "are positive multiples of 3"
        )

    def a(i, j):
        return 2 * ((i % cells_x) * cells_y + (j % cells_y))

    def b(i, j):
        return a(i, j) + 1

    edges = []  # (color, site1, site2)
    for i in range(cells_x):
        for j in range(cells_y):
            edges.append(((i - j + 2) % 3, a(i, j), b(i, j)))
            edges.append(((i - j) % 3, a(i, j), b(i - 1, j)))
            edges.append(((i - j + 1) % 3, a(i, j), b(i, j - 1)))
    plaquettes = []  # (color, sites)
    for i in range(cells_x):
        for j in range(cells_y):
            sites = (
                a(i, j), b(i, j), a(i + 1, j),
                b(i + 1, j - 1), a(i + 1, j - 1), b(i, j - 1),
            )
            plaquettes.append(((i - j) % 3, sites))
    return edges, plaquettes


def _colored_pauli(n: int, color: int, sites) -> PauliOperator:
    """Pauli of type X, Y or Z (by color) on the given sites."""
    xm = zm = 0
    for s in sites:
        if color in (0, 1):
            xm |= 1 << s
        if color in (1, 2):
            zm |= 1 << s
    return PauliOperator(n, xm, zm)


def honeycomb_cycle(cells_x: int, cells_y: int) -> tuple[int, list[list[PauliOperator]]]:
    """Qubit count and the repeating 3-round check schedule of the torus."""
    edges, _ = _honeycomb_layout(cells_x, cells_y)
    n = 2 * cells_x * cells_y
    rounds = []
    for color in range(3):
        rounds.append(
            [
                _colored_pauli(n, color, (s1, s2))
                for c, s1, s2 in edges
                if c == color
            ]
        )
    return n, rounds


def honeycomb_plaquettes(cells_x: int, cells_y: int) -> list[tuple[int, PauliOperator]]:
    """The hexagonal plaquette stabilizers with their colors."""
    _, plaquettes = _honeycomb_layout(cells_x, cells_y)
    n = 2 * cells_x * cells_y
    return [(color, _colored_pauli(n, color, sites)) for color, sites in plaquettes]


def honeycomb(cells_x: int, cells_y: int) -> DynamicalCode:
    """Honeycomb Floquet code on a torus of cells_x x cells_y unit cells.

    The initial group is the steady-state ISG reached by repeating the
    3-round check cycle from scratch (snapshot at a cycle boundary); the
    schedule then continues with two further cycles.

    Raises:
        ValueError: if the torus does not admit the three-coloring.
    """
    n, cycle = honeycomb_cycle(cells_x, cells_y)
    flat = [m for rnd in cycle for m in rnd]
    from .floquet import initialization_depth, iterate_cycles

    trace = iterate_cycles(flat, n)
    initialization_depth(trace)  # raises if no fixpoint
    s0 = [decode(row, n) for row in trace.snapshots[-1][-1]]
    return DynamicalCode.make(
        n, s0, cycle * 2,
        labels={"name": "honeycomb", "cells_x": cells_x, "cells_y": cells_y},
    )


def save_code(code: DynamicalCode, path) -> None:
    """Write a code to the JSON file format (dense Pauli strings)."""
    document = {
        "version": FILE_FORMAT_VERSION,
        "n": code.n,
        "s0": [format_pauli(op) for op in code.s0],
        "rounds": [[format_pauli(op) for op in rnd] for rnd in code.rounds],
    }
    if code.labels:
        document["labels"] = code.labels
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_code(path) -> DynamicalCode:
    """Read a code file, with structural diagnostics on failure.

    Raises:
        ValidationError: on malformed JSON (with the line number where the
            parser gives one, and also for invalid UTF-8 and for nesting or
            integers past the parser's limits), missing or mistyped
            fields, unparsable Pauli strings, or a code failing structural
            validation.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.loads(handle.read())
    except json.JSONDecodeError as exc:
        raise ValidationError(
            [{"kind": "json-parse-error", "line": exc.lineno, "message": exc.msg}]
        ) from exc
    except (RecursionError, ValueError) as exc:  # deep nesting, overlong integers, invalid UTF-8
        raise ValidationError([{"kind": "json-parse-error", "message": str(exc)}]) from exc
    diagnostics = []
    if not isinstance(document, dict):
        raise ValidationError([{"kind": "not-an-object"}])
    version = document.get("version")
    if type(version) is not int or version != FILE_FORMAT_VERSION:
        diagnostics.append({"kind": "unsupported-version", "got": version})
    n = document.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        diagnostics.append({"kind": "bad-field", "field": "n"})
        raise ValidationError(diagnostics)

    # Each distinct string is parsed once per file: to its operator, or to
    # the message of its parse error, reported at every occurrence.
    parsed: dict[str, PauliOperator | str] = {}

    def parse(text: str) -> PauliOperator | str:
        try:
            return parse_pauli(text, n)
        except ValueError as exc:
            return str(exc)

    def parse_all(strings, where):
        if not isinstance(strings, list):
            diagnostics.append({"kind": "bad-field", "field": where})
            return []
        ops = []
        for idx, s in enumerate(strings):
            if not isinstance(s, str):
                diagnostics.append(
                    {"kind": "bad-pauli", "where": where, "index": idx,
                     "message": f"expected a Pauli string, got {type(s).__name__}"}
                )
                continue
            op = parsed.get(s)
            if op is None:
                op = parsed[s] = parse(s)
            if isinstance(op, str):
                diagnostics.append(
                    {"kind": "bad-pauli", "where": where, "index": idx, "message": op}
                )
            else:
                ops.append(op)
        return ops

    s0 = parse_all(document.get("s0", []), "s0")
    rounds = document.get("rounds", [])
    if not isinstance(rounds, list):
        diagnostics.append({"kind": "bad-field", "field": "rounds"})
        rounds = []
    rounds = [
        parse_all(rnd, f"round {i}") for i, rnd in enumerate(rounds, start=1)
    ]
    if diagnostics:
        raise ValidationError(diagnostics)
    code = DynamicalCode.make(n, s0, rounds, labels=document.get("labels"))
    structural = validate_code(code)
    if structural:
        raise ValidationError(structural)
    return code


def library_fixtures() -> list[CodeSpec]:
    """The standard fixture set with reference values and their provenance."""
    from .floquet import build_1d_chain

    def ref(value, provenance):
        return {"value": value, "provenance": provenance}

    return [
        CodeSpec("shor", {}, shor_code(),
                 {"d_isg": ref(3, "published-reference")}),
        CodeSpec("shor-masked", {}, shor_code(mask_z1z2=True),
                 {"d_u_gauge_x1": ref(2, "published-reference"),
                  "d_u_gauge_x2x3": ref(1, "published-reference")}),
        CodeSpec("bacon-shor-3x3", {"rows": 3, "cols": 3}, bacon_shor(3, 3),
                 {"d_subsystem": ref(3, "published-reference")}),
        CodeSpec("honeycomb-3x3", {"cells_x": 3, "cells_y": 3}, honeycomb(3, 3),
                 {"unmask_window_rounds": ref(4, "published-reference")}),
        CodeSpec("1d-chain-10", {"n": 10}, build_1d_chain(10),
                 {"rounds": ref(13, "published-reference")}),
    ]
