"""Output checks run after each op, outside the timed region.

Each check asserts an algebraic fact about the report, recomputed from the
input file with the small GF(2) helpers below.  Only the inputs a search
was given (the unmasked set and the gauge group) and the symbolic record
of ``simulate_measurements`` are taken from ``dyncode`` itself.  A check
returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import json
from pathlib import Path

from dyncode.classify import build_gauge_group, run_classification
from dyncode.engine import DynamicalCode, simulate_measurements
from dyncode.library import load_code
from dyncode.pauli import PauliOperator

Pauli = tuple[int, int]  # (x_mask, z_mask)


def dense(text: str) -> Pauli:
    x = z = 0
    for q, ch in enumerate(text):
        if ch in "XY":
            x |= 1 << q
        if ch in "ZY":
            z |= 1 << q
    return x, z


def anticommute(a: Pauli, b: Pauli) -> int:
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) & 1


class Span:
    """Row span over GF(2) of 2n-bit vectors, for membership tests."""

    def __init__(self, n: int, ops=()) -> None:
        self.n = n
        self.pivots: dict[int, int] = {}
        for op in ops:
            self.add(op)

    def vec(self, op: Pauli) -> int:
        return op[0] | (op[1] << self.n)

    def reduce(self, vec: int) -> int:
        for bit, row in self.pivots.items():
            if (vec >> bit) & 1:
                vec ^= row
        return vec

    def add(self, op: Pauli) -> bool:
        vec = self.reduce(self.vec(op))
        if not vec:
            return False
        self.pivots[(vec & -vec).bit_length() - 1] = vec
        return True

    def contains(self, op: Pauli) -> bool:
        return self.reduce(self.vec(op)) == 0


def evolve(n: int, gens: list[Pauli], rounds) -> list[Pauli]:
    """Stabilizer generators after measuring ``rounds`` from ``gens``.

    The lowest-index anticommuting generator is replaced by the
    measurement and multiplied into the other anticommuting ones; an
    independent commuting measurement is appended.
    """
    gens = list(gens)
    for rnd in rounds:
        for m in rnd:
            anti = [i for i, g in enumerate(gens) if anticommute(g, m)]
            if anti:
                j = anti[0]
                for i in anti[1:]:
                    gens[i] = (gens[i][0] ^ gens[j][0], gens[i][1] ^ gens[j][1])
                gens[j] = m
            elif not Span(n, gens).contains(m):
                gens.append(m)
    return gens


def center(n: int, gens: list[Pauli]) -> list[Pauli]:
    """Basis of the elements of <gens> that commute with every generator."""
    span = Span(n)
    basis = [g for g in gens if span.add(g)]
    # Combinations c of the basis with sum_i c_i <g_j, b_i> = 0 for all j.
    rows = [sum(anticommute(g, b) << i for i, b in enumerate(basis)) for g in gens]
    pivots: dict[int, int] = {}
    for row in rows:
        for bit, prow in pivots.items():
            if (row >> bit) & 1:
                row ^= prow
        if row:
            bit = (row & -row).bit_length() - 1
            for other in pivots:
                if (pivots[other] >> bit) & 1:
                    pivots[other] ^= row
            pivots[bit] = row
    result = []
    for free in range(len(basis)):
        if free in pivots:
            continue
        combo = 1 << free
        for bit, prow in pivots.items():
            if (prow >> free) & 1:
                combo |= 1 << bit
        x = z = 0
        for i, b in enumerate(basis):
            if (combo >> i) & 1:
                x, z = x ^ b[0], z ^ b[1]
        result.append((x, z))
    return result


def _read(path: Path) -> tuple[int, list[Pauli], list[list[Pauli]]]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["n"], [dense(p) for p in doc["s0"]], [[dense(p) for p in r] for r in doc["rounds"]]


def check_classify(report: dict, path: Path, op) -> list[str]:
    """|U|+|T|+|P| = |s0|, syndromes match the symbolic record, and each
    destabilizer anticommutes with exactly its own permanently masked P."""
    n, s0, rounds = _read(path)
    s0 = evolve(n, s0, rounds[: op.isg_round])
    rounds = rounds[op.isg_round:]
    problems = []
    U, T, P = report["unmasked"], report["temporarily_masked"], report["permanently_masked"]
    if len(U) + len(T) + len(P) != len(s0):
        problems.append(f"partition size {len(U)}+{len(T)}+{len(P)} != |s0| {len(s0)}")
    code = DynamicalCode.make(
        n, [PauliOperator(n, *g) for g in s0],
        [[PauliOperator(n, *m) for m in r] for r in rounds],
    )
    _, record = simulate_measurements(code, window=report["window"]["value"])
    for u in U:
        sign, symbols = 0, set()
        for kind, index in u["syndrome"]["symbols"]:
            if kind != "random-bit" or not 0 <= index < len(record):
                problems.append(f"syndrome symbol {kind}:{index} is not a measurement")
                break
            expr = record[index][2]
            sign ^= expr.sign
            symbols ^= set(expr.symbols)
        else:
            x = z = 0
            for s in symbols:
                if s.kind != "initial-stabilizer":
                    problems.append(f"syndrome of {u['operator']} keeps {s.kind} {s.index}")
                    break
                x, z = x ^ s0[s.index][0], z ^ s0[s.index][1]
            else:
                if (x, z) != dense(u["operator"]):
                    problems.append(f"syndrome of {u['operator']} reveals another stabilizer")
                if sign != (u["syndrome"]["sign"] == -1):
                    problems.append(f"syndrome sign of {u['operator']} disagrees with the record")
    members = [dense(u["operator"]) for u in U] + [dense(t) for t in T]
    masked = [dense(p["operator"]) for p in P]
    for j, p in enumerate(P):
        kappa = dense(p["destabilizer"])
        pattern = [anticommute(kappa, m) for m in members + masked]
        if pattern != [int(i == len(members) + j) for i in range(len(pattern))]:
            problems.append(f"destabilizer {j} does not anticommute with exactly its own P")
    return problems


def check_floquet(report: dict, path: Path, op) -> list[str]:
    problems = []
    if report["monotonicity_violations"]:
        problems.append(f"{len(report['monotonicity_violations'])} monotonicity violations")
    if report["growth_violations"]:
        problems.append(f"{len(report['growth_violations'])} growth violations")
    want = op.expect.get("initialization_depth")
    got = report["initialization_depth"]["value"]
    if want is not None and got != want:
        problems.append(f"initialization depth {got}, want {want}")
    return problems


def check_distance(report: dict, path: Path, op) -> list[str]:
    """Each witness has the reported weight, commutes with the search's
    constraints and lies outside its excluded group.

    Under the exhaustive policy ``d_u`` is a maximum over destabilizer
    choices and the report does not say which choice the witness belongs
    to, so it is checked against the part of the gauge group that every
    choice shares.
    """
    n, s0, _ = _read(path)
    code = load_code(path)
    result = run_classification(code)
    gauge = build_gauge_group(result, t_destab_policy=report["t_destab_policy"])
    gauge_ops = [(g.x_mask, g.z_mask) for g in gauge.generators]
    shared = gauge_ops[: len(gauge_ops) - len(gauge.t_destabs)]
    searches = {
        "d_isg": (s0, s0),
        "d_subsystem": (center(n, gauge_ops), gauge_ops),
        "d_u": ([(u.op.x_mask, u.op.z_mask) for u in result.U],
                shared if gauge.alternatives else gauge_ops),
    }
    problems = []
    for key, (constraints, excluded) in searches.items():
        entry = report[key]
        if entry["status"] != "ok":
            continue
        witness = dense(entry["witness"])
        if (witness[0] | witness[1]).bit_count() != entry["value"]["value"]:
            problems.append(f"{key} witness weight differs from {entry['value']['value']}")
        if any(anticommute(witness, c) for c in constraints):
            problems.append(f"{key} witness anticommutes with a constraint")
        if Span(n, excluded).contains(witness):
            problems.append(f"{key} witness lies in the excluded group")
    want = op.expect.get("d_isg")
    if want is not None and report["d_isg"].get("value", {}).get("value") != want:
        problems.append(f"d_isg is not the construction's distance {want}")
    return problems


def check_simulate(report: dict, path: Path, op) -> list[str]:
    return [
        f"logical {entry['logical']} formula and simulation disagree"
        for entry in report["logical_outcomes"]
        if entry.get("agree") is False
    ]


CHECKS = {
    "classify": check_classify,
    "floquet": check_floquet,
    "distance": check_distance,
    "simulate": check_simulate,
}


def check(op, output: str, path: Path) -> list[str]:
    """Problems with one op's captured JSON report (empty if correct)."""
    try:
        report = json.loads(output)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc.msg}"]
    if report.get("command") != op.command:
        return [f"report is for command {report.get('command')!r}"]
    return CHECKS[op.command](report, path, op)
