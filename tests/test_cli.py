import json
import os
import random
import tempfile
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyncode import (
    DynamicalCode,
    bacon_shor,
    build_1d_chain,
    build_gauge_group,
    honeycomb,
    run_classification,
    save_code,
    shor_code,
    simulate_measurements,
)
from dyncode import classify, cli, engine, pauli
from dyncode.cli import _dumps, _expr_to_json, main, parse_error_spec
from dyncode.engine import ValidationError
from dyncode.pauli import format_pauli, parse_pauli, symplectic_product, weight

from oracles import forced_split, group_elements, random_instance, reference_exhaustive_d_u


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def shor_file(tmp_path):
    path = tmp_path / "shor.json"
    save_code(shor_code(), path)
    return str(path)


@pytest.fixture
def masked_shor_file(tmp_path):
    path = tmp_path / "shor-masked.json"
    save_code(shor_code(mask_z1z2=True), path)
    return str(path)


def run_json(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestValidate:
    def test_clean_file(self, runner, shor_file):
        report = run_json(runner, ["validate", shor_file])
        assert report["diagnostics"] == []
        assert report["n"]["value"] == 9
        assert report["rounds"]["value"] == 1
        assert len(report["input_digest"]) == 64

    def test_malformed_file_exits_1(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 1

    def test_text_format(self, runner, shor_file):
        result = runner.invoke(
            main, ["validate", shor_file, "--format", "text"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert "n: 9" in result.output


class TestClassify:
    def test_masked_shor(self, runner, masked_shor_file):
        report = run_json(runner, ["classify", masked_shor_file])
        assert report["temporarily_masked"] == ["ZZIIIIIII"]
        assert report["permanently_masked"] == []
        assert len(report["unmasked"]) == 7
        assert report["generator_tags"].count("unmasked") == 7

    def test_output_is_deterministic(self, runner, masked_shor_file):
        first = runner.invoke(main, ["classify", masked_shor_file])
        second = runner.invoke(main, ["classify", masked_shor_file])
        assert first.output == second.output

    def test_isg_round_shifts_the_start(self, runner, tmp_path):
        n = 6
        code = DynamicalCode.make(
            n,
            [parse_pauli(" ".join(f"X{i}" for i in range(1, 7)), n)],
            [
                [parse_pauli("X1 X2", n)],
                [parse_pauli("X3 X4", n)],
                [parse_pauli("X5 X6", n)],
            ],
        )
        path = tmp_path / "chain.json"
        save_code(code, path)
        report = run_json(runner, ["classify", str(path), "--isg-round", "1"])
        assert report["window"]["value"] == 2
        # The round-1 check itself is never remeasured, so of the shifted
        # initial group only the complementary chain is unmasked.
        assert len(report["unmasked"]) == 1
        assert report["unmasked"][0]["operator"] == "IIXXXX"
        assert report["temporarily_masked"] == ["XXXXXX"]

    def test_isg_round_matches_an_independent_shift(self, runner, tmp_path):
        # One file at several --isg-round values, one of them twice: each
        # report matches a code shifted by hand from a fresh build.
        path = tmp_path / "chain.json"
        save_code(build_1d_chain(12), path)
        for isg_round in (5, 2, 9, 5):
            report = run_json(runner, ["classify", str(path), "--isg-round", str(isg_round)])
            fresh = build_1d_chain(12)
            state, _ = simulate_measurements(fresh, window=isg_round)
            expected = run_classification(
                DynamicalCode.make(fresh.n, state.generators, fresh.rounds[isg_round:])
            )
            assert report["unmasked"] == [
                {"operator": format_pauli(u.op), "syndrome": _expr_to_json(u.syndrome)}
                for u in expected.U
            ]
            assert report["temporarily_masked"] == [format_pauli(t) for t in expected.T]
            assert report["permanently_masked"] == [
                {"operator": format_pauli(p), "destabilizer": format_pauli(k)}
                for p, k in zip(expected.P, expected.K)
            ]
            assert report["generator_tags"] == expected.tags


class TestDistance:
    def test_masked_shor_distances(self, runner, masked_shor_file):
        report = run_json(
            runner, ["distance", masked_shor_file, "--cap", "4"]
        )
        assert report["d_u"]["value"]["value"] == 2
        assert report["d_isg"]["value"]["value"] == 3
        assert report["t_destab_policy"] == "canonical"

    @pytest.mark.parametrize("policy", ["canonical", "exhaustive"])
    def test_d_subsystem_shares_the_d_u_search(self, runner, masked_shor_file, policy,
                                               monkeypatch):
        """The gauge group's center is span(U): without destabilizer choices
        d_u's search is the subsystem search, so it runs once, and with
        them d_u is one search over every choice."""
        calls = []
        search = classify._min_weight_outside

        def counting(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(classify, "_min_weight_outside", counting)
        args = ["distance", masked_shor_file, "--cap", "4", "--t-destab", policy]
        report = run_json(runner, args)
        if policy == "canonical":
            assert len(calls) == 2  # d_u and d_subsystem, then d_isg
            assert report["d_subsystem"] == report["d_u"]
        else:
            # one search for d_u over every choice, then d_subsystem and d_isg
            report = run_classification(shor_code(mask_z1z2=True))
            assert build_gauge_group(report, t_destab_policy=policy).has_choices()
            assert len(calls) == 3

    def test_cap_exceeded_status(self, runner, shor_file):
        report = run_json(runner, ["distance", shor_file, "--cap", "2"])
        assert report["d_isg"]["status"] == "exceeded-cap"


class TestTableLimit:
    """Under the half split with a limit of 100 entries, weights up to 3
    need tables of at most 3n entries, and weight 4 needs a table of
    C(n, 2) * 9 pairs (324 for n = 9, 1,080 for n = 16) and ends in
    cap-exceeded."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(pauli, "_MAX_TABLE", 100)
        with forced_split("halves"):
            yield

    @pytest.fixture
    def distance_four_file(self, tmp_path):
        # Shor's construction on four blocks of four qubits: distance 4.
        n = 16
        checks = [f"Z{4 * b + i} Z{4 * b + i + 1}" for b in range(4) for i in (1, 2, 3)]
        checks += [" ".join(f"X{q}" for q in range(4 * b + 1, 4 * b + 9)) for b in range(3)]
        ops = [parse_pauli(check, n) for check in checks]
        path = tmp_path / "shor-4x4.json"
        save_code(DynamicalCode.make(n, ops, [ops]), path)
        return str(path)

    def test_a_search_ending_below_the_limit_answers(self, runner, shor_file, distance_four_file):
        report = run_json(runner, ["distance", shor_file])
        assert [report[key]["value"]["value"] for key in ("d_u", "d_subsystem", "d_isg")] == [3] * 3
        report = run_json(runner, ["distance", distance_four_file, "--cap", "3"])
        assert {report[key]["status"] for key in ("d_u", "d_subsystem", "d_isg")} == {"exceeded-cap"}
        report = run_json(runner, ["simulate", distance_four_file, "--max-weight", "1"])
        assert report["decoding"]["ok"] is True

    @pytest.mark.parametrize("args", [["distance", "--cap", "4"], ["simulate", "--max-weight", "2"]])
    def test_a_table_past_the_limit_is_cap_exceeded(self, runner, distance_four_file, args):
        result = runner.invoke(main, [args[0], distance_four_file, *args[1:]])
        assert result.exit_code == 2
        assert result.stdout == ""
        error = json.loads(result.stderr)
        assert error["error"] == "cap-exceeded" and "1080" in error["message"]


def _check_witnesses(code, report, cap):
    """Each reported witness has its reported weight (at most ``cap``),
    commutes with its search's constraints and lies outside its excluded
    group, both expanded element by element.

    Under the exhaustive policy ``d_u`` is a maximum over destabilizer
    choices and the report does not name the witness's choice, so its
    excluded group is the part of the gauge group every choice shares.
    """
    n = code.n
    result = run_classification(code)
    gauge = build_gauge_group(result, t_destab_policy=report["t_destab_policy"])
    generators = list(gauge.generators)
    shared = generators[: len(generators) - len(gauge.t_destabs)]
    center = [
        e for e in group_elements(generators, n)
        if not any(symplectic_product(e, g) for g in generators)
    ]
    searches = {
        "d_isg": (list(code.s0), list(code.s0)),
        "d_subsystem": (center, generators),
        "d_u": ([u.op for u in result.U], shared if gauge.alternatives else generators),
    }
    for key, (constraints, excluded) in searches.items():
        entry = report[key]
        if entry["status"] == "exceeded-cap":
            assert entry["cap"]["value"] == cap, key
        if entry["status"] != "ok":
            assert entry["status"] in ("exceeded-cap", "no-logicals"), key
            continue
        witness = parse_pauli(entry["witness"], n)
        assert weight(witness) == entry["value"]["value"] <= cap, key
        assert not any(symplectic_product(witness, c) for c in constraints), key
        assert witness not in group_elements(excluded, n), key


def invoke_without_traceback(code, command: str, options: list[str]):
    """Run one command line on ``code``, saved to a temporary file, and
    check that it ended by itself or by ``sys.exit``, with no traceback."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "code.json")
        save_code(code, path)
        result = CliRunner().invoke(main, [command, path, *options])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    return result


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_distance_ends_in_a_verdict_or_a_diagnostic(seed, data):
    """Random small codes, every cap from -1 to n+1, both destabilizer
    policies: exit 0 with checked witnesses, or 1/2 with a JSON error."""
    code = random_instance(random.Random(seed), max_n=6, max_s0=4)
    cap = data.draw(st.integers(-1, code.n + 1), label="cap")
    policy = data.draw(st.sampled_from(["canonical", "exhaustive"]), label="policy")
    result = invoke_without_traceback(code, "distance", ["--cap", str(cap), "--t-destab", policy])
    assert result.exit_code in (0, 1, 2)
    if result.exit_code:
        error = json.loads(result.stderr)
        assert error["error"] == {1: "validation", 2: "cap-exceeded"}[result.exit_code]
        if cap < 0:
            assert "cap-out-of-range" in [d["kind"] for d in error["diagnostics"]]
        return
    assert cap >= 0
    _check_witnesses(code, json.loads(result.output), cap)


@pytest.mark.parametrize("policy", ["canonical", "exhaustive"])
def test_negative_cap_is_rejected_before_the_coset_enumeration(policy):
    # This code's destabilizers have 2^16 choices; when the exhaustive
    # policy enumerated at most 4,096 of them, the run ended with
    # cap-exceeded (exit 2) before the cap itself was checked.
    code = random_instance(random.Random(874), max_n=6, max_s0=4)
    result = invoke_without_traceback(code, "distance", ["--cap", "-1", "--t-destab", policy])
    assert result.exit_code == 1
    assert json.loads(result.stderr) == {
        "error": "validation", "diagnostics": [{"kind": "cap-out-of-range", "cap": -1}],
    }


def test_exhaustive_distance_has_no_coset_cap():
    """The code above, with its 2^16 destabilizer choices: ``d_u`` equals
    one search per choice, where the run once exited 2."""
    code = random_instance(random.Random(874), max_n=6, max_s0=4)
    result = invoke_without_traceback(code, "distance", ["--t-destab", "exhaustive"])
    assert result.exit_code == 0, result.stderr
    report = run_classification(code)
    gauge = build_gauge_group(report, t_destab_policy="exhaustive")
    want = reference_exhaustive_d_u(report, gauge, cap=6)
    d_u = json.loads(result.output)["d_u"]
    assert d_u["status"] == "ok" and d_u["value"]["value"] == want.value
    assert d_u["witness"] == format_pauli(want.witness)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_every_command_ends_in_a_report_or_a_diagnostic(seed, data):
    """Random small codes under validate, classify (with --window and
    --isg-round, in range or not), floquet and simulate: exit 0 with a
    JSON report, or 1-3 with a JSON error, and never a traceback."""
    code = random_instance(random.Random(seed), max_n=6, max_s0=4)
    rounds = st.integers(-1, len(code.rounds) + 1)
    command = data.draw(st.sampled_from(["validate", "classify", "floquet", "simulate"]))
    options = []
    if command == "classify":
        isg_round = data.draw(rounds)
        window = data.draw(st.integers(-1, len(code.rounds) - max(isg_round, 0) + 1))
        options = ["--window", str(window), "--isg-round", str(isg_round)]
    elif command == "floquet":
        options = ["--max-cycles", str(data.draw(st.integers(-1, 4)))]
    elif command == "simulate":
        letter = data.draw(st.sampled_from("XYZ"))
        qubit = data.draw(st.integers(1, code.n))
        options = ["--errors", f"{data.draw(rounds)}:{letter}{qubit}",
                   "--seed", str(data.draw(st.integers(-5, 5))),
                   "--max-weight", str(data.draw(st.integers(-1, 2)))]
    result = invoke_without_traceback(code, command, options)
    assert result.exit_code in (0, 1, 2, 3)
    if result.exit_code:
        error = json.loads(result.stderr)
        expected = {1: "validation", 2: "cap-exceeded", 3: "internal-invariant"}
        assert error["error"] == expected[result.exit_code]
    else:
        assert json.loads(result.output)["command"] == command


class TestFloquet:
    def test_chain_report(self, runner, tmp_path):
        from dyncode import build_1d_chain

        path = tmp_path / "chain.json"
        save_code(build_1d_chain(6), path)
        report = run_json(runner, ["floquet", str(path)])
        assert report["monotonicity_violations"] == []
        assert report["growth_violations"] == []
        assert report["initialization_depth"]["value"] >= 1

    def test_unsettled_syndromes_exit_2(self, runner, tmp_path):
        code = DynamicalCode.make(
            2, [parse_pauli("Z1", 2)], [[parse_pauli("Z2", 2)]]
        )
        path = tmp_path / "stuck.json"
        save_code(code, path)
        result = runner.invoke(main, ["floquet", str(path)])
        assert result.exit_code == 2


class TestSimulate:
    def test_error_injection(self, runner, shor_file):
        report = run_json(
            runner, ["simulate", shor_file, "--errors", "0:X1"]
        )
        assert report["errors"] == {"0": "XIIIIIIII"}
        flips = {
            entry["stabilizer"]: entry["flip"]["value"]
            for entry in report["syndromes"]
        }
        # The classifier reports the unmasked group in a reduced basis;
        # X on qubit 1 flips exactly the entry touching Z1.
        assert flips["ZIZIIIIII"] == 1
        assert flips["IZZIIIIII"] == 0
        assert report["decoding"]["ok"] is True
        for entry in report["logical_outcomes"]:
            assert entry["status"] == "ok"
            assert entry["agree"] is True

    def test_logical_basis_is_built_once(self, runner, shor_file, monkeypatch):
        calls = []
        basis = engine.canonical_logicals

        def counting(n, generators):
            calls.append(n)
            return basis(n, generators)

        monkeypatch.setattr(engine, "canonical_logicals", counting)
        report = run_json(runner, ["simulate", shor_file, "--errors", "0:X1"])
        assert calls == [9]
        assert [entry["status"] for entry in report["logical_outcomes"]] == ["ok", "ok"]

    def test_round_out_of_range_exits_1(self, runner, shor_file):
        result = runner.invoke(main, ["simulate", shor_file, "--errors", "9:X1"])
        assert result.exit_code == 1

    def test_bad_error_spec(self, runner, shor_file):
        result = runner.invoke(main, ["simulate", shor_file, "--errors", "X1"])
        assert result.exit_code == 1

    def test_huge_max_weight_is_one_capped_search(self, runner, shor_file):
        # The search stops at its witness of weight 3, whatever the cap.
        report = run_json(runner, ["simulate", shor_file, "--max-weight", "1000000"])
        decoding = report["decoding"]
        assert decoding["ok"] is False
        assert decoding["max_weight"]["value"] == 1000000
        first, second = (parse_pauli(op, 9) for op in decoding["violation"])
        assert weight(first) + weight(second) == 3

    def test_weight_four_on_honeycomb_is_decided(self, runner, tmp_path):
        # The 271,324 errors of weight <= 4 once ended this check with
        # cap-exceeded (exit 2); the search finds a logical of weight 4.
        path = tmp_path / "h.json"
        save_code(honeycomb(3, 3), path)
        report = run_json(runner, ["simulate", str(path), "--max-weight", "4"])
        assert report["decoding"]["ok"] is False
        assert len(report["decoding"]["violation"]) == 2

    def test_a_logical_equal_to_a_measurement_is_measured_out(self, runner, tmp_path):
        # Measuring IZ reads out the logical ZX and equals the logical IZ.
        path = _write(tmp_path, {"version": 1, "n": 2, "s0": ["XZ"], "rounds": [["IZ"], ["IY"]]})
        report = run_json(runner, ["simulate", path])
        assert report["logical_outcomes"] == [
            {"logical": "IZ", "status": "measured-out"},
            {"logical": "ZX", "status": "measured-out"},
        ]

    @pytest.mark.parametrize("code", [bacon_shor(3, 3), build_1d_chain(10)], ids=["bs33", "c10"])
    def test_traced_logicals_are_compared_when_others_are_measured_out(
        self, runner, tmp_path, code
    ):
        """Each trace is paired with the simulated value of its own tracked
        slot, so a logical measured out elsewhere drops no comparison."""
        path = tmp_path / "code.json"
        save_code(code, path)
        report = run_json(runner, ["simulate", str(path), "--errors", "0:X1,1:Z2", "--seed", "5"])
        statuses = [entry["status"] for entry in report["logical_outcomes"]]
        assert "measured-out" in statuses and "ok" in statuses
        for entry in report["logical_outcomes"]:
            if entry["status"] == "ok":
                assert entry["agree"] is True
                assert entry["simulated_value"] == entry["formula_value"]

    def test_parse_error_spec(self):
        errors = parse_error_spec("0:X1,2:Z1 Z2", 3)
        assert errors == {
            0: parse_pauli("X1", 3),
            2: parse_pauli("Z1 Z2", 3),
        }
        assert parse_error_spec("", 3) == {}
        with pytest.raises(ValidationError):
            parse_error_spec("one:X1", 3)


def _write(tmp_path, document):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(document))
    return str(path)


@pytest.mark.parametrize(
    "command, document, options, kind",
    [
        ("classify", {"version": 1, "n": 2, "s0": [5], "rounds": []}, [], "bad-pauli"),
        ("classify", {"version": 1, "n": 2, "s0": [], "rounds": [[None]]}, [],
         "bad-pauli"),
        ("classify", {"version": 1, "n": True, "s0": [], "rounds": []}, [], "bad-field"),
        ("classify", {"version": 1, "n": 2, "s0": [], "rounds": "XX"}, [], "bad-field"),
        ("classify", {"version": 1, "n": 2, "s0": [], "rounds": ["XX"]}, [], "bad-field"),
        ("classify", {"version": 1, "n": 2, "s0": None, "rounds": []}, [], "bad-field"),
        ("classify", {"version": True, "n": 2, "s0": [], "rounds": []}, [],
         "unsupported-version"),
        ("classify", {"version": 1.0, "n": 2, "s0": [], "rounds": []}, [],
         "unsupported-version"),
        ("classify", {"version": 1, "n": 2, "s0": ["ZZ"], "rounds": [["XX"]]},
         ["--window", "-1"], "window-out-of-range"),
        ("floquet", {"version": 1, "n": 2, "s0": ["ZZ"], "rounds": []}, [],
         "empty-schedule"),
        ("simulate", {"version": 1, "n": 2, "s0": ["ZZ"], "rounds": [["XX"]]},
         ["--errors", "0:Q1"], "bad-error-spec"),
        ("classify", {"version": 1, "n": 2, "s0": ["ZZ"], "rounds": [["XX"]]},
         ["--isg-round", "999"], "window-too-large"),
        ("classify", {"version": 1, "n": 2, "s0": ["ZZ"], "rounds": [["XX"]]},
         ["--isg-round", "-3"], "window-out-of-range"),
        ("simulate", {"version": 1, "n": 2, "s0": ["ZZ"], "rounds": [["XX"]]},
         ["--errors", "0:X1,0:Z1"], "bad-error-spec"),
        ("distance", {"version": 1, "n": 2, "s0": ["ZZ"], "rounds": [["XX"]]},
         ["--cap", "-1"], "cap-out-of-range"),
        ("simulate", {"version": 1, "n": 2, "s0": ["ZZ"], "rounds": [["XX"]]},
         ["--max-weight", "-1"], "max-weight-out-of-range"),
    ],
    ids=[
        "non-string-pauli", "non-string-measurement", "boolean-n",
        "string-rounds", "string-round", "null-s0", "boolean-version", "float-version",
        "negative-window", "floquet-empty-schedule", "unparsable-error-pauli",
        "isg-round-too-large", "negative-isg-round", "repeated-error-round",
        "negative-cap", "negative-max-weight",
    ],
)
def test_bad_input_is_a_diagnostic(runner, tmp_path, command, document, options, kind):
    result = runner.invoke(
        main, [command, _write(tmp_path, document), *options],
        catch_exceptions=False,
    )
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    error = json.loads(result.stderr)
    assert error["error"] == "validation"
    assert kind in [d["kind"] for d in error["diagnostics"]]


# Files the JSON parser refuses: deep nesting, an integer past the limit
# on int-string conversion, and a byte that is not UTF-8.
REFUSED = [
    b"[" * 100_000,
    b'{"version": 1, "n": ' + b"9" * 5000 + b', "s0": [], "rounds": []}',
    b'{"n": "\xff"}',
]
COMMAND_NAMES = ["validate", "classify", "distance", "floquet", "simulate"]


@pytest.mark.parametrize("text", REFUSED, ids=["deep-nesting", "long-integer", "invalid-utf-8"])
@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_json_the_parser_refuses_is_a_parse_error(runner, tmp_path, command, text):
    path = tmp_path / "code.json"
    path.write_bytes(text)
    result = runner.invoke(main, [command, str(path)], catch_exceptions=False)
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    error = json.loads(result.stderr)
    assert [d["kind"] for d in error["diagnostics"]] == ["json-parse-error"]


# Replacement field values: other JSON types, and a negative integer.
OTHER_TYPES = [None, True, 2.5, "2", [], {}, [[]], {"n": 2}, -1]
FIELDS = ["version", "n", "s0", "rounds", "labels"]


def _broken_pauli(draw, text: str, n: int):
    return draw(st.sampled_from([
        text[:-1], text + "X", "Q" + text[1:], "", " ", "-" + text, text.lower(),
        "X0", f"X{n + 1}", "X1 X1", "X1Z2", "\u00e9" * n, "I", 7, None, [text],
    ]))


@st.composite
def malformed_documents(draw):
    """A valid code document with one to three structural mutations:
    a dropped or retyped field, a wrong nesting, or a broken Pauli
    string; sometimes wrapped in a list."""
    code = random_instance(random.Random(draw(st.integers(0, 2**32 - 1))), max_n=5, max_s0=3)
    document = {
        "version": 1, "n": code.n, "labels": {"name": "drawn"},
        "s0": [format_pauli(op) for op in code.s0],
        "rounds": [[format_pauli(op) for op in rnd] for rnd in code.rounds],
    }
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(["drop", "retype", "nest", "pauli"]))
        field = draw(st.sampled_from(FIELDS))
        if mutation == "drop":
            document.pop(field, None)
        elif mutation == "retype":
            document[field] = draw(st.sampled_from(OTHER_TYPES))
        elif mutation == "nest":
            source, target = draw(st.sampled_from(
                [("s0", "s0"), ("rounds", "rounds"), ("s0", "rounds"), ("rounds", "s0")]
            ))
            document[target] = [document.get(source)] if source == target else document.get(source)
        else:
            rounds = document.get("rounds")
            lists = [document.get("s0"), *(rounds if isinstance(rounds, list) else [])]
            lists = [entry for entry in lists if isinstance(entry, list) and entry]
            if lists:
                strings = draw(st.sampled_from(lists))
                i = draw(st.integers(0, len(strings) - 1))
                text = strings[i] if isinstance(strings[i], str) else "X"
                strings[i] = _broken_pauli(draw, text, code.n)
    if draw(st.booleans()) and draw(st.booleans()):
        document = [document]
    return json.dumps(document).encode()


@settings(max_examples=40, deadline=None)
@given(malformed_documents())
@example(REFUSED[0])
@example(REFUSED[1])
@example(REFUSED[2])
def test_malformed_documents_end_in_a_json_report_or_diagnostic(text):
    """Every command on a mutated or refused file: exit 0 with a JSON
    report, or 1-3 with a JSON error, and never a traceback."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "code.json")
        with open(path, "wb") as handle:
            handle.write(text)
        for command in COMMAND_NAMES:
            result = CliRunner().invoke(main, [command, path])
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                command, result.exception,
            )
            assert result.exit_code in (0, 1, 2, 3), command
            if result.exit_code:
                expected = {1: "validation", 2: "cap-exceeded", 3: "internal-invariant"}
                assert json.loads(result.stderr)["error"] == expected[result.exit_code]
            else:
                assert json.loads(result.output)["command"] == command


def stdlib_dump(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def assert_plain_json(node) -> None:
    """Only str keys and no float anywhere: the values orjson writes as
    the stdlib does."""
    if isinstance(node, dict):
        for key, value in node.items():
            assert type(key) is str, key
            assert_plain_json(value)
    elif isinstance(node, (list, tuple)):
        for item in node:
            assert_plain_json(item)
    else:
        assert node is None or isinstance(node, (str, int)), node


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(COMMAND_NAMES))
def test_random_code_reports_are_the_stdlib_dump(seed, command):
    """Random small codes under every command: stdout is byte for byte the
    indented stdlib dump of the report, and the report object itself holds
    str keys only and no float."""
    code = random_instance(random.Random(seed), max_n=6, max_s0=4)
    with mock.patch.object(cli, "_dumps", wraps=cli._dumps) as dumps:
        result = invoke_without_traceback(code, command, [])
    if result.exit_code == 0:
        assert result.stdout == stdlib_dump(json.loads(result.stdout)) + "\n"
        (report,), _ = dumps.call_args
        assert_plain_json(report)
    else:
        assert not result.stdout and not dumps.called


class TestStdlibFallback:
    """An int past 64 bits, which orjson refuses, is written by the stdlib."""

    BIG = 2**70  # 1180591620717411303424

    def assert_stdlib_bytes(self, runner, args) -> dict:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (result.exception, result.stderr)
        with mock.patch.object(cli, "_dumps", stdlib_dump):
            reference = runner.invoke(main, args)
        assert result.stdout == reference.stdout
        return json.loads(result.stdout)

    @pytest.mark.parametrize("option", ["--seed", "--max-weight"])
    def test_simulate_option(self, runner, shor_file, option):
        report = self.assert_stdlib_bytes(runner, ["simulate", shor_file, option, str(self.BIG)])
        field = report["seed"] if option == "--seed" else report["decoding"]["max_weight"]
        assert field["value"] == self.BIG

    def test_validate_n(self, runner, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"version": 1, "n": self.BIG, "s0": [], "rounds": []}))
        report = self.assert_stdlib_bytes(runner, ["validate", str(path)])
        assert report["n"]["value"] == self.BIG


@pytest.mark.parametrize("value", [
    {"key": "caf\u00e9 \u2603"},  # non-ASCII: the stdlib escapes it
    {"caf\u00e9": 1, "cafe": 2},
    ["\x7f"],  # DEL is ASCII, but the stdlib escapes it
    ["\x00\t\n\x1f\"\\ ~"],
    {1: "int key", 0: None},  # orjson refuses non-str keys
    {"a": [2**64 - 1, -(2**63), True, (1, [])], "b": {}},
])
def test_dumps_is_the_stdlib_dump(value):
    assert _dumps(value) == stdlib_dump(value)


@pytest.mark.parametrize("report", [{}, {"a": [], "b": {}}])
def test_an_empty_text_report_prints_nothing(report, capsys):
    cli._emit(report, "text")
    assert capsys.readouterr().out == ""
