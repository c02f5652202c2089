import json

import pytest

from dyncode import (
    bacon_shor,
    honeycomb,
    honeycomb_cycle,
    honeycomb_plaquettes,
    library_fixtures,
    load_code,
    save_code,
    shor_code,
    validate_code,
)
from dyncode import library
from dyncode.engine import ValidationError
from dyncode.gf2 import rank
from dyncode.pauli import encode, parse_pauli, symplectic_product, weight


class TestBuilders:
    def test_shor_is_clean(self):
        code = shor_code()
        assert validate_code(code) == []
        assert code.n == 9 and len(code.s0) == 8
        assert len(code.rounds[0]) == 8

    def test_masked_shor_withholds_one_check(self):
        code = shor_code(mask_z1z2=True)
        assert validate_code(code) == []
        assert len(code.rounds[0]) == 7

    def test_bacon_shor_is_clean(self):
        code = bacon_shor(3, 3)
        assert validate_code(code) == []
        assert code.n == 9 and len(code.s0) == 4

    def test_bacon_shor_rejects_thin_grids(self):
        with pytest.raises(ValueError):
            bacon_shor(1, 4)


class TestHoneycomb:
    def test_rejects_uncolorable_tori(self):
        for cells in [(4, 3), (3, 4), (2, 3)]:
            with pytest.raises(ValueError):
                honeycomb_cycle(*cells)

    def test_cycle_shape(self):
        n, cycle = honeycomb_cycle(3, 3)
        assert n == 18
        assert [len(rnd) for rnd in cycle] == [9, 9, 9]
        for rnd in cycle:
            assert all(weight(m) == 2 for m in rnd)

    def test_plaquettes_commute_with_every_check(self):
        n, cycle = honeycomb_cycle(3, 3)
        plaquettes = honeycomb_plaquettes(3, 3)
        assert len(plaquettes) == 9
        for color, plaquette in plaquettes:
            assert weight(plaquette) == 6
            for rnd in cycle:
                for m in rnd:
                    assert symplectic_product(plaquette, m) == 0

    def test_code_starts_from_the_steady_state(self):
        code = honeycomb(3, 3)
        assert validate_code(code) == []
        assert rank([encode(op) for op in code.s0], 2 * code.n) == 16
        assert len(code.rounds) == 6


class TestFileRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "code.json"
        original = shor_code(mask_z1z2=True)
        save_code(original, path)
        loaded = load_code(path)
        assert loaded.n == original.n
        assert list(loaded.s0) == list(original.s0)
        assert [list(r) for r in loaded.rounds] == [
            list(r) for r in original.rounds
        ]
        assert loaded.labels == original.labels

    def diagnostics_of(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc_info:
            load_code(path)
        return exc_info.value.diagnostics

    def test_malformed_json_reports_the_line(self, tmp_path):
        diags = self.diagnostics_of(tmp_path, '{\n"n": 2,\n!!!\n}')
        assert diags[0]["kind"] == "json-parse-error"
        assert diags[0]["line"] == 3

    def test_deep_nesting_is_a_parse_error(self, tmp_path):
        # json.loads raises RecursionError here, not JSONDecodeError.
        diags = self.diagnostics_of(tmp_path, "[" * 100_000)
        assert [d["kind"] for d in diags] == ["json-parse-error"]
        assert diags[0]["message"]

    def test_overlong_integer_is_a_parse_error(self, tmp_path):
        # Past 4,300 digits json.loads raises ValueError from the limit on
        # int-string conversion; that error carries no line.
        diags = self.diagnostics_of(tmp_path, '{"n": ' + "7" * 5000 + "}")
        assert [d["kind"] for d in diags] == ["json-parse-error"]
        assert "line" not in diags[0] and diags[0]["message"]

    def test_unsupported_version(self, tmp_path):
        document = {"version": 99, "n": 2, "s0": [], "rounds": []}
        diags = self.diagnostics_of(tmp_path, json.dumps(document))
        assert any(d["kind"] == "unsupported-version" for d in diags)

    def test_bad_qubit_count(self, tmp_path):
        document = {"version": 1, "n": "two", "s0": [], "rounds": []}
        diags = self.diagnostics_of(tmp_path, json.dumps(document))
        assert any(d["kind"] == "bad-field" for d in diags)

    def test_bad_pauli_string_is_located(self, tmp_path):
        document = {
            "version": 1,
            "n": 2,
            "s0": ["ZZ"],
            "rounds": [["XX"], ["Q?"]],
        }
        diags = self.diagnostics_of(tmp_path, json.dumps(document))
        [diag] = diags
        assert diag["kind"] == "bad-pauli"
        assert diag["where"] == "round 2" and diag["index"] == 0

    def test_structurally_invalid_code_is_rejected(self, tmp_path):
        document = {
            "version": 1,
            "n": 2,
            "s0": ["XI", "ZI"],
            "rounds": [],
        }
        diags = self.diagnostics_of(tmp_path, json.dumps(document))
        assert any(d["kind"] == "commutation-violation" for d in diags)


class TestSharedParse:
    """Each distinct Pauli string of a file is parsed once."""

    def write(self, tmp_path, s0, rounds, n=3):
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"version": 1, "n": n, "s0": s0, "rounds": rounds}))
        return path

    def test_equal_strings_give_one_operator(self, tmp_path, monkeypatch):
        parsed = []

        def counting(text, n):
            parsed.append(text)
            return parse_pauli(text, n)

        monkeypatch.setattr(library, "parse_pauli", counting)
        path = self.write(tmp_path, ["ZZI"], [["ZZI", "IIX"], ["IIX"], ["ZZI"]])
        code = load_code(path)
        assert sorted(parsed) == ["IIX", "ZZI"]
        assert code.s0[0] is code.rounds[0][0] is code.rounds[2][0]
        assert code.rounds[0][1] is code.rounds[1][0]

    def test_repeated_malformed_string_is_reported_at_every_occurrence(self, tmp_path):
        path = self.write(tmp_path, ["XQ", "ZI"], [["XQ"], ["IZ", "XQ", 7]], n=2)
        with pytest.raises(ValidationError) as exc_info:
            load_code(path)
        message = "invalid Pauli character 'Q' in 'XQ'"
        assert exc_info.value.diagnostics == [
            {"kind": "bad-pauli", "where": "s0", "index": 0, "message": message},
            {"kind": "bad-pauli", "where": "round 1", "index": 0, "message": message},
            {"kind": "bad-pauli", "where": "round 2", "index": 1, "message": message},
            {"kind": "bad-pauli", "where": "round 2", "index": 2,
             "message": "expected a Pauli string, got int"},
        ]

    def test_repeated_round_violation_is_reported_under_every_copy(self, tmp_path):
        path = self.write(tmp_path, ["ZZ"], [["XI", "ZI"], ["ZZ"], ["XI", "ZI"]], n=2)
        with pytest.raises(ValidationError) as exc_info:
            load_code(path)
        assert exc_info.value.diagnostics == [
            {"kind": "commutation-violation", "where": "round 1", "pair": (0, 1)},
            {"kind": "commutation-violation", "where": "round 3", "pair": (0, 1)},
        ]


class TestFixtures:
    def test_fixture_set(self):
        fixtures = library_fixtures()
        assert [f.name for f in fixtures] == [
            "shor",
            "shor-masked",
            "bacon-shor-3x3",
            "honeycomb-3x3",
            "1d-chain-10",
        ]
        for fixture in fixtures:
            assert validate_code(fixture.code) == []
            for entry in fixture.reference.values():
                assert {"value", "provenance"} <= set(entry)
