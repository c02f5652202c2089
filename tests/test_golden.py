"""Golden-output regression test of the command line.

Every CLI report is compared, by sha256, against a digest recorded before
the stabilizer update was refactored into one shared pivot step, so any
change to a report's bytes (operators, syndrome formulas, destabilizers,
distances, witnesses, exit codes or diagnostics) fails here.

The inputs are the library fixtures plus a few seeded random instances,
chosen so that each reaches all four commutation cases of the
classification and leaves unmasked, temporarily masked and permanently
masked generators.  ``tool_version`` is dropped from each report because
it depends on whether the package is installed.

To print the digests of the current code: ``PYTHONPATH=src:tests python
tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random

import pytest
from click.testing import CliRunner

from dyncode import library_fixtures, run_classification, save_code
from dyncode.cli import main

from oracles import random_instance, reference_emit_text

# (seed, random_instance keyword arguments)
RANDOM_CODES = {
    "random-249": (249, {}),
    "random-301": (301, {}),
    "random-38": (38, {"max_measurements": 12}),
    "random-142": (142, {"max_measurements": 12}),
}

COMMANDS = {
    "classify": ["classify"],
    "classify-isg1": ["classify", "--isg-round", "1"],
    "distance-canonical": ["distance", "--t-destab", "canonical"],
    "distance-exhaustive": ["distance", "--t-destab", "exhaustive"],
    "floquet": ["floquet"],
    "simulate": ["simulate", "--errors", "0:X1,1:Z2", "--seed", "5"],
}


def codes() -> dict:
    found = {spec.name: spec.code for spec in library_fixtures()}
    for name, (seed, kwargs) in RANDOM_CODES.items():
        found[name] = random_instance(random.Random(seed), **kwargs)
    return found


def report_digest(runner: CliRunner, path: str, command: str) -> str:
    """sha256 over the exit code, the report without ``tool_version`` and
    the diagnostics on stderr."""
    args = COMMANDS[command]
    result = runner.invoke(main, [args[0], path, *args[1:]])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exception
    )
    stdout = result.stdout
    if stdout:
        report = json.loads(stdout)
        report.pop("tool_version")
        stdout = json.dumps(report, indent=2, sort_keys=True)
    payload = f"{result.exit_code}\n{stdout}\n{result.stderr}"
    return hashlib.sha256(payload.encode()).hexdigest()


GOLDEN = {
    "shor:classify": "312f29d5fb0d6dc2e89e14dcbcf1a457cfc3b2323a3ef3962d8f50ebbafd7f39",
    "shor:classify-isg1": "c4904855d3a917e00bb15c066a90f982925b1a5dc3c269ba2b348faded8d61ef",
    "shor:distance-canonical": "d8bb48220aa7f65049ca92865194bb6bf980088e61a8b53a9153655e0f4bfd55",
    "shor:distance-exhaustive": "cdd747b1bdfb24112b6a36576171b5ca43fdbf544df40da7de03b31e846dd957",
    "shor:floquet": "71a74590b246776b46366bde56d5acf08959d5bece567a9ddd21d83342e136a2",
    "shor:simulate": "58fb71f1d2c70afcf50e24fa033e5eca4ed1de92927e73d8385615beb92bbbf2",
    "shor-masked:classify": "59171e73ba43585b33de509cb7d6a9d997083984affe71534bff8e13e636f840",
    "shor-masked:classify-isg1": "8d8d022575bb1b7bbf15160f71965b4f47f5865adbad7e14610e7ba8663c9b38",
    "shor-masked:distance-canonical": "a5118cd620f9259083195099efd34145ed9b19488706e1a9ab3fdc9a2953c093",
    "shor-masked:distance-exhaustive": "515c566fe9a0555044e2c2f13eb7a11e0cfb0b36f46b7725e7a98b1565d566cf",
    "shor-masked:floquet": "a91a6fd36aac8b1a877b039141f3bdc0f71b7d2ba3674da3564ef3753dbb17cb",
    "shor-masked:simulate": "5f67fe9dff4647a5b6877753bede8c33c118f2f764d6e78f6c46e7fb843c4651",
    "bacon-shor-3x3:classify": "d431e91dbf929ac6ab5e7fd89501c39cec435c7baa830cc410011b62e7e8e76b",
    "bacon-shor-3x3:classify-isg1": "00be709e2e4280f29e379bab044b38b932f6613dd472eaa0e138a7a86a3656ec",
    "bacon-shor-3x3:distance-canonical": "ee7be24f9a2a7a02121c52d9b58c57ad6a33c34decb232a3d241d023b7c6d03c",
    "bacon-shor-3x3:distance-exhaustive": "bcbc95164eba299bca37f11b485c55c4964fb40b64504da5bdca8f966d03728e",
    "bacon-shor-3x3:floquet": "bbaecd9cb3e8c5b74ba02dffe27c1fa1b3b85b8c370b4dd250b3c00c5e31b0ae",
    "bacon-shor-3x3:simulate": "0661ac0abb91c73211165c287683b54b5a0ace3d6459a54b7de84a5cb6f2a2e3",
    "honeycomb-3x3:classify": "fc3de326e3e81e7296121b378abccb8d5d21313b8d6bb64e43e32f22bde05d90",
    "honeycomb-3x3:classify-isg1": "d0fb98d8d0cf4e947cf91f54fff97d1cf1f52f49a2ea6bf1bc8c7b67b5c87c5a",
    "honeycomb-3x3:distance-canonical": "931f3a4226ad180b9e607850131c30fbb5e773bfb2aca9c3e1dacb32d4a4d6ff",
    "honeycomb-3x3:distance-exhaustive": "42a2c0c667223f456cd687d0feaada0e31f623c2dc1735cfdd4fb4a27e9c9a73",
    "honeycomb-3x3:floquet": "5ea548bacda984fbe705e6e76580724aef861396f2fe097ee3c00d13bc441802",
    "honeycomb-3x3:simulate": "bbd51372f6a8591ea00b41931b7f576337bbbdc87371856c799ffae8fad46161",
    "1d-chain-10:classify": "1d26ce913d525e159d86445342920ff17cad1b9f23579dedcaa5244b4b3ac19b",
    "1d-chain-10:classify-isg1": "577f68b40affc672afdd57db178a41ff1ad44219985476ebb05161d8b1819fd9",
    "1d-chain-10:distance-canonical": "6eb33670618b5bef8d2d7555d97dc0c237f8d94c5f53cbd15771ce02c7f6e31f",
    "1d-chain-10:distance-exhaustive": "d3e0ecf11a9b6f7e0ebf7b2e73cb829c304ca98477d7071c582ff4d7d54877e2",
    "1d-chain-10:floquet": "6eb267756e6250f5cb5cd9094982713235454a00732f5925cf992fe0ec442be8",
    "1d-chain-10:simulate": "3e5768fc78b1f4d4bc62b32c8f66c6bc4f59f133f4195e0ffc715cfd5786fcd0",
    "random-249:classify": "50ca496b440812dc276fc829576e0bfe0f2d04e8478b4d4db5363be56377f1c9",
    "random-249:classify-isg1": "b6788895084a5205f3e10911cdd013a988729d7dcbf00935c8f4f7793a8a4fe6",
    "random-249:distance-canonical": "2bd4ba6780358e5824983a40c3a3a562beadb626cc620b9ebb03cb694c91da51",
    "random-249:distance-exhaustive": "b9977b8b4406e1a728caad8032a9ffdc5818b532f74bf37c7bef793ca7cd564d",
    "random-249:floquet": "3a07ea8e687fd32e2eb05ebcb7378b464c428d92cce566e3131f4086448cd9b7",
    "random-249:simulate": "3efbd965479dd1645e2cee55fb136e3bdec1799a66d3db174831f790eec0d304",
    "random-301:classify": "41c45229863f9b35463d56db1069aa256baf948a6994328b74e1f1e418aba3e8",
    "random-301:classify-isg1": "64d733f84dc50b848697cce3fd435ad186b2fcc5afd17c8b528e7068492a221d",
    "random-301:distance-canonical": "022bf4bc700e5ee6e40b838497e0972e1862fdc16e3e18417cf5a42c7062d9b0",
    "random-301:distance-exhaustive": "918a27f3db04da5b3eda280cce2309ecede89191bf56d32252f289a8f34741ed",
    "random-301:floquet": "eb8cab6628ecf97922b7751bf27750f3671fca21754221df2574a6d710656729",
    "random-301:simulate": "87f1897e4c46af7b5fdc45568c16084f071212a244505a4019233942bd13b808",
    "random-38:classify": "b0eee2dcbf5ef354b0d2dfd426d8e26a18ab994dcfbe728d17428d028f6589bc",
    "random-38:classify-isg1": "5020df5057e9ee3f8a1c4ad88a52a152cbff368b1705397e6887605eb5fe00ff",
    "random-38:distance-canonical": "06535b14af7c97a62e31a7378647c585ca6690d03d5c1aa1b81a90c9cbc2c76d",
    "random-38:distance-exhaustive": "be753d11049193ac6234921f1ea1bc5072416f78d973a9f3523f3dd39f95c269",
    "random-38:floquet": "85ec6133a3402e6f1426140578d2d132b254f4fb6da2bdb4c7f6cacd0109a6b1",
    "random-38:simulate": "dbf9221b9029baf2040bd336b8fc8918c459ecfab3f8b6751b13b867d5c8200b",
    "random-142:classify": "44fc4e6a795405237ed49fd1e4fe01a2a881047764c78cff281eda94b0ae0212",
    "random-142:classify-isg1": "5fbfd8a976ae140318017693c661dde5bbd83df6e9ce005eb67d52400f5f70be",
    "random-142:distance-canonical": "f504356b4366bde7981ffc81dbf9685b3527f4d2b8022514c606e9fd155e6289",
    "random-142:distance-exhaustive": "cac323088f8303ae071effc1f790b453d5a7b8a3d3970d27f5f47cc14be24737",
    "random-142:floquet": "546d110581c66cc30c9ec9a0b178b2e0c3364d3e59d9ef5c9e002e8ebfae21ae",
    "random-142:simulate": "8b31b18f76e7f52b8d247939b9bdae3421d047cd03cbc0d961fa2bd16fddd751",
}


@pytest.fixture(scope="module")
def code_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, code in codes().items():
        paths[name] = str(directory / f"{name}.json")
        save_code(code, paths[name])
    return paths


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_matches_golden_digest(key, code_files):
    name, command = key.split(":")
    assert report_digest(CliRunner(), code_files[name], command) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_bytes_are_the_stdlib_dump(key, code_files):
    """The digests hash a re-dump, so they cannot see the writer: here the
    raw stdout must be what ``json.dumps(indent=2, sort_keys=True)`` writes."""
    name, command = key.split(":")
    args = COMMANDS[command]
    result = CliRunner().invoke(main, [args[0], code_files[name], *args[1:]])
    assert result.exit_code == 0 or not result.stdout
    if result.stdout:
        assert result.stdout == json.dumps(json.loads(result.stdout), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_text_report_matches_the_reference_writer(key, code_files):
    name, command = key.split(":")
    args = [COMMANDS[command][0], code_files[name], *COMMANDS[command][1:]]
    runner = CliRunner()
    as_json = runner.invoke(main, args)
    as_text = runner.invoke(main, [*args, "--format", "text"])
    assert as_text.exit_code == as_json.exit_code
    expected = io.StringIO()
    if as_json.stdout:
        reference_emit_text(json.loads(as_json.stdout), file=expected)
    assert as_text.stdout == expected.getvalue()


@pytest.mark.parametrize("name", sorted(RANDOM_CODES))
def test_random_codes_leave_every_class(name):
    report = run_classification(codes()[name])
    assert report.U and report.T and report.P
    assert {kind for _, kind, _ in report._removals} == {"C", "V"}


def test_every_code_and_command_has_a_digest():
    assert set(GOLDEN) == {f"{c}:{cmd}" for c in codes() for cmd in COMMANDS}


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name, code in codes().items():
            path = str(Path(tmp) / f"{name}.json")
            save_code(code, path)
            for command in COMMANDS:
                digest = report_digest(CliRunner(), path, command)
                print(f'    "{name}:{command}": "{digest}",')
