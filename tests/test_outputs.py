"""`scripts/outputs.py check` on a tiny synthetic record, not the full one."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))
import outputs  # noqa: E402

RUNS = {
    "solve a.json": [0, '{\n  "witness": {"e1": 1}\n}\n', ""],
    "check b.json": [2, "", "error: malformed JSON\n"],
}


def check(tmp_path, runs):
    """`check` of a record of `runs` against the hashes of a record of RUNS,
    both written and hashed the way `record` and `hash` do."""
    paths = {name: str(tmp_path / f"{name}.json") for name in ("expected", "got", "hashes")}
    for name, record in (("expected", RUNS), ("got", runs)):
        assert outputs.write(paths[name], record) == 0
    assert outputs.write(paths["hashes"], outputs.hashes(outputs.load(paths["expected"]))) == 0
    return outputs.check(paths["hashes"], paths["got"])


def test_a_match_passes(tmp_path, capsys):
    assert check(tmp_path, RUNS) == 0
    assert capsys.readouterr().out == "0 of 2 runs differ\n"


@pytest.mark.parametrize("field, value", [
    (0, 1), (1, '{\n  "witness": {"e1": 2}\n}\n'), (2, "error: malformed JSON \n")],
    ids=["exit-code", "stdout", "stderr"])
def test_a_one_byte_change_fails_and_names_the_run(tmp_path, capsys, field, value):
    changed = {key: list(run) for key, run in RUNS.items()}
    changed["solve a.json"][field] = value
    assert check(tmp_path, changed) == 1
    assert capsys.readouterr().out == "solve a.json: differs\n1 of 2 runs differ\n"


def test_missing_and_new_runs_fail(tmp_path, capsys):
    renamed = {"check c.json" if key == "check b.json" else key: run
               for key, run in RUNS.items()}
    assert check(tmp_path, renamed) == 1
    assert capsys.readouterr().out == (
        "check b.json: missing\ncheck c.json: new\n2 of 3 runs differ\n")


def test_codes_fail_on_null_and_5_naming_each_run(tmp_path, capsys):
    runs = {f"run {code}": [code, "", ""] for code in (0, 2, 3, 4)}
    path = str(tmp_path / "record.json")
    assert outputs.write(path, runs) == 0
    assert outputs.codes(path) == 0
    assert capsys.readouterr().out == "[('0', 1), ('2', 1), ('3', 1), ('4', 1)]\n"
    runs.update({"solve bad.json": [None, "", "TypeError: boom\n"],
                 "orient bad.json": [5, "", "internal certificate failure: x\n"]})
    assert outputs.write(path, runs) == 0
    assert outputs.codes(path) == 1
    assert capsys.readouterr().out == (
        "[('0', 1), ('2', 1), ('3', 1), ('4', 1), ('5', 1), ('None', 1)]\n"
        "exit 5: orient bad.json\nexit None: solve bad.json\n")
