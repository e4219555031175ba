import argparse
import io
import json
import os
import random
import sys
import time

import numpy as np
import pytest

from fairflow import cli, existence
from fairflow.baseflow import Infeasible, Instance, find_feasible
from fairflow.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_NO_DECMIN,
    EXIT_OK,
    ParseError,
    instance_to_doc,
    main,
    parse_instance,
)
from fairflow.core import NEG_INF
from fairflow.existence import BlockingCircuit, build_jump_structure, has_blocking_dicircuit
from fairflow.oracle import check_pairs
from fairflow.setfn import BaseOracle, SetFn

from conftest import ext_array_parts, table_of

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))
from outputs import EXTRAS  # noqa: E402
from scale import table_doc, time_table  # noqa: E402

DATA = os.path.join(os.path.dirname(__file__), "data")

# (key, value, message) of a bad table entry beside "" and "a,b" on nodes a, b
BAD_TABLE_ENTRIES = [
    ("b,a", 0, "must list sorted names"),
    ("a,c", 0, "unknown node 'c'"),
    ("a,a", 0, "repeated node"),
    ("a", "+inf", r"\+inf values not allowed"),
    ("a", True, "expected integer or infinity string"),
    ("a", 1.5, "expected integer, '-inf' or '\\+inf', got 1.5"),
    ("", False, r"base.p\[''\]: expected integer or infinity string"),
]
BAD_TABLE_IDS = ["unsorted", "unknown", "repeated", "pos-inf", "bool", "float", "bool-false"]


def path(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def count_calls(monkeypatch, *names):
    """Count calls of the named functions through every fairflow module
    that binds them; returns the live {name: count} dict."""
    counts = dict.fromkeys(names, 0)
    for module in [m for name, m in sys.modules.items() if name.startswith("fairflow")]:
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


class TestCheck:
    def test_feasible(self, capsys):
        code, out = run(capsys, "check", path("i1.json"))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"witness"}
        assert doc["witness"]["e1"] == doc["witness"]["e2"]

    def test_violator(self, capsys):
        code, out = run(capsys, "check", path("infeasible.json"))
        assert code == EXIT_INFEASIBLE
        assert json.loads(out) == {"violator": ["b"], "deficit": -1}

    @pytest.mark.parametrize("name", ["i1.json", "i6.json", "points.json"])
    def test_witness_built_once(self, capsys, monkeypatch, name):
        with open(path(name)) as fh:
            parsed = parse_instance(json.load(fh))
        want = parsed.flow_doc(find_feasible(parsed.instance))
        counts = count_calls(monkeypatch, "find_feasible")
        code, out = run(capsys, "check", path(name))
        assert code == EXIT_OK and json.loads(out) == {"witness": want}
        assert counts["find_feasible"] == 1

    def test_malformed(self, capsys):
        code, _ = run(capsys, "check", path("malformed.json"))
        assert code == EXIT_INPUT

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "check", path("nope.json"))
        assert code == EXIT_INPUT

    def test_min_cost_with_unbounded_costed_arc(self, capsys, tmp_path):
        doc = {
            "nodes": ["a", "b"],
            "arcs": [
                {"id": "e1", "tail": "a", "head": "b", "f": 0, "g": 1, "cost": 0},
                {"id": "e2", "tail": "b", "head": "a", "f": 0, "g": "+inf", "cost": -1},
            ],
            "F": ["e1"],
            "base": {"type": "zero"},
        }
        p = tmp_path / "unbounded_cost.json"
        p.write_text(json.dumps(doc))
        code, _ = run(capsys, "solve", str(p), "--min-cost")
        assert code == EXIT_INPUT


class TestSolve:
    def test_forced_parallel(self, capsys):
        code, out = run(capsys, "solve", path("i6.json"))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["witness"] == {"e1": 1, "e2": 1}
        assert doc["face_chains"] == [[["b"]]]
        for e in ("e1", "e2"):
            assert doc["g_star"][e] - doc["f_star"][e] <= 1

    def test_no_fair_flow(self, capsys, monkeypatch):
        with open(path("i4p.json")) as fh:
            parsed = parse_instance(json.load(fh))
        inst = parsed.instance
        circuit = has_blocking_dicircuit(build_jump_structure(inst), inst.focus)
        # the existence verdict is reached once, inside finitize_bounds
        counts = count_calls(monkeypatch, "build_jump_structure")
        code, out = run(capsys, "solve", path("i4p.json"))
        assert code == EXIT_NO_DECMIN
        assert counts == {"build_jump_structure": 1}
        doc = json.loads(out)
        assert doc["blocking_circuit"] == [
            {"tail": parsed.node_names[a.tail], "head": parsed.node_names[a.head],
             "kind": a.kind,
             "arc": None if a.arc_id is None else parsed.arc_names[a.arc_id]}
            for a in circuit]
        kinds = {(a["tail"], a["head"], a["kind"]) for a in doc["blocking_circuit"]}
        assert ("a", "b", "lower-inf") in kinds

    @pytest.mark.parametrize("name, kind", [
        ("extra-blocking-circuit-jump", "jump"),
        ("extra-blocking-circuit-upper-inf", "upper-inf")], ids=["jump", "upper-inf"])
    def test_blocking_circuit_of_each_arc_kind(self, capsys, tmp_path, name, kind):
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(EXTRAS[name]))
        code, out = run(capsys, "solve", str(src))
        assert code == EXIT_NO_DECMIN
        kinds = [a["kind"] for a in json.loads(out)["blocking_circuit"]]
        assert kinds == ["lower-inf", kind]

    @pytest.mark.parametrize("fault", ["escapes", "misses-focus"])
    def test_blocking_circuit_that_does_not_improve_exits_5(self, capsys, monkeypatch, fault):
        # the circuit is checked before it is printed: one that does not
        # improve the instance's feasible flow is an engine fault
        if fault == "escapes":
            monkeypatch.setattr(existence, "membership", lambda inst, x: False)
        else:
            def misses_focus(inst):
                raise BlockingCircuit(())
            monkeypatch.setattr(cli, "finitize_bounds", misses_focus)
        code = main(["solve", path("i4p.json")])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_MISMATCH, "")
        assert "blocking circuit does not improve a feasible flow" in err

    @pytest.mark.parametrize("name, code", [
        ("extra-unbounded-costed-focus", EXIT_OK),
        ("extra-reachable-set-not-finite", EXIT_INPUT)], ids=["costed", "not-finite"])
    def test_one_search_per_lower_unbounded_focus_arc(self, capsys, tmp_path, monkeypatch,
                                                       name, code):
        # the search that finds no blocking circuit through the focus arc
        # also gives the set its lower bound is read from
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(EXTRAS[name]))
        counts = count_calls(monkeypatch, "_search")
        assert main(["solve", str(src)]) == code
        capsys.readouterr()
        assert counts == {"_search": 1}

    def test_table_not_closed_under_intersection_exits_2(self, capsys, tmp_path):
        # {a,b} and {b,c} are finite but {b} is not: the set reachable from
        # the focus arc's head has no finite bound, and that is bad input
        doc = {"nodes": ["a", "b", "c"],
               "arcs": [{"id": "e1", "tail": "a", "head": "b", "f": "-inf", "g": "+inf"}],
               "F": ["e1"],
               "base": {"type": "table", "p": {
                   "": 0, "a": "-inf", "b": "-inf", "c": "-inf", "a,b": 0, "a,c": "-inf",
                   "b,c": 0, "a,b,c": 0}}}
        src = tmp_path / "ring.json"
        src.write_text(json.dumps(doc))
        code = main(["solve", str(src)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: base table is not closed under union and intersection: p is not "
            "finite on the set reachable from the head of arc 0 (mask 10)\n")

    def test_engine_infeasible_exits_5(self, capsys, monkeypatch):
        # `solve` settles feasibility before the engine runs, so an
        # Infeasible from the engine is an engine fault, not exit 3
        def infeasible(inst):
            raise Infeasible(1, -1)

        monkeypatch.setattr(cli, "solve_decmin", infeasible)
        code = main(["solve", path("i1.json")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_MISMATCH, "")
        assert captured.err == (
            "internal certificate failure: infeasible: violating set mask 1, deficit -1\n")

    def test_min_cost(self, capsys):
        code, out = run(capsys, "solve", path("i1.json"), "--min-cost")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["min_cost_witness"]["e1"] == 0
        assert doc["cost"] == 0

    def test_trace(self, capsys):
        code, out = run(capsys, "solve", path("i6.json"), "--trace")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["phases"]) == 1
        phase = doc["phases"][0]
        assert phase["beta"] == 1
        assert phase["L_beta"] == ["e1", "e2"]
        assert phase["chain"] == [["b"]]

    def test_infeasible(self, capsys):
        code, _ = run(capsys, "solve", path("infeasible.json"))
        assert code == EXIT_INFEASIBLE

    def test_min_cost_solves_once(self, capsys, monkeypatch):
        # the min-cost flow runs on the narrowed instance already solved,
        # and only finitization builds the auxiliary digraph
        counts = count_calls(monkeypatch, "solve_decmin", "build_jump_structure")
        code, _ = run(capsys, "solve", path("i1.json"), "--min-cost")
        assert code == EXIT_OK
        assert counts == {"solve_decmin": 1, "build_jump_structure": 1}

    def test_finite_focus_bounds_need_no_finitizing_pass(self, capsys, monkeypatch):
        # i1's focus bounds are finite, so finitize_bounds builds no witness;
        # the one coordinate-fixing pass left is solve_decmin's final one
        counts = count_calls(monkeypatch, "find_feasible")
        code, _ = run(capsys, "solve", path("i1.json"))
        assert code == EXIT_OK
        assert counts == {"find_feasible": 1}

    def test_min_cost_fixes_coordinates_once_per_instance(self, capsys, monkeypatch):
        # the min-cost flow on the narrowed instance starts from the flow
        # solve_decmin built for the witness
        seen = []
        real = find_feasible
        for module in [m for name, m in sys.modules.items() if name.startswith("fairflow")]:
            if getattr(module, "find_feasible", None) is real:
                monkeypatch.setattr(module, "find_feasible",
                                    lambda inst: seen.append(inst) or real(inst))
        code, out = run(capsys, "solve", path("i1.json"), "--min-cost")
        assert code == EXIT_OK and "min_cost_witness" in json.loads(out)
        assert seen and len({id(inst) for inst in seen}) == len(seen)

    def test_min_cost_without_costs_rejected_before_solving(self, capsys):
        code, out = run(capsys, "solve", path("infeasible.json"), "--min-cost")
        assert code == EXIT_INPUT and out == ""

    def test_min_cost_with_huge_potentials(self, capsys, tmp_path):
        # the optimal potentials differ by the cost, 10^12: certificate
        # checking must not walk every level between them
        cost = 10 ** 12
        doc = {
            "nodes": ["a", "b"],
            "arcs": [
                {"id": "e1", "tail": "a", "head": "b", "f": 0, "g": 5, "cost": cost},
                {"id": "e2", "tail": "b", "head": "a", "f": 1, "g": 5, "cost": 0},
            ],
            "F": ["e1", "e2"],
            "base": {"type": "zero"},
        }
        p = tmp_path / "huge_cost.json"
        p.write_text(json.dumps(doc))
        code, out = run(capsys, "solve", str(p), "--min-cost")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["min_cost_witness"] == {"e1": 1, "e2": 1}
        assert doc["cost"] == cost

    def test_deterministic_output(self, capsys):
        _, a = run(capsys, "solve", path("i6.json"), "--trace")
        _, b = run(capsys, "solve", path("i6.json"), "--trace")
        assert a == b

    def test_partial_table_defaults_unlisted_to_minus_inf(self, capsys):
        # base given only on a chain; engine and oracles must agree anyway
        code, out = run(capsys, "solve", path("chain_table.json"))
        assert code == EXIT_OK
        doc = json.loads(out)
        for e in ("ab", "bc"):
            assert doc["g_star"][e] - doc["f_star"][e] <= 1
        code, out = run(capsys, "verify", path("chain_table.json"))
        assert code == EXIT_OK and "FAIL" not in out

    def test_points_base_through_solve(self, capsys):
        code, out = run(capsys, "solve", path("points.json"))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc["witness"]) == {"e1", "e2"}


class TestOrient:
    def test_triangle(self, capsys):
        code, out = run(capsys, "orient", path("triangle.json"))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["in_degrees"] == {"a": 1, "b": 1, "c": 1}
        assert len(doc["orientation"]) == 3

    def test_path_infeasible(self, capsys):
        code, out = run(capsys, "orient", path("path.json"))
        assert code == EXIT_INFEASIBLE
        assert "certificate" in json.loads(out)

    def test_k_flag_overrides(self, capsys):
        code, _ = run(capsys, "orient", path("triangle.json"), "--k", "2")
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize("interval, expected", [
        ([3, 1], EXIT_INPUT), ([5, 6], EXIT_INFEASIBLE)], ids=["reversed", "out-of-range"])
    def test_degree_bounds(self, capsys, tmp_path, interval, expected):
        # a reversed interval is malformed input; a well-formed one that
        # misses node a's possible in-degrees 0..2 is an infeasible instance
        with open(path("triangle.json")) as fh:
            doc = json.load(fh)
        doc["mixed_graph"]["degree_bounds"] = {"a": interval}
        src = tmp_path / "bounds.json"
        src.write_text(json.dumps(doc))
        code = main(["orient", str(src)])
        err = capsys.readouterr().err
        assert code == expected
        if expected == EXIT_INPUT:
            assert "degree_bounds['a']" in err

    @pytest.mark.parametrize("interval, out", [
        ([3, 5], {"certificate": ["a"], "error": "empty degree interval"}),
        ([2, 2], {"error": "degree bounds admit no orientation"})],
        ids=["empty-interval", "no-orientation"])
    def test_degree_bounds_verdicts(self, capsys, tmp_path, interval, out):
        # a has in-degree at most 2 on the edge triangle a, b, c, so [3, 5]
        # is empty at a; every strong orientation gives a in-degree 1, so
        # [2, 2] fails in the solve
        doc = {"mixed_graph": {"nodes": ["a", "b", "c"],
                               "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
                               "degree_bounds": {"a": interval}}}
        src = tmp_path / "bounds.json"
        src.write_text(json.dumps(doc))
        code, got = run(capsys, "orient", str(src))
        assert (code, json.loads(got)) == (EXIT_INFEASIBLE, out)

    def test_unorientable_fair_indegrees_exit_5(self, capsys, monkeypatch):
        # the flip solve failing on the fair in-degrees is an engine fault:
        # exit 5, never the exit 3 of an infeasible instance
        import fairflow.orient as orient

        def infeasible(inst):
            raise orient.Infeasible(1, -1)

        monkeypatch.setattr(orient, "find_feasible", infeasible)
        code, _ = run(capsys, "orient", path("triangle.json"))
        assert code == EXIT_MISMATCH

    @pytest.mark.parametrize("nodes", [["a", "b", "a"], ["a", "", "c"], []])
    def test_bad_node_names_rejected(self, capsys, tmp_path, nodes):
        # a repeated name used to collapse two nodes into one and report a
        # wrong cut certificate with exit 3
        doc = {"mixed_graph": {"nodes": nodes, "edges": [["a", "c"]] if "c" in nodes
                               else [["a", "b"]]}}
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        code, _ = run(capsys, "orient", str(src))
        assert code == EXIT_INPUT


def test_parser_built_once(capsys, monkeypatch):
    # building the parser costs about as much as a small solve, so
    # repeated in-process calls share one
    built = []  # each build adds the subcommands once
    real = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self.prog)
        return real(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    code, out = run(capsys, "solve", "--min-cost", path("i1.json"))
    assert code == EXIT_OK and "min_cost_witness" in json.loads(out)
    code, out = run(capsys, "solve", path("i1.json"))  # defaults come back
    assert code == EXIT_OK and "min_cost_witness" not in json.loads(out)
    assert run(capsys, "orient", path("triangle.json"))[0] == EXIT_OK
    assert len(built) <= 1


class CountingRaw(io.RawIOBase):
    """A raw output stream that records each write."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, b):
        self.writes.append(bytes(b))
        return len(b)


@pytest.mark.parametrize("argv", [("solve", "--min-cost", "i1.json"), ("check", "infeasible.json"),
                                  ("orient", "triangle.json")])
def test_each_document_is_one_write(monkeypatch, argv):
    # python -u wraps the raw stdout as a write-through text layer, where
    # every write reaches the raw stream as its own system call
    raw = CountingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8",
                                                        write_through=True))
    main([*argv[:-1], path(argv[-1])])
    assert len(raw.writes) == 1
    text = raw.writes[0].decode()
    streamed = io.StringIO()  # the same document written piece by piece
    json.dump(json.loads(text), streamed, sort_keys=True, indent=2)
    assert text == streamed.getvalue() + "\n"


class TestVerify:
    @pytest.mark.parametrize("name", ["i1.json", "i6.json", "points.json"])
    def test_passes(self, capsys, name):
        code, out = run(capsys, "verify", path(name))
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "PASS feasibility-equivalence" in out

    def test_budget(self, capsys):
        code, _ = run(capsys, "verify", path("i1.json"), "--budget", "1")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("name, verdict", [
        ("extra-int64-wrap", EXIT_INFEASIBLE),
        ("extra-chain-bounds-past-int64", EXIT_OK),
        ("extra-chain-value-past-int64", EXIT_INFEASIBLE)])
    def test_values_past_int64(self, capsys, tmp_path, name, verdict):
        # the enumeration sums four arcs at 2^62 and reads bounds and table
        # values of 2^64 exactly, so it agrees with check and solve
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(EXTRAS[name]))
        assert run(capsys, "check", str(src))[0] == verdict
        assert run(capsys, "solve", str(src))[0] == verdict
        code, out = run(capsys, "verify", str(src))
        assert code == EXIT_OK
        assert "FAIL" not in out and "PASS feasibility-equivalence" in out

    def test_feasibility_mismatch_exits_5(self, capsys, monkeypatch):
        # an engine verdict that disagrees with the enumeration is a failed
        # check, and the checks that need a feasible instance are skipped
        monkeypatch.setattr(Instance, "violator", property(lambda inst: (0b01, -1)))
        code, out = run(capsys, "verify", path("i1.json"))
        assert code == EXIT_MISMATCH
        assert out == "FAIL feasibility-equivalence\n"

    def test_mismatch_exits_5(self, capsys, monkeypatch):
        # a lying oracle must surface as exit 5, never a silent pass
        import fairflow.cli as cli

        monkeypatch.setattr(cli, "brute_lupmin", lambda *a, **k: 99)
        code, out = run(capsys, "verify", path("i1.json"))
        assert code == 5
        assert "FAIL" in out


class TestParsing:
    def test_round_trip(self):
        for name in ("i1.json", "i6.json", "i4p.json", "points.json"):
            with open(path(name)) as fh:
                doc = json.load(fh)
            parsed = parse_instance(doc)
            again = parse_instance(instance_to_doc(parsed))
            assert instance_to_doc(again) == instance_to_doc(parsed)
            a, b = again.instance, parsed.instance
            assert (a.digraph, a.bounds, a.focus) == (b.digraph, b.bounds, b.focus)
            assert again.cost == parsed.cost
            assert table_of(a.base.p) == table_of(b.base.p)
            assert again.node_names == parsed.node_names
            assert again.arc_names == parsed.arc_names

    def test_unknown_keys_rejected(self):
        with open(path("i1.json")) as fh:
            doc = json.load(fh)
        doc["extra"] = 1
        with pytest.raises(ParseError):
            parse_instance(doc)

    def test_unknown_arc_key_rejected(self):
        with open(path("i1.json")) as fh:
            doc = json.load(fh)
        doc["arcs"][0]["weight"] = 2
        with pytest.raises(ParseError):
            parse_instance(doc)

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_duplicate_focus_id_rejected(self, capsys, tmp_path, command):
        # a repeated id in arcs was rejected while one in F was read as a set
        with open(path("i1.json")) as fh:
            doc = json.load(fh)
        doc["F"] = [doc["arcs"][0]["id"]] * 2
        with pytest.raises(ParseError, match="F: duplicate arc id"):
            parse_instance(doc)
        src = tmp_path / "dup.json"
        src.write_text(json.dumps(doc))
        assert main([command, str(src)]) == EXIT_INPUT
        assert "duplicate arc id" in capsys.readouterr().err

    def test_table_requires_anchors(self):
        doc = {
            "nodes": ["a"],
            "arcs": [],
            "F": [],
            "base": {"type": "table", "p": {"": 0}},
        }
        with pytest.raises(ParseError):
            parse_instance(doc)

    @pytest.mark.parametrize("key, value, message", BAD_TABLE_ENTRIES,
                             ids=BAD_TABLE_IDS)
    def test_unsorted_table_key_rejected(self, key, value, message):
        doc = {
            "nodes": ["a", "b"],
            "arcs": [],
            "F": [],
            "base": {"type": "table", "p": {"": 0, key: value, "a,b": 0}},
        }
        with pytest.raises(ParseError, match=message):
            parse_instance(doc)

    @pytest.mark.parametrize("key, value, message", BAD_TABLE_ENTRIES,
                             ids=BAD_TABLE_IDS)
    def test_bad_table_entry_after_an_index_hit(self, monkeypatch, key, value, message):
        # the same error whether the key index of ["a", "b"] is built for
        # this document or kept from a valid one parsed before it
        monkeypatch.setattr(cli, "_TABLE_INDEX", {})
        doc = {"nodes": ["a", "b"], "arcs": [], "F": [],
               "base": {"type": "table", "p": {"": 0, key: value, "a,b": 0}}}
        good = {"nodes": ["a", "b"], "arcs": [], "F": [],
                "base": {"type": "table", "p": {"": 0, "a": 0, "b": 0, "a,b": 0}}}
        with pytest.raises(ParseError, match=message) as built:
            parse_instance(doc)
        parse_instance(good)
        index = cli._TABLE_INDEX[2]
        with pytest.raises(ParseError) as kept:
            parse_instance(doc)
        assert cli._TABLE_INDEX[2] is index
        assert str(kept.value) == str(built.value)

    @pytest.mark.parametrize("value", [(1 << 62) - 1, 1 << 62, (1 << 63) - 1, 1 << 63,
                                       -(1 << 63), -(1 << 63) - 1],
                             ids=["2^62-1", "2^62", "2^63-1", "2^63", "-2^63", "-2^63-1"])
    def test_table_values_at_the_int64_limits(self, value):
        # an int64 table below 2^62; from there on, even past int64, an
        # object table of exact Python ints, as BaseOracle.from_table builds
        names = ["b", "a", "c"]
        table = [0, value, NEG_INF, -1, NEG_INF, 3, -value, 0]
        p = {"": 0, "b": value, "a,b": -1, "c": "-inf", "b,c": 3, "a,c": -value,
             "a,b,c": 0}
        doc = {"nodes": names, "arcs": [], "F": [], "base": {"type": "table", "p": p}}
        got = parse_instance(doc).instance.base.values
        want = BaseOracle.from_table(3, table).values
        assert ext_array_parts(got) == ext_array_parts(want)
        assert got.fin.dtype == (np.int64 if abs(value) < 1 << 62 else object)
        if got.fin.dtype == object:
            assert {type(v) for v in got.fin} == {int}

    def test_table_masks_follow_the_node_order(self):
        # the same names in another node order put the bits elsewhere, so
        # a document in one order must not reuse the key index of another
        p = {"": 0, "a": -1, "b": -2, "c": -3, "a,b": -4, "a,c": -5, "b,c": -6,
             "a,b,c": 0}
        for names in (["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"], ["a", "b", "c"]):
            doc = {"nodes": names, "arcs": [], "F": [], "base": {"type": "table", "p": p}}
            got = parse_instance(doc).instance.base.values
            table = [p[",".join(sorted(names[v] for v in range(3) if (m >> v) & 1))]
                     for m in range(8)]
            assert ext_array_parts(got) == ext_array_parts(BaseOracle.from_table(3, table).values)

    def test_many_arcs_parse_in_linear_time(self):
        # the duplicate-id check scanned the ids read so far for every arc,
        # so 32,000 arcs took seconds
        m = 32_000
        arcs = [{"id": f"e{i}", "tail": "a", "head": "b", "f": 0, "g": 1} for i in range(m)]
        doc = {"nodes": ["a", "b", "c"], "arcs": arcs, "F": [], "base": {"type": "zero"}}
        start = time.perf_counter()
        parsed = parse_instance(doc)
        assert time.perf_counter() - start < 3
        assert parsed.arc_names == [a["id"] for a in arcs]
        arcs.append(dict(arcs[17]))
        with pytest.raises(ParseError, match=f"arc #{m}: duplicate id 'e17'"):
            parse_instance(doc)

    @pytest.mark.parametrize("p, message", [
        ({"": 0, "a": 1, "b,a": 0, "a,b": 0}, "key 'b,a' must list sorted names"),
        ({"": 0, "a": "x", "b,a": 0, "a,b": 0}, r"base.p\['a'\]: expected integer"),
        ({"": 0, "b,a": 0, "a": "x", "a,b": 0}, "key 'b,a' must list sorted names"),
        ({"": 0, "a,c": "x", "a,b": 0}, "unknown node 'c' in key 'a,c'"),
        ({"": 0, "a": 1.5, "b": "+inf", "a,b": 0}, "got 1.5"),
        ({"": 0, "a": "-inf", "b": "+inf", "a,b": 0}, r"\+inf values not allowed"),
    ], ids=["key-after-good", "value-before-key", "key-before-value",
            "key-before-own-value", "first-value", "pos-inf-after-neg-inf"])
    def test_first_bad_table_entry_reported(self, p, message):
        # keys and values are checked in document order, a key before its value
        doc = {"nodes": ["a", "b"], "arcs": [], "F": [], "base": {"type": "table", "p": p}}
        with pytest.raises(ParseError, match=message):
            parse_instance(doc)

    def test_table_parse_matches_from_table(self):
        # partial tables in random key order: a missing key and "-inf" are
        # -inf, values past 2^62 need Python ints; names sort apart from
        # their node order
        rng = random.Random(18)
        pool = ["b", "a", "zz", "c1", "A", "a b", "\u00e9"]
        dtypes = set()
        for _ in range(200):
            n = rng.randint(1, 5)
            names = rng.sample(pool, n)
            huge = rng.random() < 0.3
            table = [NEG_INF if rng.random() < 0.3
                     else rng.choice((-1, 1)) * rng.randint(1 << 62, 1 << 64) if huge
                     and rng.random() < 0.2 else rng.randint(-5, 5) for _ in range(1 << n)]
            table[0] = table[-1] = 0
            p = {}
            for m in rng.sample(range(1 << n), 1 << n):
                if table[m] is NEG_INF and rng.random() < 0.5:
                    continue
                key = ",".join(sorted(names[v] for v in range(n) if (m >> v) & 1))
                p[key] = "-inf" if table[m] is NEG_INF else table[m]
            doc = {"nodes": names, "arcs": [], "F": [], "base": {"type": "table", "p": p}}
            got = parse_instance(doc).instance.base.values
            want = BaseOracle.from_table(n, table).values
            assert ext_array_parts(got) == ext_array_parts(want)
            dtypes.add(got.fin.dtype)
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}

    @pytest.mark.parametrize("kind", ["zero", "points", "table"])
    def test_node_name_with_comma(self, capsys, tmp_path, kind):
        # no table key can name such a node, so a table base is refused up
        # front with the name; the other bases read no keys and accept it
        base = {"zero": {"type": "zero"},
                "points": {"type": "points", "points": [[0, 0]]},
                "table": {"type": "table", "p": {"": 0, "a,b,c": 0}}}[kind]
        src = tmp_path / "comma.json"
        src.write_text(json.dumps({"nodes": ["a,b", "c"], "arcs": [], "F": [], "base": base}))
        code = main(["check", str(src)])
        err = capsys.readouterr().err
        if kind == "table":
            assert code == EXIT_INPUT and "node name 'a,b' contains ','" in err
        else:
            assert code == EXIT_OK and err == ""

    def test_scale_table_documents(self, capsys):
        # `scripts/scale.py table` writes supermodular tables, and its check
        # that they parse back to the same values, in either node order,
        # passes
        for seed in (1, 2):
            _, table = table_doc(5, seed)
            assert check_pairs(SetFn(5, table), supermodular=True)[0]
        assert time_table([5, 11]) == 0
        out = capsys.readouterr().out
        assert out.count('"same_table": true') == out.count('"same_permuted": true') == 4

    def test_nonzero_point_sum_rejected(self):
        doc = {
            "nodes": ["a", "b"],
            "arcs": [],
            "F": [],
            "base": {"type": "points", "points": [[1, 0]]},
        }
        with pytest.raises(ParseError):
            parse_instance(doc)

    @pytest.mark.parametrize("command, field, value", [
        ("check", "tail", ["a"]),
        ("solve", "tail", ["a"]),
        ("solve", "F", [["e"]]),
        ("orient", "edges", 3),
        ("orient", "edges", [[["a"], "b"]]),
    ], ids=["check-list-tail", "solve-list-tail", "list-focus-id",
            "int-edges", "list-edge-end"])
    def test_wrong_json_types_rejected(self, capsys, tmp_path, command, field, value):
        # a list where a name is expected used to raise TypeError from a
        # dict lookup, and a non-list edges entry failed to iterate
        doc = {"nodes": ["a", "b"],
               "arcs": [{"id": "e", "tail": "a", "head": "b", "f": 0, "g": 1}],
               "F": ["e"],
               "base": {"type": "zero"}}
        if field == "tail":
            doc["arcs"][0]["tail"] = value
        elif field == "F":
            doc["F"] = value
        else:
            doc = {"mixed_graph": {"nodes": ["a", "b"], "edges": value}}
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        code = main([command, str(src)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error:") and field in err


# (command, message) of each input error the parser reports on its own:
# the "parse-" EXTRAS and the raw-text fixture whose top level is a list
PARSE_ERRORS = {
    "extra-parse-arc-not-object": ("check", "arc #0: expected an object"),
    "extra-parse-arcs-not-list": ("check", "arcs: expected a list"),
    "extra-parse-arc-id": ("solve", "arc #0: id must be a string"),
    "extra-parse-cost": ("solve", "arc 'e1': cost must be an integer"),
    "extra-parse-focus-not-list": ("verify", "F: expected a list of arc ids"),
    "extra-parse-lower-above-upper": ("check", "arc 0: lower 2 exceeds upper 1"),
    "extra-parse-table-not-object": ("solve", "base.p: expected an object"),
    "extra-parse-table-key-unknown-node": ("solve", "base.p: unknown node 'c' in key 'a,c'"),
    "extra-parse-table-key-repeated-node": ("check", "base.p: repeated node in key 'a,a'"),
    "extra-parse-table-key-unsorted": ("verify", "base.p: key 'b,a' must list sorted names"),
    "extra-parse-points": ("check", "base.points: expected a nonempty list of node vectors"),
    "extra-parse-base-type": ("verify", "base.type: unknown kind 'ring'"),
    "extra-parse-orient-k": ("orient", "k: expected a positive integer"),
    "extra-parse-degree-bounds-not-object": ("orient", "degree_bounds: expected an object"),
    "extra-parse-degree-bounds-node": ("orient", "degree_bounds: unknown node 'd'"),
    "extra-parse-degree-bounds-pair": ("orient", "degree_bounds['a']: expected [lo, hi]"),
    "extra-parse-loop-edge": ("orient", "loops not allowed"),
    "top_level_list.json": ("solve", "top level must be an object"),
}


@pytest.mark.parametrize("name", sorted(n for n in EXTRAS if n.startswith("extra-parse-"))
                         + ["top_level_list.json"])
def test_parser_input_errors_exit_2(capsys, tmp_path, name):
    command, message = PARSE_ERRORS[name]
    if name in EXTRAS:
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(EXTRAS[name]))
    else:
        src = path(name)
    assert main([command, str(src)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


# (key, document) pairs, each document repeating its key in one object and
# valid once that key is given once: JSON decoders keep the last value.
REPEATED_KEY_DOCS = {
    "top-level": ("F", '{"nodes": ["a", "b"], "F": ["e1"], "F": [], '
                       '"arcs": [{"id": "e1", "tail": "a", "head": "b", "f": 0, "g": 1}], '
                       '"base": {"type": "zero"}}'),
    "arc-field": ("g", '{"nodes": ["a", "b"], "F": ["e1"], '
                       '"arcs": [{"id": "e1", "tail": "a", "head": "b", "f": 0, "g": 1, "g": 2}], '
                       '"base": {"type": "zero"}}'),
    "table-key": ("a", '{"nodes": ["a", "b"], "F": ["e1"], '
                       '"arcs": [{"id": "e1", "tail": "a", "head": "b", "f": 0, "g": 1}], '
                       '"base": {"type": "table", "p": {"": 0, "a": 0, "a": -1, "a,b": 0}}}'),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEY_DOCS))
def test_repeated_json_key_exits_2(capsys, tmp_path, case):
    key, text = REPEATED_KEY_DOCS[case]
    src = tmp_path / "repeated.json"
    src.write_text(text)
    for command in ("check", "solve", "orient", "verify"):
        assert main([command, str(src)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: repeated key {key!r}\n"
    # the same object with the key once is accepted
    doc = json.loads(text)
    src.write_text(json.dumps(doc))
    assert main(["solve", str(src)]) == EXIT_OK


@pytest.mark.parametrize("command", ["check", "solve", "orient", "verify"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, command):
    # the JSON decoder recurses once per level and used to let a
    # RecursionError escape main
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000 + "]" * 100_000)
    code = main([command, str(src)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err == f"error: JSON in {src} is nested too deeply\n"


@pytest.mark.parametrize("argv", [
    ["check"], ["solve"], ["solve", "--trace"], ["solve", "--min-cost"],
    ["orient"], ["orient", "--k", "2"], ["verify"]], ids=" ".join)
def test_exit_codes_are_total(capsys, argv):
    # every fixture under every command line ends in a documented exit
    # code; an exception escaping main would fail the test
    for name in sorted(os.listdir(DATA)):
        code = main(argv + [path(name)])
        capsys.readouterr()
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_INFEASIBLE, EXIT_NO_DECMIN,
                        EXIT_MISMATCH), (name, code)
