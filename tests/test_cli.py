import argparse
import json
import os
import sys

import pytest

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
from fairflow.existence import build_jump_structure, has_blocking_dicircuit

from conftest import table_of

DATA = os.path.join(os.path.dirname(__file__), "data")


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

    @pytest.mark.parametrize("key, value, message", [
        ("b,a", 0, "must list sorted names"),
        ("a,c", 0, "unknown node 'c'"),
        ("a,a", 0, "repeated node"),
        ("a", "+inf", r"\+inf values not allowed"),
        ("a", True, "expected integer or infinity string"),
    ], ids=["unsorted", "unknown", "repeated", "pos-inf", "bool"])
    def test_unsorted_table_key_rejected(self, key, value, message):
        doc = {
            "nodes": ["a", "b"],
            "arcs": [],
            "F": [],
            "base": {"type": "table", "p": {"": 0, key: value, "a,b": 0}},
        }
        with pytest.raises(ParseError, match=message):
            parse_instance(doc)

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
