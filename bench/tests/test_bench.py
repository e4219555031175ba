"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402
from fairflow import baseflow, cli, decmin  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_i6_traced_counts_match_the_code_path():
    recorder = spans.SpanRecorder()
    with recorder.recording() as absent:
        code, _ = run_cli(["solve", os.path.join(ROOT, "tests", "data", "i6.json")])
    assert code == 0 and absent == []
    m = recorder.metrics()
    # one check_feasible from cmd_solve, one from solve_decmin
    assert m["baseflow.check_feasible.calls"] == 2
    assert m["decmin.predecmin_phase.calls"] == 1
    assert m["lupmin.lupmin_solve.calls"] == 1
    assert m["baseflow.min_cost_flow.calls"] == 1
    assert m["cli.parse_instance.calls"] == 1


def test_patching_is_undone_everywhere():
    originals = (decmin.check_feasible, cli.check_feasible, baseflow.check_feasible)
    with spans.SpanRecorder().recording():
        assert cli.check_feasible is decmin.check_feasible is baseflow.check_feasible
        assert cli.check_feasible is not originals[0]
    assert (decmin.check_feasible, cli.check_feasible, baseflow.check_feasible) == originals


def test_absent_function_is_reported_not_raised():
    with spans.patched(lambda name, fn: fn,
                       ("baseflow.no_such_layer", "nomodule.f", "setfn.NoClass.f")) as absent:
        pass
    assert absent == ["baseflow.no_such_layer", "nomodule.f", "setfn.NoClass.f"]


def test_call_counter_counts_helpers():
    counter = spans.CallCounter()
    with counter.counting():
        run_cli(["solve", os.path.join(ROOT, "tests", "data", "i6.json")])
    m = counter.metrics()
    assert m["core.cut_in_sum.calls"] > 0 and m["setfn.SetFn.evals"] > 0


def test_same_seed_gives_same_bytes(tmp_path):
    for workload in corpus.STRATA:
        a = corpus.write_corpus(workload, 7, 6, str(tmp_path / "a"))
        b = corpus.write_corpus(workload, 7, 6, str(tmp_path / "b"))
        c = corpus.write_corpus(workload, 8, 6, str(tmp_path / "c"))
        read = lambda p: open(p, "rb").read()
        assert [read(p) for p in a] == [read(p) for p in b]
        assert [read(p) for p in a] != [read(p) for p in c]


def test_solve_check_accepts_the_solver_and_rejects_a_broken_witness(tmp_path):
    doc = corpus.warmup_instance("mincost-wide")
    path = tmp_path / "inst.json"
    path.write_text(corpus.dump(doc))
    code, out = run_cli(["solve", "--min-cost", str(path)])
    problem, digest = checks.check("mincost-wide", doc, code, out)
    assert problem is None and digest[1] == json.loads(out)["cost"]
    assert checks.check("mincost-wide", doc, 5, out)[0] is not None
    assert checks.check("mincost-wide", doc, code, "{}")[0] is not None
    res = json.loads(out)
    first = doc["arcs"][0]["id"]
    res["witness"][first] = doc["arcs"][0]["g"] + 1
    assert checks.check("mincost-wide", doc, code, json.dumps(res))[0] is not None


def test_orient_check_rejects_a_reversed_fixed_arc(tmp_path):
    doc = corpus.warmup_instance("orient-mixed")
    path = tmp_path / "inst.json"
    path.write_text(corpus.dump(doc))
    code, out = run_cli(["orient", str(path)])
    assert checks.check("orient-mixed", doc, code, out)[0] is None
    res = json.loads(out)
    u, v = doc["mixed_graph"]["arcs"][0]
    res["orientation"][res["orientation"].index([u, v])] = [v, u]
    assert checks.check("orient-mixed", doc, code, json.dumps(res))[0] is not None


def test_generated_instances_meet_their_filters():
    for name, doc in corpus.generate("solve-cut", 3, 4) + corpus.generate("mincost-wide", 3, 4):
        assert corpus.Model(doc).cut_feasible(), name
    for name, doc in corpus.generate("orient-mixed", 3, 4):
        mg = doc["mixed_graph"]
        index = {v: i for i, v in enumerate(mg["nodes"])}
        pairs = lambda key: [(index[u], index[v]) for u, v in mg[key]]
        assert corpus.strongly_orientable(len(index), pairs("arcs"), pairs("edges")), name
