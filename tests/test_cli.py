import gc
import hashlib
import io
import json
import os
import random
import contextlib
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction

import pytest

import nccalc
from nccalc import NCPoly, QQ, Subspace, builtin, cli, optimal_ideal, parse_expr
from nccalc.cli import main


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_rule(tmp_path, name="rule.json", doc=None):
    if doc is None:
        doc = {
            "n": 2, "field": "Q", "vars": ["x1", "x2"],
            "A": [[["3*x1", "0"], ["0", "1/2*x1"]],
                  [["2*x2", "0"], ["0", "3*x2"]]],
        }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_derive_basic(tmp_path):
    path = write_rule(tmp_path)
    code, out, _ = run("derive", "--rule", path, "--var", "x1", "--expr", "x1^3")
    assert code == 0
    assert out.strip() == "13*x1^2"
    # the generator may be addressed by position as well
    code, out, _ = run("derive", "--rule", path, "--var", "1", "--expr", "x1^3")
    assert code == 0 and out.strip() == "13*x1^2"


def test_derive_respects_custom_names(tmp_path):
    doc = {"n": 2, "field": "Q", "vars": ["a", "b"],
           "A": [[["3*a", "0"], ["0", "1/2*a"]],
                 [["2*b", "0"], ["0", "3*b"]]]}
    path = write_rule(tmp_path, doc=doc)
    code, out, _ = run("derive", "--rule", path, "--var", "a", "--expr", "a^2")
    assert code == 0
    assert out.strip() == "4*a"


def test_derive_long_word(tmp_path):
    code, doc, _ = run("examples", "show", "ex3.2-zero")
    assert code == 0
    path = tmp_path / "zero.json"
    path.write_text(doc)
    code, out, _ = run("derive", "--rule", str(path), "--var", "1",
                       "--expr", "x1^1500")
    assert code == 0
    assert out == "x1^1499\n"


def test_diff_output(tmp_path):
    path = write_rule(tmp_path)
    code, out, _ = run("diff", "--rule", path, "--expr", "x1*x2")
    assert code == 0
    assert out.splitlines() == ["dx1: x2", "dx2: 1/2*x1"]


def test_ideal_text_report(tmp_path):
    path = write_rule(tmp_path)
    code, out, _ = run("ideal", "--rule", path, "--max-degree", "3")
    assert code == 0
    assert out.splitlines() == [
        "degree 1: dim_ideal=0 dim_quotient=2",
        "degree 2: dim_ideal=1 dim_quotient=3",
        "degree 3: dim_ideal=4 dim_quotient=4",
    ]


def test_ideal_basis_lines_respan_the_component(tmp_path):
    path = write_rule(tmp_path)
    code, out, _ = run("ideal", "--rule", path, "--max-degree", "3", "--basis")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "degree 2: dim_ideal=1 dim_quotient=3"
    assert lines[2] == "  x1*x2 - 1/2*x2*x1"
    basis3 = [parse_expr(t.strip(), ("x1", "x2")) for t in lines[4:8]]
    rule = builtin("ex3.1-diag", q=[[3, 2], [Fraction(1, 2), 3]])
    expect = optimal_ideal(rule, 3).component(3)
    assert Subspace.span(basis3, 3, n=2, field=QQ).equal(expect)


def test_ideal_json_schema(tmp_path):
    path = write_rule(tmp_path)
    code, out, _ = run("ideal", "--rule", path, "--max-degree", "2", "--json")
    assert code == 0
    doc = json.loads(out, object_pairs_hook=OrderedDict)
    assert list(doc.keys()) == ["rule", "degrees"]
    assert list(doc["rule"].keys()) == ["n", "field", "vars", "A"]
    assert [list(d.keys()) for d in doc["degrees"]] == [
        ["s", "dim_ideal", "dim_quotient"]] * 2
    assert doc["degrees"][0] == {"s": 1, "dim_ideal": 0, "dim_quotient": 2}
    assert doc["degrees"][1] == {"s": 2, "dim_ideal": 1, "dim_quotient": 3}


def test_ideal_json_zero_rule(tmp_path):
    doc = {"n": 2, "field": "Q", "vars": ["x1", "x2"],
           "A": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}
    path = write_rule(tmp_path, doc=doc)
    code, out, _ = run("ideal", "--rule", path, "--max-degree", "2", "--json")
    assert code == 0
    got = json.loads(out)["degrees"]
    assert got == [{"s": 1, "dim_ideal": 0, "dim_quotient": 2},
                   {"s": 2, "dim_ideal": 0, "dim_quotient": 4}]


def test_ideal_json_includes_basis_when_asked(tmp_path):
    path = write_rule(tmp_path)
    code, out, _ = run("ideal", "--rule", path, "--max-degree", "2",
                       "--json", "--basis")
    assert code == 0
    deg2 = json.loads(out)["degrees"][1]
    assert deg2["basis"] == ["x1*x2 - 1/2*x2*x1"]


def test_ideal_refuses_non_homogeneous_rule(tmp_path):
    doc = {"n": 2, "field": "Q", "vars": ["x1", "x2"],
           "A": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}
    path = write_rule(tmp_path, doc=doc)
    code, _, err = run("ideal", "--rule", path, "--max-degree", "3")
    assert code == 2
    assert err.strip()
    # the same file is fine for plain derivatives
    code, out, _ = run("derive", "--rule", path, "--var", "x1", "--expr", "x1*x2")
    assert code == 0


def test_determinism_byte_identical(tmp_path):
    path = write_rule(tmp_path)
    first = run("ideal", "--rule", path, "--max-degree", "4", "--json", "--basis")
    second = run("ideal", "--rule", path, "--max-degree", "4", "--json", "--basis")
    assert first == second


def test_check_consistent_relations(tmp_path):
    path = write_rule(tmp_path)
    rel = tmp_path / "rels.txt"
    rel.write_text("# quantum plane relation\nx1*x2 - 1/2*x2*x1\n\n")
    code, out, _ = run("check", "--rule", path, "--relations", str(rel))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode: same-degree"
    assert lines[1] == "checked degree: 2"
    assert lines[2] == "verdict: consistent"


def test_check_inconsistent_relations(tmp_path):
    path = write_rule(tmp_path)
    rel = tmp_path / "rels.txt"
    rel.write_text("x1*x2 - 2*x2*x1\n")
    code, out, _ = run("check", "--rule", path, "--relations", str(rel))
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "verdict: inconsistent"
    assert "derivative 1 of x1*x2 - 2*x2*x1 leaves the ideal" in lines[3]


def test_check_degree_bounded_mode(tmp_path):
    path = write_rule(tmp_path)
    rel = tmp_path / "rels.txt"
    rel.write_text("x1*x2 - 1/2*x2*x1\n")
    code, out, _ = run("check", "--rule", path, "--relations", str(rel),
                       "--max-degree", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode: degree-bounded"
    assert lines[1] == "checked degree: 5"
    assert lines[2] == "verdict: consistent"


def test_check_lists_every_violation_of_a_failing_ideal(tmp_path):
    # the commutator fails under ex3.5, so every basis element of J_1..J_7
    # is checked; the digest pins the verdict and all 692 violation lines
    code, doc, _ = run("examples", "show", "ex3.5")
    path = tmp_path / "ex35.json"
    path.write_text(doc)
    rel = tmp_path / "rels.txt"
    rel.write_text("x1*x2 - x2*x1\n")
    code, out, _ = run("check", "--rule", str(path), "--relations", str(rel),
                       "--max-degree", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["mode: degree-bounded", "checked degree: 7",
                         "verdict: inconsistent"]
    assert len(lines) == 695
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "968fc1001d52f33244658b8819ee59cda932d969a22b85bb0c75e70ab5893b54")


def test_check_refuses_constant_relations(tmp_path):
    path = write_rule(tmp_path)
    for text in ("1\n", "2\n3\n"):
        rel = tmp_path / "rels.txt"
        rel.write_text(text)
        for bound in ([], ["--max-degree", "3"]):
            code, out, err = run("check", "--rule", path, "--relations", str(rel), *bound)
            assert code == 2
            assert out == ""
            assert "constant ideal generators are not supported" in err
            assert "Traceback" not in err


def test_check_labels_violations_with_the_rule_names(tmp_path):
    doc = {"n": 2, "field": "Q", "vars": ["a", "b"],
           "A": [[["3*a", "0"], ["0", "1/2*a"]],
                 [["2*b", "0"], ["0", "3*b"]]]}
    path = write_rule(tmp_path, doc=doc)
    rel = tmp_path / "rels.txt"
    rel.write_text("a*b - b*a\n")
    code, out, _ = run("check", "--rule", path, "--relations", str(rel))
    assert code == 0
    assert out.splitlines()[3] == "  degree 2: derivative 1 of a*b - b*a leaves the ideal"
    code, out, _ = run("check", "--rule", path, "--relations", str(rel),
                       "--max-degree", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "verdict: inconsistent"
    assert "  degree 3: derivative 1 of a^2*b - b*a^2 leaves the ideal" in lines
    assert not any("x1" in line or "x2" in line for line in lines)


def test_check_mixed_degrees_use_default_bound(tmp_path):
    path = write_rule(tmp_path)
    rel = tmp_path / "rels.txt"
    rel.write_text("x1*x2 - 1/2*x2*x1\nx1*x2*x1\n")
    code, out, _ = run("check", "--rule", path, "--relations", str(rel))
    # mixed degrees fall back to the bounded mode, checked up to the
    # highest relation degree plus three
    assert code == 0
    assert out.splitlines()[:2] == ["mode: degree-bounded", "checked degree: 6"]


def test_classify2_split_rule(tmp_path):
    doc = {"n": 2, "field": "Q", "vars": ["x1", "x2"],
           "A": [[["x2", "-x2"], ["0", "0"]], [["0", "0"], ["-x1", "x1"]]]}
    path = write_rule(tmp_path, doc=doc)
    code, out, _ = run("classify2", "--rule", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "necessary conditions: hold"
    assert lines[1] == "abelianized images commute: no"
    assert lines[2] == "regular: no"
    assert lines[3] == "commutator in degree-2 ideal: yes"
    assert lines[4] == "families: none"


def test_classify2_classical_rule(tmp_path):
    doc = {"n": 2, "field": "Q", "vars": ["x1", "x2"],
           "A": [[["x1", "0"], ["0", "x1"]], [["x2", "0"], ["0", "x2"]]]}
    path = write_rule(tmp_path, doc=doc)
    code, out, _ = run("classify2", "--rule", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "necessary conditions: hold"
    assert lines[1] == "abelianized images commute: yes"
    assert lines[2] == "regular: yes"
    assert lines[3] == "commutator in degree-2 ideal: yes"
    assert lines[4] == "families:"
    assert any(t.strip().startswith("III:") and "u=x1" in t and "v=x2" in t
               for t in lines[5:])


def test_classify2_requires_two_generators(tmp_path):
    doc = {"n": 3, "field": "Q", "vars": ["x1", "x2", "x3"],
           "A": [[["0"] * 3] * 3] * 3}
    path = write_rule(tmp_path, doc=doc)
    code, _, err = run("classify2", "--rule", path)
    assert code == 2
    assert err.strip()


def test_change_basis_round_trip(tmp_path):
    path = write_rule(tmp_path)
    moved = tmp_path / "moved.json"
    back = tmp_path / "back.json"
    code, _, _ = run("change-basis", "--rule", path, "--matrix", "1,2;3,5",
                     "--out", str(moved))
    assert code == 0
    code, _, _ = run("change-basis", "--rule", str(moved), "--matrix=-5,2;3,-1",
                     "--out", str(back))
    assert code == 0
    assert json.loads((tmp_path / "back.json").read_text()) == json.loads(
        (tmp_path / "rule.json").read_text())


def test_change_basis_errors(tmp_path):
    path = write_rule(tmp_path)
    out = str(tmp_path / "out.json")
    assert run("change-basis", "--rule", path, "--matrix", "1,2;2,4",
               "--out", out)[0] == 2
    assert run("change-basis", "--rule", path, "--matrix", "1,2;3",
               "--out", out)[0] == 1
    assert run("change-basis", "--rule", path, "--matrix", "1,x;3,4",
               "--out", out)[0] == 1


def test_examples_list():
    code, out, _ = run("examples", "list")
    assert code == 0
    names = [t.split()[0] for t in out.splitlines() if t.strip()]
    assert names == ["ex3.1-diag", "ex3.2-zero", "ex3.3-minus", "ex3.4",
                     "ex3.5", "thm4.1-I", "thm4.1-II", "thm4.1-III", "thm4.1-IV"]


def test_examples_show_rebuilds(tmp_path):
    code, out, _ = run("examples", "show", "ex3.5")
    assert code == 0
    from nccalc import parse_rule_dict
    assert parse_rule_dict(json.loads(out)).rule == builtin("ex3.5", mu=1, lam=1)


def test_examples_run_fixtures():
    code, out, _ = run("examples", "run", "ex3.2-zero", "--max-degree", "6")
    assert code == 0
    dims = [t.split("dim_ideal=")[1].split()[0] for t in out.splitlines()]
    assert dims == ["0"] * 6
    code, out, _ = run("examples", "run", "ex3.5", "--max-degree", "5")
    assert code == 0
    dims = [int(t.split("dim_ideal=")[1].split()[0]) for t in out.splitlines()]
    assert dims == [0, 2, 6, 14, 30]


def test_examples_run_json():
    code, out, _ = run("examples", "run", "ex3.3-minus", "--max-degree", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"][1] == {"s": 2, "dim_ideal": 4, "dim_quotient": 0}


def test_examples_unknown_name():
    assert run("examples", "show", "ex9.9")[0] == 1
    assert run("examples", "run", "ex9.9")[0] == 1


def test_exit_codes_for_usage_errors(tmp_path):
    path = write_rule(tmp_path)
    assert run()[0] == 1
    assert run("derive", "--rule", path, "--var", "zz", "--expr", "x1")[0] == 1
    assert run("derive", "--rule", path, "--var", "x1", "--expr", "x1 +*")[0] == 1
    assert run("derive", "--rule", path, "--var", "0", "--expr", "x1")[0] == 1
    assert run("ideal", "--rule", str(tmp_path / "nope.json"),
               "--max-degree", "2")[0] == 1
    assert run("ideal", "--rule", path)[0] == 1
    assert run("nosuchcommand")[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("ideal", "--rule", str(bad), "--max-degree", "2")[0] == 1
    # str.isdigit accepts a superscript digit that int() refuses
    assert run("derive", "--rule", path, "--var", "\u00b2", "--expr", "x1")[0] == 1
    assert run("derive", "--rule", path, "--var", "x1", "--expr", "x1^\u00b2")[0] == 1
    cell = write_rule(tmp_path, "cell.json", {
        "n": 2, "field": "Q", "vars": ["x1", "x2"],
        "A": [[["\u00b2", "0"], ["0", "x1"]], [["x2", "0"], ["0", "x2"]]]})
    assert run("ideal", "--rule", cell, "--max-degree", "2")[0] == 1
    rels = tmp_path / "rels.txt"
    rels.write_text("x1*x2 - x2*x1\nx1^\u00b2\n", encoding="utf-8")
    assert run("check", "--rule", path, "--relations", str(rels),
               "--max-degree", "2")[0] == 1
    # int() refuses a run of more digits than sys.get_int_max_str_digits()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        big = "9" * (limit + 700)
        for expr in (big, f"x1^{big}", f"x1 + 1/{big}*x2"):
            assert run("derive", "--rule", path, "--var", "x1", "--expr", expr)[0] == 1
        assert run("derive", "--rule", path, "--var", big, "--expr", "x1")[0] == 1
        cell = write_rule(tmp_path, "big_cell.json", {
            "n": 2, "field": "Q", "vars": ["x1", "x2"],
            "A": [[[f"{big}*x1", "0"], ["0", "x1"]], [["x2", "0"], ["0", "x2"]]]})
        assert run("ideal", "--rule", cell, "--max-degree", "2")[0] == 1
        param = tmp_path / "big_param.json"
        param.write_text(json.dumps({"n": 2, "field": "Q", "vars": ["x1", "x2"],
                                     "params": {"q": 1}, "A": [[["x1", "0"], ["0", "x1"]],
                                                               [["x2", "0"], ["0", "x2"]]]}
                                    ).replace('"q": 1', f'"q": {big}'))
        assert run("ideal", "--rule", str(param), "--max-degree", "2")[0] == 1
        rels.write_text(f"x1*x2 - x2*x1\n{big}*x1*x1\n")
        assert run("check", "--rule", path, "--relations", str(rels),
                   "--max-degree", "2")[0] == 1


def test_max_degree_below_one_is_a_usage_error(tmp_path):
    # exit 2 is reserved for computations undefined for the rule
    path = write_rule(tmp_path)
    rel = tmp_path / "rels.txt"
    rel.write_text("x1*x2 - 1/2*x2*x1\n")
    commands = [
        ["ideal", "--rule", path],
        ["examples", "run", "ex3.4"],
        ["check", "--rule", path, "--relations", str(rel)],
    ]
    for argv in commands:
        for bound in ("0", "-3"):
            code, out, err = run(*argv, "--max-degree", bound)
            assert code == 1 and out == "", (argv, bound)
            assert f"max_degree must be at least 1, got {bound}" in err
        assert run(*argv, "--max-degree", "1")[0] == 0


def test_help_exits_zero():
    assert run("--help")[0] == 0
    assert run("ideal", "--help")[0] == 0


def run_on_new_parser(*argv):
    # main with a parser built for this call alone, as in a new process
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parser", cli.build_parser)
        return run(*argv)


def test_cli_never_raises_under_mutation(tmp_path, monkeypatch):
    # mutated --out arguments must scribble inside tmp_path, not the repo
    monkeypatch.chdir(tmp_path)
    # main's parser serves all 1000 draws; each must answer as a new one
    cli._parser.cache_clear()
    rng = random.Random(71)
    path = write_rule(tmp_path)
    rel = tmp_path / "rels.txt"
    rel.write_text("x1*x2 - 1/2*x2*x1\n")
    seeds = [
        ["derive", "--rule", path, "--var", "x1", "--expr", "x1*x2"],
        ["diff", "--rule", path, "--expr", "x1^2"],
        ["ideal", "--rule", path, "--max-degree", "3", "--json"],
        ["check", "--rule", path, "--relations", str(rel)],
        ["classify2", "--rule", path],
        ["change-basis", "--rule", path, "--matrix", "1,2;3,5",
         "--out", str(tmp_path / "o.json")],
        ["examples", "run", "ex3.5", "--max-degree", "3"],
    ]
    junk = ["", "x1", "--rule", path, "-1", "((", "1/0", "^", "zz", "--json",
            "--max-degree", "x,y;z", "nan", "--var", "--expr", "%s", "-",
            "\U0001f98a"]
    for t in range(1000):
        argv = list(rng.choice(seeds))
        op = rng.random()
        if op < 0.4 and argv:
            argv[rng.randrange(len(argv))] = rng.choice(junk)
        elif op < 0.7:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(junk))
        elif argv:
            del argv[rng.randrange(len(argv))]
        got = run(*argv)
        assert got[0] in (0, 1, 2), (argv, got)
        assert got == run_on_new_parser(*argv), argv


# a rule with constant images: the filtration refuses it (exit 2)
_AFFINE = {"n": 2, "field": "Q", "vars": ["x1", "x2"],
           "A": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}


def test_repeated_calls_match_one_process_per_call(tmp_path, monkeypatch):
    # argparse wraps usage and help at the terminal width and prints to the
    # sys.stdout / sys.stderr of the moment; at 80 columns the usage lines
    # of "examples run" wrap
    monkeypatch.setenv("COLUMNS", "80")
    path = write_rule(tmp_path)
    affine = write_rule(tmp_path, "affine.json", _AFFINE)
    sequence = [
        ["derive", "--rule", path, "--var", "x1", "--expr", "x1*x2^2"],
        ["examples", "run", "ex9.9"],
        ["--help"],
        ["examples", "run", "--help"],
        ["nosuchcommand"],
        ["ideal", "--rule", affine, "--max-degree", "2"],
        ["examples", "run", "ex3.4", "--max-degree", "0"],
        ["examples", "list"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(nccalc.__file__)))
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    codes = []
    for argv in sequence:
        code, out, err = run(*argv)
        alone = subprocess.run([sys.executable, "-m", "nccalc.cli", *argv],
                               capture_output=True, env=env, timeout=60)
        assert (code, out.encode(), err.encode()) == (
            alone.returncode, alone.stdout, alone.stderr), argv
        codes.append(code)
    assert codes == [0, 1, 0, 0, 1, 2, 1, 0]


def test_successful_calls_leave_no_reference_cycles():
    calls = [("examples", "list"),
             ("examples", "run", "thm4.1-I", "--max-degree", "4")]
    for argv in calls:
        assert run(*argv)[0] == 0
    gc.collect()
    # an automatic collection between the calls would hide their cycles
    gc.disable()
    try:
        for t in range(10):
            assert run(*calls[t % 2])[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_entry_exits_with_the_code_of_main(tmp_path, monkeypatch):
    # the console script nccalc calls entry(), which reads sys.argv
    affine = write_rule(tmp_path, doc=_AFFINE)
    for argv, code in ((["examples", "list"], 0),
                       (["nosuchcommand"], 1),
                       (["ideal", "--rule", affine, "--max-degree", "2"], 2)):
        monkeypatch.setattr(sys, "argv", ["nccalc", *argv])
        with pytest.raises(SystemExit) as exit_info:
            cli.entry()
        assert exit_info.value.code == code, argv


def test_modulus_beyond_primality_bound_exits_1(tmp_path):
    big = 3317044064679887385961981
    doc = {"n": 1, "field": f"Fp:{big}", "vars": ["x1"], "A": [[["x1"]]]}
    path = write_rule(tmp_path, doc=doc)
    code, out, err = run("derive", "--rule", path, "--var", "x1", "--expr", "x1^2")
    assert code == 1 and out == ""
    assert "cannot certify" in err and str(big) in err


# 400 levels of parentheses overflowed the parser's recursion before
# nesting was bounded; each entry point now reports a syntax error
_DEEP = "(" * 400 + "x1" + ")" * 400
_TOO_DEEP = "parentheses nested deeper than 100 levels (line 1, column 101)"


def test_deep_nesting_in_expr_is_a_syntax_error(tmp_path):
    path = write_rule(tmp_path)
    code, out, err = run("derive", "--rule", path, "--var", "x1", "--expr", _DEEP)
    assert (code, out) == (1, "")
    assert err == f"nccalc: error: {_TOO_DEEP}\n"


def test_deep_nesting_in_rule_cell_is_a_syntax_error(tmp_path):
    doc = {"n": 2, "field": "Q", "vars": ["x1", "x2"],
           "A": [[["x1", "0"], ["0", _DEEP]], [["x2", "0"], ["0", "x2"]]]}
    path = write_rule(tmp_path, doc=doc)
    code, out, err = run("derive", "--rule", path, "--var", "x1", "--expr", "x1")
    assert (code, out) == (1, "")
    assert err == f"nccalc: error: A[1][2][2]: {_TOO_DEEP}\n"


def test_deep_nesting_in_relations_line_is_a_syntax_error(tmp_path):
    path = write_rule(tmp_path)
    rel = tmp_path / "rels.txt"
    rel.write_text(f"x1*x2 - x2*x1\n{_DEEP}\n")
    code, out, err = run("check", "--rule", path, "--relations", str(rel))
    assert (code, out) == (1, "")
    assert err == f"nccalc: error: relations line 2: {_TOO_DEEP}\n"


def test_check_without_nonzero_relations_checks_nothing(tmp_path):
    # comments alone, or relations that are all zero, present the free
    # algebra: the same-degree mode has no degree to check
    path = write_rule(tmp_path)
    rel = tmp_path / "rels.txt"
    for text in ("# only a comment\n\n", "0\nx1 - x1\n"):
        rel.write_text(text)
        assert run("check", "--rule", path, "--relations", str(rel)) == (
            0, "mode: same-degree\nverdict: consistent\n", "")


# files that cannot be decoded or written are input problems (exit 1),
# reported on one line, never as a traceback or as exit 2
_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0"


def test_rule_file_that_is_not_utf8_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run("ideal", "--rule", str(bad), "--max-degree", "2")
    assert (code, out) == (1, "")
    assert err.startswith(f"nccalc: error: cannot read rule file: {_NOT_UTF8}")


def test_relations_file_that_is_not_utf8_exits_1(tmp_path):
    path = write_rule(tmp_path)
    rel = tmp_path / "rels.txt"
    rel.write_bytes(b"\xff\xfex1*x2\n")
    code, out, err = run("check", "--rule", path, "--relations", str(rel))
    assert (code, out) == (1, "")
    assert err.startswith(f"nccalc: error: cannot read relations file: {_NOT_UTF8}")


def test_byte_order_marks_are_ignored(tmp_path):
    # some editors save UTF-8 with a leading byte-order mark; a rule file
    # and a relations file with one read as the plain files do
    code, doc, _ = run("examples", "show", "ex3.5")
    assert code == 0
    plain, marked = tmp_path / "rule.json", tmp_path / "bom.json"
    plain.write_text(doc, encoding="utf-8")
    marked.write_text(doc, encoding="utf-8-sig")
    rels, rels_marked = tmp_path / "rels.txt", tmp_path / "bom.txt"
    rels.write_text("x1*x2 - x2*x1\n", encoding="utf-8")
    rels_marked.write_text("x1*x2 - x2*x1\n", encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert rels_marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    ideal = ["ideal", "--max-degree", "4", "--basis", "--json"]
    check = ["check", "--max-degree", "4"]
    want_ideal = run(*ideal, "--rule", str(plain))
    want_check = run(*check, "--rule", str(plain), "--relations", str(rels))
    assert want_ideal[0] == 0 and "verdict: inconsistent" in want_check[1]
    assert run(*ideal, "--rule", str(marked)) == want_ideal
    for rule, rel in ((marked, rels), (plain, rels_marked), (marked, rels_marked)):
        assert run(*check, "--rule", str(rule), "--relations", str(rel)) == want_check


def test_deeply_nested_rule_file_exits_1(tmp_path):
    # 5,000 levels, refused before the JSON decoder reads them
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    rel = tmp_path / "rels.txt"
    rel.write_text("x1*x2 - x2*x1\n")
    for argv in (["ideal", "--rule", str(deep), "--max-degree", "2"],
                 ["derive", "--rule", str(deep), "--var", "1", "--expr", "x1"],
                 ["check", "--rule", str(deep), "--relations", str(rel)]):
        assert run(*argv) == (1, "", "nccalc: error: rule file is nested too deeply\n")


def test_rule_file_nesting_is_counted_before_decoding(tmp_path):
    # the limit is rulefile.MAX_NESTING = 100 levels of arrays and objects,
    # checked on the text, so that every Python version refuses alike
    deep = tmp_path / "deep.json"
    too_deep = (1, "", "nccalc: error: rule file is nested too deeply\n")
    deep.write_text('{"A": ' + "[" * 100 + "]" * 100 + "}")
    assert run("ideal", "--rule", str(deep), "--max-degree", "2") == too_deep
    deep.write_text("[" * 100 + "]" * 100)
    assert run("ideal", "--rule", str(deep), "--max-degree", "2") == (
        1, "", "nccalc: error: rule file must be a JSON object\n")
    # brackets inside strings are text, not nesting
    path = write_rule(tmp_path, "strings.json", {
        "n": 2, "vars": ["[" * 200 + '"{', "x2"],
        "A": [[["x1", "0"], ["0", "x1"]], [["x2", "0"], ["0", "x2"]]]})
    code, out, err = run("ideal", "--rule", path, "--max-degree", "2")
    assert (code, out) == (1, "")
    assert err.startswith("nccalc: error: generator name '[[[")


def test_change_basis_out_that_cannot_be_written_exits_1(tmp_path):
    path = write_rule(tmp_path)
    missing = tmp_path / "missing" / "out.json"
    for target, reason in ((missing, "No such file or directory"),
                           (tmp_path, "Is a directory")):
        code, out, err = run("change-basis", "--rule", path, "--matrix", "1,0;0,1",
                             "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("nccalc: error: cannot write rule file: ")
        assert reason in err and err.count("\n") == 1
    assert not missing.parent.exists()


def test_stdout_closed_after_one_line_exits_1_without_a_traceback(tmp_path):
    # `nccalc check ... | head -1`: the listing runs to 1,387 lines, far
    # past what the pipe holds, so its writes meet the closed pipe
    rule = tmp_path / "ex35.json"
    rule.write_text(run("examples", "show", "ex3.5")[1])
    rel = tmp_path / "rels.txt"
    rel.write_text("x1*x2 - x2*x1\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nccalc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "nccalc.cli", "check", "--rule", str(rule),
         "--relations", str(rel), "--max-degree", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"mode: degree-bounded\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
