"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil

import pytest

import inputs as I
import run
import workloads as W
from tracer import Tracer

MAIN = run.import_cli()

import nccalc.linalg  # noqa: E402  (importable once run.import_cli put src on the path)
import nccalc.optimal  # noqa: E402
from nccalc.calculus import word_partials  # noqa: E402
from nccalc.fields import QQ  # noqa: E402
from nccalc.freealg import all_words  # noqa: E402
from nccalc.rulefile import parse_rule_dict  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def filtration_jobs(degree, seed=0):
    """The filtration-n2 jobs, cut down to a cheaper degree."""
    jobs = W.filtration_n2(seed, None).jobs
    for job in jobs:
        job.argvs = [argv[:-1] + [str(degree)] for argv in job.argvs]
        job.check = W.check_closed_form(job.name, degree)
    return jobs


def traced_passes(jobs):
    return run.measure(MAIN, jobs, 0, trace=True)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    passes, tracer = traced_passes(filtration_jobs(4))
    layer = run.per_layer(tracer, passes)
    e2e = run.end_to_end(passes, 0.1)
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    for name in list(layer) + list(e2e):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_wrong_output_raises_fail_ratio():
    jobs = filtration_jobs(4, seed=3)

    def wrong_main(argv):
        # answers ex3.4 with the dimensions of ex3.5
        return MAIN([a.replace("ex3.4", "ex3.5") for a in argv])

    _, good = run.run_pass(MAIN, jobs)
    run.verify(jobs, [{"runs": good}])
    assert all(r["ok"] for r in good)
    _, bad = run.run_pass(wrong_main, jobs)
    run.verify(jobs, [{"runs": bad}])
    assert [r["job"] for r in bad if not r["ok"]] == ["ex3.4"]


def test_nonzero_exit_is_a_failure():
    job = W.Job("bad", "derive", [["derive", "--rule", "missing.json", "--var", "1",
                                   "--expr", "x1"]], W.no_check)
    _, runs = run.run_pass(MAIN, [job])
    run.verify([job], [{"runs": runs}])
    assert not runs[0]["ok"] and "exit codes [1]" in runs[0]["error"]


def test_tracer_counts_calls_through_imported_bindings():
    original = nccalc.linalg.nullspace
    tracer = Tracer()
    with tracer:
        assert nccalc.optimal.nullspace is not original
        nccalc.optimal.nullspace([[1, 1]], 2, QQ)
    assert nccalc.optimal.nullspace is original and nccalc.linalg.nullspace is original
    assert tracer.aggregate()["linalg.nullspace"]["calls"] == 1
    with tracer:
        code = tracer.call("job.examples-run", MAIN,
                           ["examples", "run", "ex3.4", "--max-degree", "3"])
    assert code == 0
    stats = tracer.aggregate()
    assert stats["linalg.nullspace"]["calls"] == 3   # one per compute_U, via optimal
    assert stats["optimal.optimal_ideal"]["calls"] == 1
    assert stats["linalg.Subspace.from_vectors"]["calls"] > 0
    assert stats["linalg.rref"]["calls"] > 0
    for entry in stats.values():
        assert entry["self_s"] <= entry["busy_s"] + 1e-9


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(run.WORK, f"test-{os.getpid()}-{request.node.name}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_traced_outputs_match_untraced(workdir):
    jobs = filtration_jobs(4) + W.calculus_queries(5, workdir).jobs[:3]
    passes, _ = traced_passes(jobs)
    assert [p["traced"] for p in passes] == [False, True]
    untraced = {r["job"]: r["digest"] for r in passes[0]["runs"]}
    traced = {r["job"]: r["digest"] for r in passes[1]["runs"]}
    assert untraced == traced and None not in traced.values()


def test_inputs_are_a_function_of_the_seed(workdir):
    def snapshot(seed, sub):
        d = os.path.join(workdir, sub)
        os.makedirs(d)
        wl = W.calculus_queries(seed, d)
        files = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), encoding="utf-8") as fh:
                files[name] = fh.read()
        return files, json.dumps([j.argvs for j in wl.jobs]).replace(d, "")

    a, b, c = snapshot(7, "a"), snapshot(7, "b"), snapshot(8, "c")
    assert a == b
    assert a[0] != c[0]


def test_basis_changes_are_invertible_mod_p():
    rng = random.Random(1)
    for _ in range(200):
        m = I.draw_invertible(rng, 3)
        assert I.det(m) % I.P != 0


def test_reference_math_agrees_with_nccalc():
    rng = random.Random(2)
    for trial in range(10):
        n = 2 + trial % 2
        rule, alpha = I.draw_rule(rng, n), I.draw_invertible(rng, n)
        theirs = parse_rule_dict(I.rule_document(rule)).rule
        mine = parse_rule_dict(I.rule_document(I.change_basis(rule, alpha))).rule
        assert mine == theirs.change_basis(alpha)
        for w in list(all_words(3, n))[:8]:
            ref = I.twisted_partials(rule, {w: 1})
            got = word_partials(theirs, w)
            assert [dict(p.terms) for p in got] == ref
