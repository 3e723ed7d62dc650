"""The benchmark's own checks, on tiny inputs.

Each workload runs one round on a few small inputs; its check must pass on
the real outputs and reject a corrupted copy: a shifted pole, a changed RPF
coefficient, a changed printed digit. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os

import pytest

import oracle
import workloads
from spans import NullTracer, Tracer, layer_metrics

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TinyIsp(workloads.IspEnum):
    PS = range(4, 7)
    NS = range(1, 4)


class TinyVerify(workloads.RpfVerify):
    SLOTS = ((3, 1, 4, False), (6, 1, 1, True))


class TinyAnsatz(workloads.RpfAnsatz):
    POOL = ((3, (1, 2)),)


class TinyCli(workloads.CliMix):
    ENVELOPES = ((3, (1, 2)),)

    def round(self, r):
        env, good, bad = self.envelopes[0]
        return [
            ("cf", ["cf", "--p", "5", "--word", "1,3", "--decimal-digits", "60", "--output", "json"],
             {"p": 5, "letters": (1, 3), "digits": 60}),
            ("isps", ["isps", "--p", "4", "--n", "2", "--output", "json"], {"p": 4, "n": 2}),
            ("count", ["count", "--p", "7", "--max-n", "5"], {}),
            ("minpoly", ["minpoly", "--p", "9", "--output", "json"], {"p": 9}),
            self._rpf_req("latex"),
            ("verify-good", ["verify", "--file", good], {"env": env}),
            ("verify-bad", ["verify", "--file", bad, "--output", "json"], {"env": env}),
        ]

    def _rpf_req(self, output):
        args = ["rpf", "--p", "3", "--word", "1,2", "--weight", "2", "--output", output]
        return "rpf-" + output, args, {"p": 3, "letters": (1, 2)}


@pytest.fixture(autouse=True)
def _src_on_path(monkeypatch, tmp_path):
    # the CLI workload starts `python -m heckerpf` processes
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    monkeypatch.chdir(tmp_path)


def _one_round(cls, tmp_path, tracer=None):
    wl = cls(7, tracer or NullTracer(), str(tmp_path))
    wl.warm_up()
    wl.prepare()
    results = [(op, wl.run(op)) for op in wl.round(0)]
    for op, res in results:
        assert wl.check(op, res) == [], op
    assert wl.finish_checks() == []
    return wl, results


def test_isp_check_rejects_a_shifted_pole(tmp_path):
    wl, results = _one_round(TinyIsp, tmp_path)
    w, system = next((w, s) for w, s in results if len(w) == 3)
    d = system.to_json_dict()
    bad = copy.deepcopy(d)
    bad["positives"][1]["P"][0] += 1
    assert oracle.check_system(w.p, w.letters, d) == []
    assert oracle.check_system(w.p, w.letters, bad)


def test_isp_check_rejects_a_wrong_count():
    assert oracle.count_systems(5, 1) == 2
    assert oracle.count_systems(5, 6) == 670
    wl = TinyIsp(1, NullTracer(), ".")
    wl.word_counts = {(5, 6): 669}
    assert wl.finish_checks()


@pytest.mark.parametrize("cls", [TinyVerify, TinyAnsatz])
def test_rpf_checks_reject_a_changed_coefficient(cls, tmp_path):
    wl, results = _one_round(cls, tmp_path)
    q = results[0][1] if cls is TinyVerify else results[0][1][1][0]
    d = q.to_json_dict()
    points = workloads._points(wl.check_rng)
    assert oracle.check_rpf(d, points) == []
    bad = copy.deepcopy(d)
    bad["pole_terms"][-1]["coeff"]["u"]["num"][0] += 1
    assert oracle.check_rpf(bad, points)
    assert oracle.check_rpf(workloads._perturbed(d), points)


def test_cli_checks_reject_a_changed_digit(tmp_path):
    wl, results = _one_round(TinyCli, tmp_path)
    op, (rc, out, err) = results[0]
    digits = json.loads(out)["reduced_decimal"]
    last = str((int(digits[-1]) + 1) % 10)
    bad = out.replace(digits, digits[:-1] + last)
    assert wl.check(op, (rc, bad, err))
    op, (rc, out, err) = next(r for r in results if r[0][0] == "rpf-latex")
    assert wl.check(op, (rc, out.replace("1", "2", 1), err))


def test_traced_round_gives_layer_spans(tmp_path):
    tracer = Tracer()
    tracer.workload = "isp-enum"
    wl, results = _one_round(TinyIsp, tmp_path, tracer)
    for w, system in results:
        wl.probe(w, system, 0.0)
    spans = {s[0] for s in tracer.spans}
    assert {"group.enumerate_words", "isp.isp_of_word", "group.word_to_matrix", "cf.surd_of_cf",
            "field.sign"} <= spans
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    with pytest.raises(RuntimeError):
        layer_metrics(tracer, wl.counts, {})  # the other workloads' layers are missing
