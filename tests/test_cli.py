"""Tests for the command-line surface: subcommand outputs, exit codes,
JSON determinism, canonical echoing, and the serialize/verify loop."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import mpmath as mp

from heckerpf.cli import NO_SOLUTION_MESSAGE, main

mp.mp.dps = 50


def run_cli(argv):
    """Run main() capturing output; returns (exit_code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
    return code, out.getvalue(), err.getvalue()


def test_minpoly_examples():
    code, out, _ = run_cli(["minpoly", "--p", "6"])
    assert code == 0 and out == "x^2 - 3\n"

    code, out, _ = run_cli(["minpoly", "--p", "3"])
    assert code == 0 and out == "x - 1\n"

    code, _, err = run_cli(["minpoly", "--p", "2"])
    assert code == 2 and "at least 3" in err

    code, out, _ = run_cli(["minpoly", "--p", "6", "--output", "latex"])
    assert code == 0 and out == "x^{2} - 3\n"

    code, out, _ = run_cli(["minpoly", "--p", "7", "--output", "json"])
    assert code == 0
    d = json.loads(out)
    assert d == {
        "p": 7,
        "degree": 3,
        "coeffs": [1, -2, -1, 1],
        "polynomial": "x^3 - x^2 - 2x + 1",
    }


def test_count_examples():
    code, out, _ = run_cli(["count", "--p", "4", "--max-n", "3"])
    assert code == 0 and out == "1\t1\n2\t3\n3\t8\n"

    code, out, _ = run_cli(["count", "--p", "5", "--max-n", "8"])
    assert code == 0 and out.splitlines()[-1] == "8\t8160"

    code, out, _ = run_cli(["count", "--p", "3", "--max-n", "1"])
    assert code == 0 and out == "1\t0\n"

    code, out, _ = run_cli(["count", "--p", "4", "--max-n", "3", "--output", "json"])
    assert json.loads(out) == {"p": 4, "max_n": 3, "counts": [1, 3, 8]}


def test_isps_examples():
    code, out, _ = run_cli(["isps", "--p", "6", "--n", "1", "--output", "json"])
    assert code == 0
    systems = json.loads(out)
    assert [s["word"] for s in systems] == [[2], [3], [4]]
    assert [s["symmetric"] for s in systems] == [False, True, False]
    # positive poles sqrt(2), 1, 1/sqrt(2), to thirty digits
    decimals = [s["decimals"][0] for s in systems]
    assert decimals[1] == "1." + "0" * 30
    for got, value in zip(decimals[::2], (mp.sqrt(2), 1 / mp.sqrt(2))):
        want = mp.nstr(value, 26, strip_zeros=False)
        assert got[:20] == want[:20]

    code, out, _ = run_cli(["isps", "--p", "3", "--n", "2", "--symmetric-only"])
    assert code == 0
    assert out.count("word ") == 1 and out.startswith("word 1,2  symmetric")

    code, out, _ = run_cli(
        ["isps", "--p", "5", "--n", "1", "--symmetric-only", "--output", "json"]
    )
    assert code == 0 and json.loads(out) == []

    code, _, _ = run_cli(
        ["isps", "--p", "5", "--n", "1", "--symmetric-only", "--nonsymmetric-only"]
    )
    assert code == 2


def test_cf_examples():
    code, out, _ = run_cli(["cf", "--p", "6", "--word", "3,5,1", "--output", "json"])
    assert code == 0
    d = json.loads(out)
    assert d["word"] == [1, 3, 5]
    assert d["expansion"]["preperiod"] == []
    assert sorted(d["expansion"]["period"]) == sorted(d["period"])

    code, out2, _ = run_cli(
        ["cf", "--p", "6", "--period", "3,1,2,1,1,1", "--output", "json"]
    )
    assert code == 0 and json.loads(out2)["word"] == [1, 3, 5]

    code, _, err = run_cli(["cf", "--p", "3", "--word", "1"])
    assert code == 1 and "parabolic" in err

    code, _, err = run_cli(["cf", "--p", "5", "--word", "2,2"])
    assert code == 1

    code, _, _ = run_cli(["cf", "--p", "4", "--word", "9"])
    assert code == 2


def test_rpf_golden_pair_weight_two():
    code, out, _ = run_cli(["rpf", "--p", "3", "--word", "2,1", "--weight", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word 1,2  weight 2  mode symmetric-odd"
    assert lines[1] == r"\frac{1}{z^{2} - z - 1} + \frac{1}{z^{2} + z - 1}"
    assert lines[2] == "verified: valid"


def test_rpf_ansatz_constant_two():
    code, out, _ = run_cli(
        ["rpf", "--p", "4", "--word", "2", "--weight", "4", "--mode", "ansatz",
         "--output", "json"]
    )
    assert code == 0
    d = json.loads(out)
    assert d["result"] == "rpf" and d["mode"] == "ansatz" and d["verified"] is True
    assert d["word"] == [2] and d["weight"] == 4
    # the one undetermined constant comes out as exactly 2/z
    assert r"\frac{2}{z}" in d["latex"]
    assert d["rpf"]["tail"][0]["u"] == {"num": [2, 0], "den": 1}


def test_rpf_weight_two_family():
    code, out, _ = run_cli(
        ["rpf", "--p", "5", "--word", "2", "--weight", "2", "--mode", "ansatz",
         "--output", "json"]
    )
    assert code == 0
    d = json.loads(out)
    assert d["result"] == "family" and len(d["directions"]) == 1
    assert len(d["basepoint"]["pole_terms"]) == 2
    assert "t_{1}" in d["latex"]

    code, out, _ = run_cli(
        ["rpf", "--p", "5", "--word", "2", "--weight", "4", "--output", "json"]
    )
    assert code == 0
    d = json.loads(out)
    assert d["result"] == "rpf" and d["mode"] == "union"


def test_rpf_usage_and_domain_errors():
    code, _, _ = run_cli(["rpf", "--p", "3", "--word", "1,2", "--weight", "3"])
    assert code == 2

    code, _, _ = run_cli(["rpf", "--p", "4", "--word", "5", "--weight", "2"])
    assert code == 2

    code, _, err = run_cli(["rpf", "--p", "3", "--word", "1", "--weight", "2"])
    assert code == 1 and "parabolic" in err

    code, _, err = run_cli(
        ["rpf", "--p", "5", "--word", "2", "--weight", "2", "--mode",
         "symmetric-odd"]
    )
    assert code == 1


def test_rpf_no_solution_branch():
    # the p = 4 word 2 system has no weight-8 ansatz solution (the JSON of
    # that request is pinned in test_stdout_digests_are_pinned)
    argv = ["rpf", "--p", "4", "--word", "2", "--weight", "8", "--mode", "ansatz"]
    code, out, _ = run_cli(argv)
    assert code == 0 and out.strip() == NO_SOLUTION_MESSAGE

    code, out, _ = run_cli(argv + ["--output", "json"])
    assert code == 0
    d = json.loads(out)
    assert d["result"] == "no-solution" and d["message"] == NO_SOLUTION_MESSAGE


def test_subcommands_without_rpf_never_import_it():
    # minpoly, count, isps and cf print without compiling rpf.py
    script = (
        "import contextlib, io, sys\n"
        "from heckerpf.cli import main\n"
        "for argv in (['minpoly', '--p', '5'], ['count', '--p', '5', '--max-n', '2'],\n"
        "             ['isps', '--p', '5', '--n', '1', '--output', 'latex'],\n"
        "             ['cf', '--p', '5', '--word', '2', '--output', 'latex']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "print('heckerpf.rpf' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_verify_loop():
    code, out, _ = run_cli(
        ["rpf", "--p", "3", "--word", "1,2", "--weight", "2", "--output", "json"]
    )
    assert code == 0
    envelope = json.loads(out)

    with tempfile.TemporaryDirectory() as tmp:
        enveloped = os.path.join(tmp, "enveloped.json")
        bare = os.path.join(tmp, "bare.json")
        broken = os.path.join(tmp, "broken.json")
        garbage = os.path.join(tmp, "garbage.json")
        empty = os.path.join(tmp, "empty.json")
        with open(enveloped, "w") as fh:
            fh.write(out)
        with open(bare, "w") as fh:
            json.dump(envelope["rpf"], fh)
        tampered = json.loads(json.dumps(envelope["rpf"]))
        tampered["pole_terms"][0]["coeff"]["u"]["num"] = [7]
        with open(broken, "w") as fh:
            json.dump(tampered, fh)
        with open(garbage, "w") as fh:
            fh.write("{this is not json")
        with open(empty, "w") as fh:
            pass

        for path in (enveloped, bare):
            code, out, _ = run_cli(["verify", "--file", path])
            assert code == 0 and out == "valid\n"

        code, out, _ = run_cli(["verify", "--file", broken, "--output", "json"])
        assert code == 1
        d = json.loads(out)
        assert d["valid"] is False
        assert d["witness"]["relation"] in ("inversion", "rotation")
        assert d["witness"]["point"] >= 2

        for path in (garbage, empty, os.path.join(tmp, "absent.json")):
            code, _, err = run_cli(["verify", "--file", path])
            assert code == 2


def test_verify_rejects_zero_denominator():
    code, out, _ = run_cli(
        ["rpf", "--p", "5", "--word", "2", "--weight", "2", "--output", "json"]
    )
    assert code == 0 and '"den":4' in out
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "zero_den.json")
        with open(path, "w") as fh:
            fh.write(out.replace('"den":4', '"den":0', 1))
        code, _, err = run_cli(["verify", "--file", path])
    assert code == 2
    assert "Traceback" not in err and "zero denominator" in err


def test_verify_sums_terms_sharing_a_pole_and_order():
    # the first term again with its coefficient doubled: the two terms share
    # a pole and an order, the file holds 3c there, and the function is
    # refused as invalid, not with a traceback
    code, out, _ = run_cli(
        ["rpf", "--p", "5", "--word", "2", "--weight", "2", "--output", "json"]
    )
    assert code == 0
    envelope = json.loads(out)
    terms = envelope["rpf"]["pole_terms"]
    extra = json.loads(json.dumps(terms[0]))
    for part in ("u", "v"):
        extra["coeff"][part]["num"] = [2 * c for c in extra["coeff"][part]["num"]]
    terms.append(extra)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "repeated.json")
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        code, stdout, err = run_cli(["verify", "--file", path])
    assert code == 1 and err == ""
    assert stdout == "invalid: nonzero inversion residual at z = 2\n"


def test_verify_rejects_malformed_envelopes():
    # one field of a real envelope (p = 5, degree 2) changed per case; each
    # must be refused as malformed (exit 2), never accepted or reduced
    code, out, _ = run_cli(
        ["rpf", "--p", "5", "--word", "2", "--weight", "2", "--output", "json"]
    )
    assert code == 0
    term = ("pole_terms", 0)
    coeff_v = term + ("coeff", "v")
    cases = [
        (("p",), 3.5),
        (("p",), "5"),
        (("p",), True),
        (("p",), 2),
        (("k",), 1.0),
        (("k",), None),
        (("k",), 0),
        (term + ("order",), True),
        (term + ("order",), 1.5),
        (term + ("order",), 0),
        (coeff_v + ("den",), 4.0),
        (coeff_v + ("den",), "4"),
        (term + ("alpha", "D"), [0, 0]),
        (term + ("alpha", "D"), [-5, 0]),
        (("pole_terms",), {}),
        (("tail",), None),
        (coeff_v + ("num",), [True, -1]),
        (coeff_v + ("num",), [1.0, -1]),
        (coeff_v + ("num",), ["1", -1]),
        (coeff_v + ("num",), [1, -1, 0, 0, 0]),
        (coeff_v + ("num",), [1]),
        # degree(20011) = 10005; refused by its entry count, before the
        # minimal polynomial (quadratic in p) is built
        (("p",), 20011),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "malformed.json")
        for keys, value in cases:
            envelope = json.loads(out)
            node = envelope["rpf"]
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
            with open(path, "w") as fh:
                json.dump(envelope, fh)
            code, stdout, err = run_cli(["verify", "--file", path])
            assert code == 2 and stdout == "", (keys, value)
            assert "Traceback" not in err and "does not parse" in err, (keys, value)

def test_json_outputs_are_byte_deterministic():
    invocations = [
        ["minpoly", "--p", "5", "--output", "json"],
        ["count", "--p", "6", "--max-n", "4", "--output", "json"],
        ["isps", "--p", "6", "--n", "1", "--output", "json"],
        ["cf", "--p", "6", "--word", "1,3,5", "--output", "json"],
        ["rpf", "--p", "3", "--word", "1,2", "--weight", "2", "--output", "json"],
    ]
    for argv in invocations:
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == 0
        assert out1 == out2


def test_stdout_digests_are_pinned():
    # sha256 of stdout. Field elements have one canonical form and JSON is
    # byte-deterministic, so a faster arithmetic path must keep these digests;
    # a change of representation or rendering shows up here
    golden = [
        (
            ["rpf", "--p", "5", "--word", "2", "--weight", "2", "--output", "json"],
            "5d5bffb4dbf0211ee58aff28520e321dac58968cb5924b34b1781b7e0bc9dbdd",
        ),
        (
            ["rpf", "--p", "3", "--word", "1,2", "--weight", "4", "--output", "json"],
            "90ebedef682c86dd8b368a149315a2ec96fdc1635f0606b7f6d5bdef5bede1c6",
        ),
        (
            ["rpf", "--p", "7", "--word", "1,6", "--weight", "2", "--output", "latex"],
            "d0044e4bef4ce9486f88cab38f66e84ba85069fdeb6e07d62f2ecc493e215fcf",
        ),
        (
            ["isps", "--p", "5", "--n", "3", "--output", "json"],
            "5b9681214a37adcda3307dfe0f79e5c9c6d97a10d2d82d92aec86f56db895ea9",
        ),
        (
            ["isps", "--p", "9", "--n", "2", "--output", "json", "--decimal-digits", "30"],
            "b5286d43aba8319c8444de1ecec1aad1a01eb1ad287631b03705e7407f6fe400",
        ),
        # degree 6: certified signs and decimals on six-term ring elements
        (
            ["isps", "--p", "13", "--n", "2", "--output", "json"],
            "fbbe149135e725def552b0fe68aa23dd7cb57cace57d77db08995f87330e8155",
        ),
        (
            ["cf", "--p", "9", "--word", "2,5,7", "--output", "json"],
            "207595d27f79f7ddc2d2d652ad142ec6f39856431b38e97b6930df8c7c03a0bb",
        ),
        # ansatz: a unique solution over a square pole discriminant, a
        # family, and an inconsistent system ("result":"no-solution")
        (
            ["rpf", "--p", "4", "--word", "2", "--weight", "4", "--output", "json"],
            "bb507f1c76c9118a9e4aee439698e8467f6a1a421bf47618bbb0c835a8c265ad",
        ),
        (
            ["rpf", "--p", "5", "--word", "2", "--weight", "2", "--mode", "ansatz", "--output", "json"],
            "ae8738a3e252d43defac8ad890bdae013d577b1e38b0810f27a0a1bcc5021267",
        ),
        (
            ["rpf", "--p", "4", "--word", "2", "--weight", "8", "--output", "json"],
            "5c837ca7bda1bf5199de997f21159e785a609ca74050e51afcb0b9f2aec7d309",
        ),
        # certified decimals that refine lambda to 4096 and 16384 bits
        (
            ["cf", "--p", "11", "--word", "3,8", "--decimal-digits", "1000", "--output", "json"],
            "20dd0ecf30125006451d7532ed9c9cf3e1518331894c3fc1cd55df593f4021c9",
        ),
        (
            ["cf", "--p", "4", "--word", "2", "--decimal-digits", "2500", "--output", "json"],
            "59c873a83707dc1c8b52670c000aec2af5220b9d8098b691dfaa4eba239bc4d3",
        ),
    ]
    for argv, digest in golden:
        code, out, _ = run_cli(argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


def test_decimals_past_the_sign_ladder():
    # 2500 digits need more than 8192 bits; the precision doubles with no
    # cap, and the digits extend the 2400-digit floor
    def reduced_decimal(digits):
        argv = ["cf", "--p", "3", "--word", "1,2", "--output", "json", "--decimal-digits", str(digits)]
        code, out, _ = run_cli(argv)
        assert code == 0
        return json.loads(out)["reduced_decimal"]

    short, long = reduced_decimal(2400), reduced_decimal(2500)
    assert len(long) == len(short) + 100
    assert long.startswith(short)
