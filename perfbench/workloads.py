"""The four workloads: their inputs, one operation, layer probes and checks.

Each workload runs as a closed loop with one caller, in whole rounds. A
round holds one operation per slot; the slots are fixed, and the seed picks
the input inside each slot, so every round costs about the same and two
seeds give comparable runs. `run` is the timed operation. `probe` runs only
in the traced run, after the operation and outside its timing: it times the
benchmark's own calls into single layers on the operation's own values.
`check` runs after the timed phase and compares the output with
oracle.py, which shares no code with the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from heckerpf import cli
from heckerpf.cf import CF, cf_expand, surd_of_cf, word_to_period
from heckerpf.field import ExtElem, FieldElem, conjugate_intervals, minimal_polynomial, sign
from heckerpf.group import GenWord, enumerate_words, generator, word_to_matrix
from heckerpf.isp import is_hecke_symmetric, isp_of_word, transpose_word
from heckerpf.rpf import (
    RPF,
    NoSolution,
    PoleHit,
    build_ansatz,
    build_symmetric_odd,
    build_union,
    evaluate,
    from_json,
    inversion_residual,
    principal_part,
    q_zero,
    rotation_residual,
    to_json,
    to_latex,
    verify,
)

# the warm-up word; no workload times it
WARM_LETTERS = (1, 1, 2)


class Failure(Exception):
    """An operation that did not produce an answer the workload expects."""


def _points(rng, count=3):
    """Seeded off-integer sample points for the mpmath relation checks."""
    return [Fraction(rng.randint(30, 900), rng.choice((7, 11, 13, 17, 19, 23))) for _ in range(count)]


def _auto_build(k, system):
    # the --mode auto route of the CLI, minus the ansatz branch
    return build_symmetric_odd(k, system) if system.symmetric else build_union(k, system)


def _perturbed(d):
    """A serialized function with its first coefficient doubled."""
    bad = json.loads(json.dumps(d))
    coeff = bad["pole_terms"][0]["coeff"] if bad["pole_terms"] else bad["tail"][0]
    for part in ("u", "v"):
        coeff[part]["num"] = [2 * c for c in coeff[part]["num"]]
    return bad


def _rejects_perturbed(d):
    return [] if not verify(from_json(json.dumps(_perturbed(d)))).valid else [
        "verify accepted a function with one coefficient doubled"]


def _warm(ps):
    """Fill the caches that depend on p alone: minimal polynomial, root
    enclosures, generator and rotation matrices. q_zero has no pole system
    and the warm-up word is never timed, so no cache keyed by a timed input
    is touched. The root enclosures go to 1280 bits, the most any operation
    of these workloads asks for (the second step of the square-root test);
    left to the timed phase, the first operation at each p paid for them
    and made the first round up to 8% slower than the rest."""
    for p in ps:
        minimal_polynomial(p)
        conjugate_intervals(p, 1280)
        isp_of_word(GenWord(p, WARM_LETTERS))
        rotation_residual(q_zero(p, 1, 1), 2)


class Workload:
    name = ""
    rss_of = resource.RUSAGE_SELF

    def __init__(self, seed, tracer, out_dir):
        self.seed = seed
        self.tr = tracer
        self.out_dir = out_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.probe_rng = random.Random(f"{self.name}:{seed}:probe")
        self.check_rng = random.Random(f"{self.name}:{seed}:check")
        self.counts = {}

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def finish_checks(self):
        return []

    def extra_layers(self):
        return {}


class IspEnum(Workload):
    """isp_of_word on canonical words from enumerate_words, one word per
    (p, n) cell per round, never the same word twice in a run.

    The words of each cell are a fixed sample, the same for every seed; the
    seed orders each round. A few words cost 20 to 60 times the median, so
    a seeded draw of words made ops_per_s spread by 22% over five seeds."""

    name = "isp-enum"
    PS = range(4, 13)
    NS = range(1, 7)

    def warm_up(self):
        _warm(self.PS)

    def prepare(self):
        self.word_counts, self.pools = {}, {}
        for p in self.PS:
            for n in self.NS:
                with self.tr.span("group.enumerate_words"):
                    words = enumerate_words(p, n)
                self.word_counts[(p, n)] = len(words)
                words = [w for w in words if w.letters != WARM_LETTERS]
                draw = random.Random(f"{self.name}:words:{p}:{n}")
                self.pools[(p, n)] = draw.sample(words, min(len(words), 1000))

    def round(self, r):
        ops = [w[r] for w in self.pools.values() if r < len(w)]
        self.rng.shuffle(ops)
        return ops

    def run(self, w):
        with self.tr.span("isp.isp_of_word"):
            return isp_of_word(w)

    def probe(self, w, system, dt):
        with self.tr.span("group.word_to_matrix"):
            word_to_matrix(w)
        cf = CF(w.p, [], word_to_period(w))
        with self.tr.span("cf.surd_of_cf"):
            surd_of_cf(cf)
        for a in system.positives:
            # fresh element, so the sign is computed, not looked up
            x = a.D - a.P * a.P + self.probe_rng.randint(1, 999) * a.Q
            with self.tr.span("field.sign"):
                sign(x)
        self.count("isp.systems", 1)
        self.count("isp.poles", len(system.positives))

    def check(self, w, system):
        import oracle

        out = [] if system.word == w else ["system of another word"]
        return out + oracle.check_system(w.p, w.letters, system.to_json_dict())

    def finish_checks(self):
        import oracle

        return [f"{n} words for p={p}, n={n}; necklaces give {oracle.count_systems(p, n)}"
                for (p, n), count in self.word_counts.items() if count != oracle.count_systems(p, n)]


class RpfVerify(Workload):
    """isp_of_word, the --mode auto construction and verify. Each slot is
    (p, k, n, symmetric): one cost class, since the verify point budget and
    the pole-term count follow from p, k, n and the symmetry type."""

    name = "rpf-verify"
    # about 7 s a round, so that three rounds fill a 20-second run; with
    # 8.5 s rounds, runs flipped between two and three rounds
    SLOTS = (
        (3, 3, 2, True),
        (3, 1, 4, False),
        (5, 2, 1, False),
        (6, 1, 1, True),
        (7, 1, 1, False),
        (8, 1, 1, True),
        (9, 1, 1, False),
    )

    def warm_up(self):
        _warm(sorted({s[0] for s in self.SLOTS}))

    def prepare(self):
        self.pools = []
        for p, k, n, symmetric in self.SLOTS:
            # a class and its conjugate give the same function up to sign
            words = [w for w in enumerate_words(p, n) if is_hecke_symmetric(w) == symmetric
                     and not transpose_word(w) < w]
            random.Random(f"{self.name}:words:{p}:{k}:{n}").shuffle(words)
            self.pools.append([(k, w) for w in words])

    def round(self, r):
        ops = [pool[r % len(pool)] for pool in self.pools]
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        k, w = op
        with self.tr.span("isp.isp_of_word"):
            system = isp_of_word(w)
        with self.tr.span("rpf.build"):
            q = _auto_build(k, system)
        with self.tr.span("rpf.verify"):
            result = verify(q)
        if not result.valid:
            raise Failure(f"verify rejected the construction: {result.witness}")
        return q

    def probe(self, op, q, dt):
        rng = self.probe_rng
        z = FieldElem.from_int(q.p, 2 * rng.randint(1, 40))
        for x in (z, FieldElem.from_int(q.p, 2 * rng.randint(1, 40))):
            with contextlib.suppress(PoleHit), self.tr.span("rpf.evaluate"):
                evaluate(q, x)
        with contextlib.suppress(PoleHit):
            with self.tr.span("rpf.residual"):
                inversion_residual(q, z)
            with self.tr.span("rpf.residual"):
                rotation_residual(q, z)
        # field operands: pole centres P/Q and the rotation images of z
        values = [FieldElem(t.alpha.P) / t.alpha.Q for t in q.pole_terms]
        u = generator(q.p, "U")
        m = u
        for _ in range(1, q.p):
            a, b, c, d = (FieldElem(e) for e in m.entries())
            if not (z * c + d).is_zero():
                values.append((z * a + b) / (z * c + d))
            m = m * u
        values = [v for v in values if not v.is_zero()]
        pairs = [(rng.choice(values).num, rng.choice(values).num) for _ in range(32)]
        with self.tr.span("field.ring_mul", calls=len(pairs)):
            for x, y in pairs:
                x * y
        for x in rng.sample(values, min(4, len(values))):
            with self.tr.span("field.field_inverse"):
                1 / x
        self.count("rpf.pole_terms", len(q.pole_terms))

    def check(self, op, q):
        import oracle

        d = q.to_json_dict()
        return oracle.check_rpf(d, _points(self.check_rng)) + _rejects_perturbed(d)


class RpfAnsatz(Workload):
    """build_ansatz at weight 4 on self-conjugate systems (the even-weight
    --mode auto route), then verify of the basepoint and every direction.
    Only inputs with a solution: every round runs each of them once."""

    name = "rpf-ansatz"
    K = 2
    POOL = ((3, (1, 2)), (4, (2,)), (6, (3,)))

    def warm_up(self):
        _warm(sorted({p for p, _ in self.POOL}))

    def prepare(self):
        self.words = [GenWord(p, letters) for p, letters in self.POOL]

    def round(self, r):
        ops = list(self.words)
        self.rng.shuffle(ops)
        return ops

    def run(self, w):
        with self.tr.span("isp.isp_of_word"):
            system = isp_of_word(w)
        with self.tr.span("rpf.ansatz"):
            res = build_ansatz(self.K, system, "symmetric")
        if isinstance(res, NoSolution):
            raise Failure("no solution")
        functions = [res] if isinstance(res, RPF) else [res.basepoint, *res.directions]
        with self.tr.span("rpf.verify"):
            for q in functions:
                if not verify(q).valid:
                    raise Failure("verify rejected the ansatz solution")
        return system, functions

    def probe(self, w, result, dt):
        system, functions = result
        rng = self.probe_rng
        for a in system.positives:
            with self.tr.span("rpf.principal_part"):
                principal_part(self.K, a)
        q = functions[0]
        z = rng.choice((3, 5, 7, 11, 13, 17, 19, 23))
        with contextlib.suppress(PoleHit):
            with self.tr.span("rpf.residual"):
                inversion_residual(q, z)
            with self.tr.span("rpf.residual"):
                rotation_residual(q, z)
        # extension operands: the coefficients and the poles themselves
        values = [t.coeff for t in q.pole_terms]
        values += [ExtElem(FieldElem(a.P) / a.Q, FieldElem.from_int(a.p, 1) / a.Q, a.D)
                   for a in system.positives]
        by_d = {}
        for v in values:
            by_d.setdefault(tuple(v.D.coeffs), []).append(v)
        values = max(by_d.values(), key=len)
        pairs = [(rng.choice(values), rng.choice(values)) for _ in range(32)]
        with self.tr.span("field.ext_mul", calls=len(pairs)):
            for x, y in pairs:
                x * y
        for x in rng.sample(values, min(4, len(values))):
            with self.tr.span("field.ext_inverse"):
                x.inverse()

    def check(self, w, result):
        import oracle

        system, functions = result
        out = []
        for q in functions:
            out += oracle.check_rpf(q.to_json_dict(), _points(self.check_rng))
        return out + _rejects_perturbed(functions[0].to_json_dict())


class CliMix(Workload):
    """One `python -m heckerpf` process per operation. A round is one request
    of each slot below. Every round sends the same requests, their flags
    drawn once, the same for every seed; the seed orders the round. Each
    request is a fresh process, so a repeat finds no cache of the program
    warm, and rounds that cost the same keep ops_per_s and op_p50_ms apart
    from how many rounds fit in a run."""

    name = "cli-mix"
    rss_of = resource.RUSAGE_CHILDREN
    # weight-2 requests whose build and verify take well under a second
    RPF_POOL = ((3, (1, 2)), (3, (1, 1, 2)), (4, (2,)), (4, (1, 3)), (5, (2,)))
    ENVELOPES = ((3, (1, 2)), (4, (2,)), (5, (2,)))

    def warm_up(self):
        self.envelopes = []
        for i, (p, letters) in enumerate(self.ENVELOPES):
            w = GenWord(p, letters)
            q = _auto_build(1, isp_of_word(w))
            env = {"result": "rpf", "p": p, "word": list(w.letters), "weight": 2, "rpf": q.to_json_dict()}
            paths = []
            for tag, body in (("good", env), ("bad", dict(env, rpf=_perturbed(env["rpf"])))):
                path = os.path.join(self.out_dir, f"envelope-{self.seed}-{i}-{tag}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(body, fh)
                paths.append(path)
            self.envelopes.append((env, *paths))
        # one request outside the timed mix (minpoly of p = 3) brings the
        # package's bytecode and the interpreter files into the caches
        self._request(["minpoly", "--p", "3"])

    def prepare(self):
        self.word_pools = {(p, n): enumerate_words(p, n) for p in (4, 5, 6) for n in (1, 2, 3)}
        self.json_of = {}
        self.startups = []

    def _cf(self, rng, lo, hi):
        p, n = rng.choice((4, 5, 6)), rng.randint(1, 3)
        w = rng.choice(self.word_pools[(p, n)])
        digits = rng.randint(lo, hi)
        args = ["cf", "--p", str(p), "--word", ",".join(map(str, w.letters)),
                "--decimal-digits", str(digits), "--output", "json"]
        return "cf", args, {"p": p, "letters": w.letters, "digits": digits}

    def _rpf(self, rng, output):
        p, letters = rng.choice(self.RPF_POOL)
        args = ["rpf", "--p", str(p), "--word", ",".join(map(str, letters)), "--weight", "2",
                "--output", output]
        return "rpf-" + output, args, {"p": p, "letters": letters}

    def round(self, r):
        rng = random.Random(f"{self.name}:round")
        p, n = rng.choice(((5, 2), (6, 2), (4, 3), (5, 3)))
        env, good, bad = rng.choice(self.envelopes)
        q_max = rng.randint(4, 40)
        ops = [
            ("minpoly", ["minpoly", "--p", str(q_max), "--output", "json"], {"p": q_max}),
            ("count", ["count", "--p", str(rng.randint(4, 40)), "--max-n", str(rng.randint(4, 12))], {}),
            # digit ranges sit inside one step of the precision ladder each
            # (512, 2048 and 4096 bits), so a slot's cost does not jump
            self._cf(rng, 100, 140),
            self._cf(rng, 330, 580),
            self._cf(rng, 660, 1000),
            ("isps", ["isps", "--p", str(p), "--n", str(n), "--output", "json"], {"p": p, "n": n}),
            self._rpf(rng, "json"),
            self._rpf(rng, "text"),
            self._rpf(rng, "latex"),
            ("verify-good", ["verify", "--file", good], {"env": env}),
            ("verify-bad", ["verify", "--file", bad, "--output", "json"], {"env": env}),
        ]
        self.rng.shuffle(ops)
        return ops

    def _request(self, args):
        proc = subprocess.run([sys.executable, "-m", "heckerpf", *args], capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, op):
        return self._request(op[1])

    def probe(self, op, result, dt):
        kind, args, meta = op
        spans = self._probe_child(["main", *args])
        self.startups.append(dt - (spans[0][2] - spans[0][1]))
        self.count("cli.stdout_bytes", len(result[1].encode()))
        if kind == "cf" or kind.startswith("rpf-"):
            spans += self._probe_child([kind[:3], json.dumps({k: meta[k] for k in meta if k != "env"})])
        for name, start, end in spans:
            self.tr.record(name, start, end)

    def _probe_child(self, argv):
        proc = subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "cli_probe.py"), *argv],
                              capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    def extra_layers(self):
        return {"cli.startup_ms": {"value": statistics.median(self.startups) * 1e3, "unit": "ms"}}

    def _json_of_rpf(self, args):
        """The same rpf request with --output json, run in-process once."""
        key = tuple(args[:-2])
        if key not in self.json_of:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main([*args[:-2], "--output", "json"])
            self.json_of[key] = json.loads(buf.getvalue())
        return self.json_of[key]

    def check(self, op, result):
        import oracle

        kind, args, meta = op
        rc, out, err = result
        want_rc = 1 if kind == "verify-bad" else 0
        if rc != want_rc or err:
            return [f"{' '.join(args)}: exit {rc}, stderr {err[-200:]!r}"]
        points = _points(self.check_rng)
        if kind == "minpoly":
            return oracle.check_minpoly(meta["p"], json.loads(out)["coeffs"])
        if kind == "count":
            p, max_n = int(args[2]), int(args[4])
            want = [f"{n}\t{oracle.count_systems(p, n)}" for n in range(1, max_n + 1)]
            return [] if out.splitlines() == want else [f"count --p {p} differs from the necklace formula"]
        if kind == "cf":
            d = json.loads(out)
            if tuple(d["word"]) != tuple(meta["letters"]):
                return ["cf printed another word"]
            return oracle.check_cf(meta["p"], meta["letters"], d["reduced"], d["reduced_decimal"], meta["digits"])
        if kind == "isps":
            systems = json.loads(out)
            p, n = meta["p"], meta["n"]
            problems = [] if len(systems) == oracle.count_systems(p, n) else ["isps missed systems"]
            for s in systems:
                problems += oracle.check_system(p, tuple(s["word"]), s)
                for a, dec in zip(s["positives"], s["decimals"]):
                    problems += oracle.check_decimal(lambda a=a: oracle.surd(a, oracle.lam(p)), dec, 30)
            return problems
        if kind.startswith("rpf-"):
            # text and LaTeX must render the function that the JSON form of
            # the same request carries and that passes the oracle
            d = json.loads(out) if kind == "rpf-json" else self._json_of_rpf(args)
            problems = oracle.check_rpf(d["rpf"], points) if d["verified"] is True else ["rpf not verified"]
            lines = out.splitlines()
            if kind == "rpf-text" and (lines[1] != d["latex"] or lines[-1] != "verified: valid"):
                problems.append("rpf text output does not render the verified function")
            if kind == "rpf-latex" and out.rstrip("\n") != d["latex"]:
                problems.append("rpf latex output does not render the verified function")
            return problems
        env = meta["env"]
        if kind == "verify-good":
            return oracle.check_rpf(env["rpf"], points) + ([] if out == "valid\n" else ["good envelope not valid"])
        # verify-bad: the perturbed envelope must really be wrong, and be called so
        problems = [] if oracle.check_rpf(_perturbed(env["rpf"]), points) else ["perturbed envelope passes the oracle"]
        return problems + ([] if json.loads(out)["valid"] is False else ["perturbed envelope called valid"])


WORKLOADS = {cls.name: cls for cls in (IspEnum, RpfVerify, RpfAnsatz, CliMix)}
