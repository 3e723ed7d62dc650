"""Command-line surface for the exact Hecke-group machinery.

Six subcommands: ``minpoly`` prints the minimal polynomial of the group's
translation length, ``count`` tabulates pole-system counts, ``isps``
enumerates the systems themselves, ``cf`` walks the word / continued
fraction / quadratic surd correspondence, ``rpf`` builds a rational period
function for a given class and weight, and ``verify`` re-checks a function
serialized by ``rpf``.

Every subcommand takes ``--output text|json|latex`` (default text).  JSON
output is byte-deterministic for identical flags: keys are sorted,
separators are fixed, and decimal strings come from certified interval
refinement.  Decimals are display-only; nothing downstream consumes them.

Exit codes: 0 on success (a clean "no solution" report counts as
success), 1 when the mathematics rejects the request — parabolic word,
non-primitive word, wrong template for the symmetry type, or an invalid
function under ``verify`` — and 2 for unusable flags or unparsable input
files.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cf import cf_expand, period_to_word, surd_str, word_to_period
from .field import DomainError, minimal_polynomial, poly_latex, poly_str
from .group import GenWord
from .isp import count_isps, enumerate_isps, isp_of_word
from .latex import cf_latex, family_latex, surd_latex, to_latex

NO_SOLUTION_MESSAGE = "no RPF exists for this (ISP, weight) under this template"


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# argument types and shared validation
# ---------------------------------------------------------------------------


def _p_arg(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if p < 3:
        raise argparse.ArgumentTypeError("the group index must be at least 3")
    return p


def _positive_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if n < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return n


def _letters_arg(text: str) -> tuple:
    try:
        letters = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers like 1,3,5"
        )
    return letters


def _word_of(parser: argparse.ArgumentParser, p: int, letters) -> GenWord:
    """Validate the letter range against p and canonicalize.  Range errors
    are usage errors: the flag combination itself is unusable."""
    if any(not 1 <= x <= p - 1 for x in letters):
        parser.error(f"word letters must lie in 1..{p - 1} for --p {p}")
    return GenWord(p, letters)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_minpoly(args, parser) -> int:
    poly = minimal_polynomial(args.p)
    if args.output == "json":
        _emit_json(
            {
                "p": args.p,
                "degree": poly.degree,
                "coeffs": list(poly.coeffs),
                "polynomial": poly_str(poly.coeffs),
            }
        )
    elif args.output == "latex":
        print(poly_latex(poly.coeffs, "x"))
    else:
        print(poly_str(poly.coeffs))
    return 0


def _cmd_count(args, parser) -> int:
    counts = [count_isps(args.p, n) for n in range(1, args.max_n + 1)]
    if args.output == "json":
        _emit_json({"p": args.p, "max_n": args.max_n, "counts": counts})
    elif args.output == "latex":
        rows = [r"%d & %d \\" % (n, c) for n, c in enumerate(counts, start=1)]
        print(r"\begin{array}{rr}")
        print(r"n & \text{systems} \\")
        for row in rows:
            print(row)
        print(r"\end{array}")
    else:
        for n, c in enumerate(counts, start=1):
            print(f"{n}\t{c}")
    return 0


def _cmd_isps(args, parser) -> int:
    systems = enumerate_isps(args.p, args.n)
    if args.symmetric_only:
        systems = [s for s in systems if s.symmetric]
    if args.nonsymmetric_only:
        systems = [s for s in systems if not s.symmetric]
    digits = args.decimal_digits
    if args.output == "json":
        out = []
        for s in systems:
            d = s.to_json_dict()
            d["decimals"] = [a.decimal(digits) for a in s.positives]
            out.append(d)
        _emit_json(out)
    elif args.output == "latex":
        for s in systems:
            print(r"\left\{%s\right\}" % ", ".join(surd_latex(a) for a in s.positives))
    else:
        if not systems:
            print("no systems")
        for s in systems:
            shape = "symmetric" if s.symmetric else "nonsymmetric"
            conj = ",".join(str(x) for x in s.conjugate_word.letters)
            word = ",".join(str(x) for x in s.word.letters)
            print(f"word {word}  {shape}  conjugate {conj}")
            for a in s.positives:
                print(f"  {surd_str(a)} ≈ {a.decimal(digits)}")
    return 0


def _cmd_cf(args, parser) -> int:
    if args.word is not None:
        w = _word_of(parser, args.p, args.word)
    else:
        w = period_to_word(args.p, args.period)
    period = word_to_period(w)
    system = isp_of_word(w)
    beta = system.beta1
    expansion = cf_expand(beta)
    digits = args.decimal_digits
    if args.output == "json":
        _emit_json(
            {
                "p": args.p,
                "word": list(w.letters),
                "period": list(period),
                "reduced": beta.to_json_dict(),
                "reduced_decimal": beta.decimal(digits),
                "expansion": expansion.to_json_dict(),
            }
        )
    elif args.output == "latex":
        print(r"%s = %s" % (surd_latex(beta), cf_latex(expansion)))
    else:
        word = ",".join(str(x) for x in w.letters)
        print(f"word {word}")
        print(f"period {list(period)}")
        print(f"reduced number {surd_str(beta)} ≈ {beta.decimal(digits)}")
        print(f"expansion preperiod={list(expansion.preperiod)} period={list(expansion.period)}")
    return 0


def _resolve_mode(mode: str, symmetric: bool, k: int) -> str:
    if mode != "auto":
        return mode
    if symmetric and k % 2 == 1:
        return "symmetric-odd"
    if not symmetric:
        return "union"
    return "ansatz"


def _print_rpf(args, w: GenWord, mode: str, kind: str, latex: str, fields, text=()) -> None:
    """Print an answer of the rpf subcommand.  JSON is the envelope
    {result: kind, p, word, weight, mode} with `fields()` added; the latex
    output is `latex`; text is the word/weight/mode header over the lines of
    `text`, or `latex` alone when there are none."""
    if args.output == "json":
        _emit_json({"result": kind, "p": args.p, "word": list(w.letters),
                    "weight": args.weight, "mode": mode, **fields()})
    elif args.output == "latex" or not text:
        print(latex)
    else:
        word = ",".join(str(x) for x in w.letters)
        print(f"word {word}  weight {args.weight}  mode {mode}")
        print("\n".join(text))


def _cmd_rpf(args, parser) -> int:
    from .rpf import NoSolution, SolutionFamily, build_ansatz, build_symmetric_odd, build_union, verify

    if args.weight % 2 != 0:
        parser.error("--weight must be a positive even integer")
    k = args.weight // 2
    w = _word_of(parser, args.p, args.word)
    system = isp_of_word(w)
    mode = _resolve_mode(args.mode, system.symmetric, k)
    if mode == "symmetric-odd":
        result = build_symmetric_odd(k, system)
    elif mode == "union":
        result = build_union(k, system)
    else:
        template = "symmetric" if system.symmetric else "nonsymmetric"
        result = build_ansatz(k, system, template)

    if isinstance(result, NoSolution):
        _print_rpf(args, w, mode, "no-solution", NO_SOLUTION_MESSAGE,
                   lambda: {"message": NO_SOLUTION_MESSAGE})
        return 0

    family = isinstance(result, SolutionFamily)
    for q in (result.basepoint, *result.directions) if family else (result,):
        r = verify(q)
        if not r.valid:
            raise DomainError(f"construction failed verification: {r.witness}")
    if family:
        latex = family_latex(result)
        _print_rpf(args, w, mode, "family", latex, lambda: {
            "basepoint": result.basepoint.to_json_dict(),
            "directions": [d.to_json_dict() for d in result.directions],
            "latex": latex,
            "verified": True,
        }, [f"solution family with {len(result.directions)} free direction(s)", latex,
            "verified: valid (basepoint and every direction)"])
    else:
        latex = to_latex(result)
        _print_rpf(args, w, mode, "rpf", latex, lambda: {
            "rpf": result.to_json_dict(),
            "latex": latex,
            "verified": True,
        }, [latex, "verified: valid"])
    return 0


def _cmd_verify(args, parser) -> int:
    from .rpf import from_json, verify

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        parser.error(f"cannot read {args.file}: {exc}")
    try:
        d = json.loads(text)
        if isinstance(d, dict) and "rpf" in d and "pole_terms" not in d:
            d = d["rpf"]  # accept the envelope the rpf subcommand emits
        q = from_json(json.dumps(d))
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError, DomainError) as exc:
        parser.error(f"{args.file} does not parse as a serialized function: {exc}")
    r = verify(q)
    if args.output == "json":
        witness = None
        if not r.valid:
            point, relation = r.witness
            witness = {"point": point, "relation": relation}
        _emit_json({"valid": r.valid, "witness": witness})
    else:
        if r.valid:
            print("valid")
        else:
            point, relation = r.witness
            print(f"invalid: nonzero {relation} residual at z = {point}")
    return 0 if r.valid else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckerpf",
        description="exact Hecke-group pole systems and rational period functions",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output",
        choices=("text", "json", "latex"),
        default="text",
        help="rendering: human text, deterministic JSON, or LaTeX",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser(
        "minpoly",
        parents=[common],
        help="minimal polynomial of 2cos(pi/p)",
    )
    sp.add_argument("--p", type=_p_arg, required=True, help="group index, at least 3")
    sp.set_defaults(run=_cmd_minpoly)

    sp = sub.add_parser(
        "count",
        parents=[common],
        help="number of pole systems with n = 1..max positive poles",
    )
    sp.add_argument("--p", type=_p_arg, required=True)
    sp.add_argument("--max-n", type=_positive_arg, required=True, metavar="N")
    sp.set_defaults(run=_cmd_count)

    sp = sub.add_parser(
        "isps",
        parents=[common],
        help="enumerate the pole systems with exactly n positive poles",
    )
    sp.add_argument("--p", type=_p_arg, required=True)
    sp.add_argument("--n", type=_positive_arg, required=True)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--symmetric-only", action="store_true")
    group.add_argument("--nonsymmetric-only", action="store_true")
    sp.add_argument(
        "--decimal-digits",
        type=_positive_arg,
        default=30,
        help="digits in the display decimals (default 30)",
    )
    sp.set_defaults(run=_cmd_isps)

    sp = sub.add_parser(
        "cf",
        parents=[common],
        help="word / continued-fraction period / reduced surd correspondence",
    )
    sp.add_argument("--p", type=_p_arg, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", type=_letters_arg, help="comma-separated letters, any rotation")
    group.add_argument("--period", type=_letters_arg, help="comma-separated period entries")
    sp.add_argument("--decimal-digits", type=_positive_arg, default=30)
    sp.set_defaults(run=_cmd_cf)

    sp = sub.add_parser(
        "rpf",
        parents=[common],
        help="build and verify a rational period function for a class",
    )
    sp.add_argument("--p", type=_p_arg, required=True)
    sp.add_argument("--word", type=_letters_arg, required=True)
    sp.add_argument("--weight", type=_positive_arg, required=True, help="even weight 2k")
    sp.add_argument(
        "--mode",
        choices=("auto", "symmetric-odd", "union", "ansatz"),
        default="auto",
        help="construction; auto picks by symmetry and weight parity",
    )
    sp.set_defaults(run=_cmd_rpf)

    sp = sub.add_parser(
        "verify",
        parents=[common],
        help="re-check a function serialized by the rpf subcommand",
    )
    sp.add_argument("--file", required=True, help="path to the JSON serialization")
    sp.set_defaults(run=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
