"""Layer timings of one CLI request, taken in a fresh process.

A `python -m heckerpf` request starts with empty caches, so its layers are
timed the same way: in a new interpreter, on the request's own inputs.

    cli_probe.py main <heckerpf args...>   times cli.main in-process
    cli_probe.py cf '{"p": 5, "letters": [2], "digits": 300}'
    cli_probe.py rpf '{"p": 5, "letters": [2]}'

Prints a JSON list of [span name, start, end]. time.perf_counter reads the
system-wide monotonic clock on Linux, so the caller can place these spans
inside its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter


def main(argv):
    spans = []
    if argv[0] == "main":
        from heckerpf import cli

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            cli.main(argv[1:])
            spans.append(("cli.main", start, perf_counter()))
    else:
        from heckerpf.cf import cf_expand
        from heckerpf.group import GenWord
        from heckerpf.isp import isp_of_word
        from heckerpf.rpf import build_symmetric_odd, build_union, to_json, to_latex

        meta = json.loads(argv[1])
        system = isp_of_word(GenWord(meta["p"], meta["letters"]))
        if argv[0] == "cf":
            # the order of the cf subcommand: expansion, then the decimal
            start = perf_counter()
            cf_expand(system.beta1)
            spans.append(("cf.cf_expand", start, perf_counter()))
            start = perf_counter()
            system.beta1.decimal(meta["digits"])
            spans.append(("field.decimal", start, perf_counter()))
        else:
            q = build_symmetric_odd(1, system) if system.symmetric else build_union(1, system)
            start = perf_counter()
            to_json(q)
            to_latex(q)
            spans.append(("rpf.render", start, perf_counter()))
    print(json.dumps(spans))


if __name__ == "__main__":
    main(sys.argv[1:])
