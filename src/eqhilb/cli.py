"""Command-line front end.

Every command returns a ``_Report`` and prints nothing; ``main`` is the
one place that picks the output form ``--format`` names, writes the
``--render svg`` file before anything else, and prints.  Output is
deterministic (identical invocations are byte-identical); ``--format
json`` emits objects that parse back into the originating types, and
``--format csv`` emits one row per ``(a, b, n, r)`` with the Euler
characteristic and the compactly supported Betti numbers.  Exit status
is 0 exactly when every requested check passed.  The table ``_COMMANDS``
is the one place a subcommand and its options are declared, and
``_build_parser`` builds every subparser from it.  Every call pays for
the modules it loads, so the top of this module imports only what every
command needs, and each command imports the one further module it uses
(``abacus``, ``analysis``, ``stabilization`` or ``tangent``) when it runs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import Callable, NamedTuple

from . import coloring
from .errors import EqhilbError
from .partitions import Partition, diagram

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"

#: fixed palette indexed by residue (cycled when n exceeds its length)
_PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
]

#: side of one diagram cell in SVG pixels
_CELL = 28


class _Report(NamedTuple):
    """What a command answers, in every form it has: the JSON payload, the
    text lines, the CSV rows (``enumerate`` and ``poincare``), the exit
    status and, for ``enumerate`` and ``betti``, a function that draws the
    SVG."""

    json: object
    text: list[str]
    csv: list[list] | None = None
    status: int = 0
    svg: Callable[[], str] | None = None


def _colored_diagram(g: coloring.GroupParams, lam: Partition) -> str:
    return diagram(lam, cell=lambda box: _DIGITS[coloring.color(g, box)])


def _svg(w: int, h: int, body: list[str]) -> str:
    """One SVG document of ``w x h`` pixels: the arrow-tip marker, a white
    background and the elements of ``body``."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        '<defs><marker id="tip" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#222"/></marker></defs>',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        *body,
        "</svg>",
    ])


def _diagram_svg(lam: Partition, g: coloring.GroupParams, arrows=None) -> tuple[int, int, list[str]]:
    """The width, height and elements of one diagram's drawing: cells colored
    by residue, row 0 at the bottom, optional arrow overlay drawn tail to
    head; each cell is ``_CELL`` pixels wide."""
    width = lam.rows[0] if lam.rows else 1
    height = len(lam.rows) if lam.rows else 1
    pad = _CELL  # room for arrow tails just outside the diagram
    w = (width + 2) * _CELL
    h = (height + 2) * _CELL

    def cx(i: int) -> int:
        return pad + i * _CELL

    def cy(j: int) -> int:
        return h - pad - (j + 1) * _CELL

    parts = []
    for box in lam.boxes():
        s = coloring.color(g, box)
        x, y = cx(box.i), cy(box.j)
        parts.append(
            f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
            f'fill="{_PALETTE[s % len(_PALETTE)]}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x + _CELL // 2}" y="{y + _CELL // 2 + 4}" '
            f'font-size="{_CELL // 2}" text-anchor="middle" '
            f'fill="#111">{s}</text>'
        )
    for ar in arrows or ():
        x1 = cx(ar.tail.i) + _CELL // 2
        y1 = cy(ar.tail.j) + _CELL // 2
        x2 = cx(ar.head.i) + _CELL // 2
        y2 = cy(ar.head.j) + _CELL // 2
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#222" '
            f'stroke-width="2" marker-end="url(#tip)"/>'
        )
    return w, h, parts


def _family_svg(members, g: coloring.GroupParams) -> str:
    """One SVG document of a family: each member's diagram in a group of
    its own, stacked top to bottom in the given order."""
    body, width, top = [], 0, 0
    for lam in members:
        w, h, parts = _diagram_svg(lam, g)
        body += [f'<g transform="translate(0,{top})">', *parts, "</g>"]
        width, top = max(width, w), top + h
    return _svg(width, top, body)


def _group(args) -> coloring.GroupParams:
    return coloring.GroupParams(args.a, args.b, args.n)


def _group_json(g: coloring.GroupParams) -> dict:
    return {"a": g.a, "b": g.b, "n": g.n}


def _partition(args) -> Partition:
    """``--partition``, refused above the box ceiling, since every command
    that reads it does work per box."""
    lam = Partition.parse(args.partition)
    ceiling = coloring._box_ceiling()
    if lam.size > ceiling:
        raise EqhilbError(f"--partition has {lam.size} boxes, more than the ceiling of "
                          f"{ceiling} (raise {coloring.MAX_BOXES_ENV})")
    return lam


def _cmd_enumerate(args) -> _Report:
    g = _group(args)
    record = coloring._family_record(g, args.r)
    found = record.members
    entries = [{"partition": str(lam), "betti": beta} for lam, beta in zip(found, record.statistics)]
    text = [f"balanced partitions for {g}, r={args.r}: {len(entries)}"]
    text += [f"  {e['partition']}  betti={e['betti']}" for e in entries]
    if args.render == "ascii":
        for lam in found:
            text += ["", _colored_diagram(g, lam)]
    rows = [["a", "b", "n", "r", "partition", "betti"]]
    rows += [[g.a, g.b, g.n, args.r, f'"{e["partition"]}"', e["betti"]] for e in entries]
    return _Report({"group": _group_json(g), "r": args.r, "partitions": entries}, text, rows,
                   svg=lambda: _family_svg(found, g))


def _cmd_betti(args) -> _Report:
    from . import tangent
    g = _group(args)
    lam = _partition(args)
    beta = tangent.betti_statistic(g, lam)
    arrows = tangent.invariant_arrows(g, lam)
    text = [f"betti statistic of {lam} for {g}: {beta}", f"invariant arrows ({len(arrows)}):"]
    text += [f"  {ar.kind} at {tuple(ar.box)}: tail {tuple(ar.tail)} -> "
             f"head {tuple(ar.head)}, weight {ar.weight}" for ar in arrows]
    if args.render == "ascii":
        text.append(_colored_diagram(g, lam))
    payload = {
        "group": _group_json(g),
        "partition": str(lam),
        "betti": beta,
        "invariant_arrows": [
            {"kind": ar.kind, "box": list(ar.box), "tail": list(ar.tail),
             "head": list(ar.head), "weight": list(ar.weight)}
            for ar in arrows
        ],
    }
    return _Report(payload, text, svg=lambda: _svg(*_diagram_svg(lam, g, arrows)))


def _cmd_poincare(args) -> _Report:
    if args.n is None and (args.n_from is None or args.n_to is None):
        raise EqhilbError("poincare needs --n or both --n-from and --n-to")
    if args.n is not None and (args.n_from is not None or args.n_to is not None):
        raise EqhilbError("poincare takes --n or --n-from and --n-to, not both")
    if args.n is None and args.n_to < args.n_from:
        raise EqhilbError(f"--n-to {args.n_to} is below --n-from {args.n_from}")
    g0 = coloring.GroupParams(args.a, args.b, args.n_from if args.n is None else args.n)
    r = args.r
    ns = [args.n] if args.n is not None else coloring._order_range(r, args.n_from, args.n_to)
    entries = [(g, coloring.l_class(g, r)) for g in map(g0.with_n, ns)]
    payload = [{"group": _group_json(g), "r": r, "l_class": lc.to_json(),
                "poincare": lc.poincare_str(), "euler": lc.euler()} for g, lc in entries]
    text = [f"{g} r={r}: [H] = {lc}, P(z) = {lc.poincare_str()}, euler = {lc.euler()}"
            for g, lc in entries]
    top = 4 * r
    rows = [["a", "b", "n", "r", "euler"] + [f"b_{i}" for i in range(top + 1)]]
    rows += [[g.a, g.b, g.n, r, lc.euler(), *lc.betti_numbers(top)] for g, lc in entries]
    return _Report(payload, text, rows)


def _cmd_psi(args) -> _Report:
    from . import stabilization
    g = _group(args)
    lam = _partition(args)
    if args.inverse:
        result = stabilization.psi_inverse(g, args.r, lam)
        label = "preimage"
    else:
        result = stabilization.psi(g, args.r, lam)
        label = "image"
    payload = {"group": _group_json(g), "r": args.r, "partition": str(lam), label: str(result)}
    return _Report(payload, [f"{label} of {lam} under the insertion map for {g}, "
                             f"r={args.r}: {result}"])


def _cmd_verify_period(args) -> _Report:
    from . import stabilization
    g = coloring.GroupParams(args.a, args.b, args.n_from)
    report = stabilization.verify_period(g, args.r, args.n_from, args.n_to)
    ok = report["all_equal"] and report["all_bijections_ok"]
    text = [f"n={chk['n']} vs n={chk['n_next']}: {'equal' if chk['equal'] else 'UNEQUAL'}, "
            f"coeffs {chk['coeffs_n']} vs {chk['coeffs_next']}" for chk in report["checks"]]
    return _Report(report, text + ["PASS" if ok else "FAIL"], status=0 if ok else 1)


def _cmd_verify_qpoly(args) -> _Report:
    from . import analysis
    g = coloring.GroupParams(args.a, args.b, args.n_from)
    report = analysis.verify_quasipolynomial(g, args.r, args.n_from, args.n_to)
    text = [f"counts: {report['counts']}"]
    if report["ok"]:
        text.append(f"quasipolynomial of period {report['period']} fits from "
                    f"n={report['valid_from']}, degree {report['observed_degree']}")
    text.append("PASS" if report["ok"] else "FAIL")
    return _Report(report, text, status=0 if report["ok"] else 1)


def _cmd_core_quotient(args) -> _Report:
    from . import abacus
    lam = _partition(args)
    ceiling = coloring._box_ceiling()
    if args.n > ceiling + 1:  # the beads lie in 0..ceiling: more runners add only empty parts
        raise EqhilbError(f"--n is {args.n}, more than one above the ceiling of {ceiling} "
                          f"(raise {coloring.MAX_BOXES_ENV})")
    quot, core = abacus.runners(lam, args.n)
    word = abacus.to_abacus(lam)
    holds = lam.size == core.size + args.n * quot.total()
    payload = {
        "partition": str(lam),
        "n": args.n,
        "abacus": "".join(str(x) for x in word.word),
        "core": str(core),
        "quotient": [str(p) for p in quot.parts],
        "alignment": quot.alignment,
        "size_identity": {
            "size": lam.size,
            "core_size": core.size,
            "quotient_total": quot.total(),
            "holds": holds,
        },
    }
    text = [f"abacus of {lam}: {word}", f"{args.n}-core: {core}",
            f"{args.n}-quotient: ({', '.join(payload['quotient'])})",
            f"size identity: {lam.size} = {core.size} + {args.n}*{quot.total()}"]
    return _Report(payload, text, status=0 if holds else 1)


def _cmd_hj(args) -> _Report:
    from . import analysis
    terms = analysis.hj_expand(args.n, args.k)
    return _Report({"n": args.n, "k": args.k, "terms": list(terms), "length": len(terms)},
                   [f"{args.n}/{args.k} = [[{', '.join(str(t) for t in terms)}]], "
                    f"length {len(terms)}"])


def _cmd_check_star(args) -> _Report:
    from . import analysis
    if args.partition is not None and (args.n is not None or args.r is not None):
        raise EqhilbError("check-star takes --partition or --n and --r, not both")
    if args.partition is not None:
        lam = _partition(args)
        ok = analysis.satisfies_star(lam, args.a, args.b)
        return _Report({"a": args.a, "b": args.b, "partition": str(lam), "satisfies_star": ok},
                       [f"{lam} {'satisfies' if ok else 'violates'} the rectangle "
                        f"condition for ({args.a},{args.b})"])
    if args.n is None or args.r is None:
        raise EqhilbError("check-star needs either --partition or both --n and --r")
    report = analysis.check_rectangle_bijection(coloring.GroupParams(args.a, args.b, args.n), args.r)
    return _Report(report, [f"rectangle map for {report['group']} r={report['r']}: "
                            f"{report['source_count']} sources vs {report['target_count']} "
                            f"targets, {'bijective' if report['bijective'] else 'MISMATCH'}"],
                   status=0 if report["bijective"] else 1)


def _cmd_normalize(args) -> _Report:
    from . import analysis
    g = analysis.normalize_group(_group(args))
    return _Report(_group_json(g), [f"normalized parameters: {g}"])


#: every subcommand in ``--help`` order: name, handler, help line, the
#: options in order (``partition`` takes text, ``inverse`` is a switch and
#: every other option an int; each is required unless a trailing ``?`` makes
#: it optional), and whether it also offers ``--format csv`` and
#: ``--render``/``--out``
_COMMANDS = [
    ("enumerate", _cmd_enumerate, "list balanced partitions with their statistic",
     "a b n r", True, True),
    ("betti", _cmd_betti, "statistic and invariant arrows of one partition",
     "a b n partition", False, True),
    ("poincare", _cmd_poincare, "L-class, Poincare polynomial and Euler characteristic",
     "a b n? n-from? n-to? r", True, False),
    ("psi", _cmd_psi, "apply the insertion map (or its inverse)",
     "a b n r partition inverse?", False, False),
    ("verify-period", _cmd_verify_period, "check periodicity of the L-class in n",
     "a b r n-from n-to", False, False),
    ("verify-qpoly", _cmd_verify_qpoly, "check quasipolynomiality of the count in n",
     "a b r n-from n-to", False, False),
    ("core-quotient", _cmd_core_quotient, "abacus word, n-core and n-quotient",
     "n partition", False, False),
    ("hj", _cmd_hj, "Hirzebruch-Jung continued fraction of n/k",
     "n k", False, False),
    ("check-star", _cmd_check_star, "rectangle condition / rectangle-map bijection",
     "a b partition? n? r?", False, False),
    ("normalize", _cmd_normalize, "reduce parameters to weights coprime to n",
     "a b n", False, False),
]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process from
    ``_COMMANDS``: parsing leaves it unchanged, and help is formatted only
    when printed."""
    parser = argparse.ArgumentParser(
        prog="eqhilb",
        description="Topological invariants of equivariant Hilbert schemes "
        "via balanced-partition combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary, options, csv, render in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for option in options.split():
            flag = option.removesuffix("?")
            kind = {"partition": {}, "inverse": {"action": "store_true"}}.get(flag, {"type": int})
            p.add_argument(f"--{flag}", required=flag == option, **kind)
        p.add_argument("--format", choices=["text", "json"] + (["csv"] if csv else []),
                       default="text")
        if render:
            p.add_argument("--render", choices=["ascii", "svg"])
            p.add_argument("--out", help="output file for --render svg")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        render = getattr(args, "render", None)
        if render == "svg" and not args.out:
            raise EqhilbError("--render svg requires --out FILE")
        if render != "svg" and getattr(args, "out", None) is not None:
            raise EqhilbError("--out FILE is written only with --render svg")
        if render == "ascii" and args.format != "text":
            raise EqhilbError(f"--render ascii draws only text output, got --format {args.format}")
        if render == "ascii" and args.n > len(_DIGITS):
            raise EqhilbError(f"--render ascii shows at most {len(_DIGITS)} colors, "
                              f"got --n {args.n}")
        report = args.func(args)
        if render == "svg":  # before stdout, so a failed write leaves it empty
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(report.svg())
            except OSError as exc:
                raise EqhilbError(f"cannot write {args.out}: {exc.strerror}") from None
        if args.format == "json":
            import json
            lines = [json.dumps(report.json, indent=2, sort_keys=True, ensure_ascii=True)]
        elif args.format == "csv":
            lines = [",".join(str(x) for x in row) for row in report.csv]
        else:
            lines = report.text
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return report.status
    except EqhilbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # point stdout at devnull so that flushing the rest at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError:
        pass  # reported below, once leaving the handler has dropped its traceback
    # only a MemoryError gets here; the search's recursive inner function
    # holds its tables in a reference cycle, which unwinding does not free
    gc.collect()
    print("error: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
