"""Command-line front end.

Every command prints deterministic output (identical invocations are
byte-identical); ``--format json`` emits objects that parse back into
the originating types, and ``--format csv`` emits one row per
``(a, b, n, r)`` with the Euler characteristic and the compactly
supported Betti numbers.  Exit status is 0 exactly when every requested
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import abacus as ab
from . import analysis
from . import coloring
from . import stabilization
from . import tangent
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


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _jdump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True)


def _colored_diagram(g: coloring.GroupParams, lam: Partition) -> str:
    return diagram(lam, cell=lambda box: _DIGITS[coloring.color(g, box)])


def young_svg(lam: Partition, g: coloring.GroupParams | None = None, arrows=None) -> str:
    """SVG rendering of a diagram: cells colored by residue, row 0 at the
    bottom, optional arrow overlay drawn tail to head; each cell is
    ``_CELL`` pixels wide."""
    width = lam.rows[0] if lam.rows else 1
    height = len(lam.rows) if lam.rows else 1
    pad = _CELL  # room for arrow tails just outside the diagram
    w = (width + 2) * _CELL
    h = (height + 2) * _CELL

    def cx(i: int) -> int:
        return pad + i * _CELL

    def cy(j: int) -> int:
        return h - pad - (j + 1) * _CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        '<defs><marker id="tip" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#222"/></marker></defs>',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for box in lam.boxes():
        fill = "#dddddd"
        label = ""
        if g is not None:
            s = coloring.color(g, box)
            fill = _PALETTE[s % len(_PALETTE)]
            label = str(s)
        x, y = cx(box.i), cy(box.j)
        parts.append(
            f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
            f'fill="{fill}" stroke="#333"/>'
        )
        if label:
            parts.append(
                f'<text x="{x + _CELL // 2}" y="{y + _CELL // 2 + 4}" '
                f'font-size="{_CELL // 2}" text-anchor="middle" '
                f'fill="#111">{label}</text>'
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
    parts.append("</svg>")
    return "\n".join(parts)


def _write_svg(args, svg: str) -> None:
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise EqhilbError(f"cannot write {args.out}: {exc.strerror}") from None


def _group(args) -> coloring.GroupParams:
    return coloring.GroupParams(args.a, args.b, args.n)


def _partition(args) -> Partition:
    """``--partition``, refused above the box ceiling, since every command
    that reads it does work per box."""
    lam = Partition.parse(args.partition)
    ceiling = coloring._box_ceiling()
    if lam.size > ceiling:
        raise EqhilbError(f"--partition has {lam.size} boxes, more than the ceiling of "
                          f"{ceiling} (raise {coloring.MAX_BOXES_ENV})")
    return lam


def _csv_rows(rows: list[list]) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in rows)


def _poincare_csv(entries) -> str:
    top = max((4 * r for _, r, _ in entries), default=0)
    header = ["a", "b", "n", "r", "euler"] + [f"b_{i}" for i in range(top + 1)]
    rows = [header]
    for g, r, lc in entries:
        betti = lc.betti_numbers(top)
        rows.append([g.a, g.b, g.n, r, lc.euler(), *betti])
    return _csv_rows(rows)


def _cmd_enumerate(args) -> int:
    g = _group(args)
    found = coloring.enumerate_balanced(g, args.r)
    entries = [
        {"partition": str(lam), "betti": tangent._cell_dimension(g.a, g.b, g.n, lam)}
        for lam in found
    ]
    if args.render == "svg":
        _write_svg(args, "\n".join(young_svg(lam, g) for lam in found))
    if args.format == "json":
        _emit(_jdump({"group": {"a": g.a, "b": g.b, "n": g.n}, "r": args.r,
                      "partitions": entries}))
    elif args.format == "csv":
        rows = [["a", "b", "n", "r", "partition", "betti"]]
        rows += [[g.a, g.b, g.n, args.r, f'"{e["partition"]}"', e["betti"]] for e in entries]
        _emit(_csv_rows(rows))
    else:
        _emit(f"balanced partitions for {g}, r={args.r}: {len(entries)}")
        for e in entries:
            _emit(f"  {e['partition']}  betti={e['betti']}")
        if args.render == "ascii":
            for lam in found:
                _emit("")
                _emit(_colored_diagram(g, lam))
    return 0


def _cmd_betti(args) -> int:
    g = _group(args)
    lam = _partition(args)
    beta = tangent.betti_statistic(g, lam)
    arrows = tangent.invariant_arrows(g, lam)
    if args.render == "svg":
        _write_svg(args, young_svg(lam, g, arrows=arrows))
    if args.format == "json":
        _emit(_jdump({
            "group": {"a": g.a, "b": g.b, "n": g.n},
            "partition": str(lam),
            "betti": beta,
            "invariant_arrows": [
                {"kind": ar.kind, "box": list(ar.box), "tail": list(ar.tail),
                 "head": list(ar.head), "weight": list(ar.weight)}
                for ar in arrows
            ],
        }))
    else:
        _emit(f"betti statistic of {lam} for {g}: {beta}")
        _emit(f"invariant arrows ({len(arrows)}):")
        for ar in arrows:
            _emit(f"  {ar.kind} at {tuple(ar.box)}: tail {tuple(ar.tail)} -> "
                  f"head {tuple(ar.head)}, weight {ar.weight}")
        if args.render == "ascii":
            _emit(_colored_diagram(g, lam))
    return 0


def _cmd_poincare(args) -> int:
    if args.n is None and (args.n_from is None or args.n_to is None):
        raise EqhilbError("poincare needs --n or both --n-from and --n-to")
    if args.n is not None and (args.n_from is not None or args.n_to is not None):
        raise EqhilbError("poincare takes --n or --n-from and --n-to, not both")
    if args.n is None and args.n_to < args.n_from:
        raise EqhilbError(f"--n-to {args.n_to} is below --n-from {args.n_from}")
    g0 = coloring.GroupParams(args.a, args.b, args.n_from if args.n is None else args.n)
    ns = [args.n] if args.n is not None else list(range(args.n_from, args.n_to + 1))
    entries = []
    for n in ns:
        g = g0.with_n(n)
        entries.append((g, args.r, tangent.l_class(g, args.r)))
    if args.format == "json":
        _emit(_jdump([
            {"group": {"a": g.a, "b": g.b, "n": g.n}, "r": r,
             "l_class": lc.to_json(), "poincare": lc.poincare_str(),
             "euler": lc.euler()}
            for g, r, lc in entries
        ]))
    elif args.format == "csv":
        _emit(_poincare_csv(entries))
    else:
        for g, r, lc in entries:
            _emit(f"{g} r={r}: [H] = {lc}, P(z) = {lc.poincare_str()}, "
                  f"euler = {lc.euler()}")
    return 0


def _cmd_psi(args) -> int:
    g = _group(args)
    lam = _partition(args)
    if args.inverse:
        result = stabilization.psi_inverse(g, args.r, lam)
        label = "preimage"
    else:
        result = stabilization.psi(g, args.r, lam)
        label = "image"
    if args.format == "json":
        _emit(_jdump({
            "group": {"a": g.a, "b": g.b, "n": g.n}, "r": args.r,
            "partition": str(lam), label: str(result),
        }))
    else:
        _emit(f"{label} of {lam} under the insertion map for {g}, r={args.r}: {result}")
    return 0


def _cmd_verify_period(args) -> int:
    g = coloring.GroupParams(args.a, args.b, args.n_from)
    report = stabilization.verify_period(g, args.r, args.n_from, args.n_to)
    ok = report["all_equal"] and report["all_bijections_ok"]
    if args.format == "json":
        _emit(_jdump(report))
    else:
        for chk in report["checks"]:
            verdict = "equal" if chk["equal"] else "UNEQUAL"
            _emit(f"n={chk['n']} vs n={chk['n_next']}: {verdict}, "
                  f"coeffs {chk['coeffs_n']} vs {chk['coeffs_next']}")
        _emit("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_verify_qpoly(args) -> int:
    g = coloring.GroupParams(args.a, args.b, args.n_from)
    report = analysis.verify_quasipolynomial(g, args.r, args.n_from, args.n_to)
    if args.format == "json":
        _emit(_jdump(report))
    else:
        _emit(f"counts: {report['counts']}")
        if report["ok"]:
            _emit(f"quasipolynomial of period {report['period']} fits from "
                  f"n={report['valid_from']}, degree {report['observed_degree']}")
        _emit("PASS" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 1


def _cmd_core_quotient(args) -> int:
    lam = _partition(args)
    ceiling = coloring._box_ceiling()
    if args.n > ceiling + 1:  # the beads lie in 0..ceiling: more runners add only empty parts
        raise EqhilbError(f"--n is {args.n}, more than one above the ceiling of {ceiling} "
                          f"(raise {coloring.MAX_BOXES_ENV})")
    quot, core = ab.runners(lam, args.n)
    word = ab.to_abacus(lam)
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
            "holds": lam.size == core.size + args.n * quot.total(),
        },
    }
    if args.format == "json":
        _emit(_jdump(payload))
    else:
        _emit(f"abacus of {lam}: {word}")
        _emit(f"{args.n}-core: {core}")
        _emit(f"{args.n}-quotient: ({', '.join(payload['quotient'])})")
        _emit(f"size identity: {lam.size} = {core.size} + {args.n}*{quot.total()}")
    return 0 if payload["size_identity"]["holds"] else 1


def _cmd_hj(args) -> int:
    terms = analysis.hj_expand(args.n, args.k)
    if args.format == "json":
        _emit(_jdump({"n": args.n, "k": args.k, "terms": list(terms),
                      "length": len(terms)}))
    else:
        _emit(f"{args.n}/{args.k} = [[{', '.join(str(t) for t in terms)}]], "
              f"length {len(terms)}")
    return 0


def _cmd_check_star(args) -> int:
    if args.partition is not None and (args.n is not None or args.r is not None):
        raise EqhilbError("check-star takes --partition or --n and --r, not both")
    if args.partition is not None:
        lam = _partition(args)
        ok = analysis.satisfies_star(lam, args.a, args.b)
        if args.format == "json":
            _emit(_jdump({"a": args.a, "b": args.b, "partition": str(lam),
                          "satisfies_star": ok}))
        else:
            _emit(f"{lam} {'satisfies' if ok else 'violates'} the rectangle "
                  f"condition for ({args.a},{args.b})")
        return 0
    if args.n is None or args.r is None:
        raise EqhilbError("check-star needs either --partition or both --n and --r")
    report = analysis.check_rectangle_bijection(coloring.GroupParams(args.a, args.b, args.n), args.r)
    if args.format == "json":
        _emit(_jdump(report))
    else:
        _emit(f"rectangle map for {report['group']} r={report['r']}: "
              f"{report['source_count']} sources vs {report['target_count']} targets, "
              f"{'bijective' if report['bijective'] else 'MISMATCH'}")
    return 0 if report["bijective"] else 1


def _cmd_normalize(args) -> int:
    g = analysis.normalize_group(_group(args))
    if args.format == "json":
        _emit(_jdump({"a": g.a, "b": g.b, "n": g.n}))
    else:
        _emit(f"normalized parameters: {g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqhilb",
        description="Topological invariants of equivariant Hilbert schemes "
        "via balanced-partition combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(p, csv=False):
        choices = ["text", "json"] + (["csv"] if csv else [])
        p.add_argument("--format", choices=choices, default="text")

    def render(p):
        p.add_argument("--render", choices=["ascii", "svg"])
        p.add_argument("--out", help="output file for --render svg")

    def group_args(p):
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--b", type=int, required=True)

    p = sub.add_parser("enumerate", help="list balanced partitions with their statistic")
    group_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    fmt(p, csv=True)
    render(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("betti", help="statistic and invariant arrows of one partition")
    group_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition", required=True)
    fmt(p)
    render(p)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("poincare", help="L-class, Poincare polynomial and Euler characteristic")
    group_args(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-from", type=int)
    p.add_argument("--n-to", type=int)
    p.add_argument("--r", type=int, required=True)
    fmt(p, csv=True)
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("psi", help="apply the insertion map (or its inverse)")
    group_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--inverse", action="store_true")
    fmt(p)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("verify-period", help="check periodicity of the L-class in n")
    group_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    fmt(p)
    p.set_defaults(func=_cmd_verify_period)

    p = sub.add_parser("verify-qpoly", help="check quasipolynomiality of the count in n")
    group_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    fmt(p)
    p.set_defaults(func=_cmd_verify_qpoly)

    p = sub.add_parser("core-quotient", help="abacus word, n-core and n-quotient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition", required=True)
    fmt(p)
    p.set_defaults(func=_cmd_core_quotient)

    p = sub.add_parser("hj", help="Hirzebruch-Jung continued fraction of n/k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    fmt(p)
    p.set_defaults(func=_cmd_hj)

    p = sub.add_parser("check-star", help="rectangle condition / rectangle-map bijection")
    group_args(p)
    p.add_argument("--partition")
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    fmt(p)
    p.set_defaults(func=_cmd_check_star)

    p = sub.add_parser("normalize", help="reduce parameters to weights coprime to n")
    group_args(p)
    p.add_argument("--n", type=int, required=True)
    fmt(p)
    p.set_defaults(func=_cmd_normalize)

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
        status = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return status
    except EqhilbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # point stdout at devnull so that flushing the rest at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
