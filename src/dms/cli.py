"""Command line front end.

Exit codes: 0 success, 2 validation failure, 3 parse/load error,
4 precondition failure (not a closed surface, not perfect, wrong genus).
Diagnostics go to standard error, one violation per line.
"""

import argparse
import sys

from . import fixtures
from .errors import DmsError, ParseError
from .homology import betti_mod2
from .morsefield import (
    critical_cells,
    synthesize_function,
    validate_field,
    validate_function,
)
from .splitter import decompose
from .surgery import compose
from .formats import (
    dump_complex,
    load_complex,
    parse_dmf,
    parse_dvf,
    write_dmf,
    write_dot,
    write_dvf,
    write_off,
    write_report_json,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4


def _err(msg):
    print(msg, file=sys.stderr)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_field(path, K):
    return parse_dvf(_read(path), K)


def _load_function(path, K):
    return parse_dmf(_read(path), K)


def cmd_validate(args):
    K = load_complex(args.complex)
    if args.field:
        V = _load_field(args.field, K)
        rep = validate_field(K, V)
        if not rep.ok:
            for kind, detail in rep.issues:
                _err("field %s: %s" % (kind, detail))
            return EXIT_INVALID
    if args.function:
        f = _load_function(args.function, K)
        rep = validate_function(K, f)
        if not rep.ok:
            for cell, kind in rep.violations:
                _err("function %s violation at %s" % (kind, cell))
            return EXIT_INVALID
    print("ok")
    return EXIT_OK


def cmd_betti(args):
    K = load_complex(args.complex)
    print(" ".join(str(b) for b in betti_mod2(K)))
    return EXIT_OK


def cmd_critical(args):
    K = load_complex(args.complex)
    V = _load_field(args.field, K)
    rep = validate_field(K, V)
    if not rep.ok:
        for kind, detail in rep.issues:
            _err("field %s: %s" % (kind, detail))
        return EXIT_PARSE
    counts = critical_cells(V, K)
    print(" ".join(str(m) for m in counts.m))
    for p in sorted(counts.cells):
        for cid in counts.cells[p]:
            print("%d %s" % (p, cid))
    return EXIT_OK


def cmd_compose(args):
    left = load_complex(args.left)
    right = load_complex(args.right)
    f1 = _load_function(args.left_function, left)
    f2 = _load_function(args.right_function, right)
    M, f, V, rep = compose(left, f1, right, f2)
    dump_complex(M, args.out + ".cwp")
    with open(args.out + ".dvf", "w", encoding="utf-8") as fh:
        fh.write(write_dvf(V, M))
    with open(args.out + ".dmf", "w", encoding="utf-8") as fh:
        fh.write(write_dmf(f))
    print("chi %d counts %s perfect %s C %s rescaled %s"
          % (rep.chi, " ".join(str(m) for m in rep.counts),
             rep.perfect, rep.constant, rep.rescaled))
    return EXIT_OK


def cmd_decompose(args):
    K = load_complex(args.complex)
    f = _load_function(args.function, K)
    res = decompose(K, f, args.g1, args.g2)
    for name, cx, vf, fn in (("m1", res.m1_complex, res.m1_field,
                              res.m1_function),
                             ("m2", res.m2_complex, res.m2_field,
                              res.m2_function)):
        dump_complex(cx, "%s.%s.cwp" % (args.out, name))
        with open("%s.%s.dvf" % (args.out, name), "w", encoding="utf-8") as fh:
            fh.write(write_dvf(vf, cx))
        with open("%s.%s.dmf" % (args.out, name), "w", encoding="utf-8") as fh:
            fh.write(write_dmf(fn))
    with open(args.out + ".circle.txt", "w", encoding="utf-8") as fh:
        for eid in res.circle[1::2]:
            fh.write(eid + "\n")
    report = dict(res.report)
    report["betti"] = {"m1": list(betti_mod2(res.m1_complex)),
                       "m2": list(betti_mod2(res.m2_complex))}
    report["bisections"] = sum(
        1 for cx in (res.m1_complex, res.m2_complex)
        for cid in cx.cells if "~b" in cid)
    report["morseCounts"] = {k: list(v)
                             for k, v in report["morseCounts"].items()}
    write_report_json(report, args.out + ".report.json")
    print("ok circle %d" % report["circleLength"])
    return EXIT_OK


def cmd_fixture(args):
    kind = args.kind
    if kind.startswith("genus"):
        K, f, V = fixtures.genus_surface(fixtures.fixture_genus(kind))
        dump_complex(K, args.out + ".cwp")
    else:
        K = fixtures.fixture_complex(kind)
        V = fixtures.tree_cotree_field(K)
        f = synthesize_function(K, V)
        simplicial = all(len(c.boundary) == 3
                         for c in K.cells.values() if c.dim == 2)
        dump_complex(K, args.out + (".tri" if simplicial else ".cwp"))
    with open(args.out + ".dvf", "w", encoding="utf-8") as fh:
        fh.write(write_dvf(V, K))
    with open(args.out + ".dmf", "w", encoding="utf-8") as fh:
        fh.write(write_dmf(f))
    print("ok")
    return EXIT_OK


def cmd_export(args):
    K = load_complex(args.complex)
    text = write_off(K) if args.format == "off" else write_dot(K)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("ok")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(prog="dms")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate")
    p.add_argument("--complex", required=True)
    p.add_argument("--field")
    p.add_argument("--function")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("betti")
    p.add_argument("--complex", required=True)
    p.set_defaults(run=cmd_betti)

    p = sub.add_parser("critical")
    p.add_argument("--complex", required=True)
    p.add_argument("--field", required=True)
    p.set_defaults(run=cmd_critical)

    p = sub.add_parser("compose")
    p.add_argument("--left", required=True)
    p.add_argument("--left-function", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--right-function", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_compose)

    p = sub.add_parser("decompose")
    p.add_argument("--complex", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--g1", type=int, required=True)
    p.add_argument("--g2", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("fixture")
    p.add_argument("kind")
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_fixture)

    p = sub.add_parser("export")
    p.add_argument("--complex", required=True)
    p.add_argument("--format", choices=("off", "dot"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_export)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, OSError) as err:
        _err("parse error: %s" % err)
        return EXIT_PARSE
    except DmsError as err:
        _err("%s: %s" % (type(err).__name__, err))
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
