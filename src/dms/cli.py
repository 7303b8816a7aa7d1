"""Command line front end.

Exit codes: 0 success, 2 validation failure (a function compose or
decompose assembled that fails it included, with nothing written),
3 parse/load error, 4 precondition failure (not a closed surface, not
perfect, wrong genus), 141 standard output closed before it was all
written (128 + SIGPIPE).
Diagnostics go to standard error, one violation per line.
"""

import argparse
import functools
import os
import sys

from . import fixtures
from .errors import DmsError, InexactFunction, ParseError
from .homology import betti_mod2
from .morsefield import (
    _check_function,
    critical_cells,
    synthesize_function,
    validate_field,
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
    write_report_json,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_CLOSED_STDOUT = 141


def _err(msg):
    print(msg, file=sys.stderr)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_triple(stem, K, V, f, ext=".cwp"):
    """Write K to stem + ext, and V and f to stem.dvf and stem.dmf."""
    dump_complex(K, stem + ext)
    for suffix, text in ((".dvf", write_dvf(V, K)), (".dmf", write_dmf(f))):
        with open(stem + suffix, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_field(path, K):
    return parse_dvf(_read(path), K)


def _load_function(path, K):
    return parse_dmf(_read(path), K)


def _field_ok(K, V):
    """validate_field's verdict, each issue reported on stderr."""
    rep = validate_field(K, V)
    for kind, detail in rep.issues:
        _err("field %s: %s" % (kind, detail))
    return rep.ok


def cmd_validate(args):
    """With both a field and a function, the function must also induce
    the field: the first pair where the two differ is named."""
    K = load_complex(args.complex)
    V = _load_field(args.field, K) if args.field else None
    if V is not None and not _field_ok(K, V):
        return EXIT_INVALID
    if args.function:
        f = _load_function(args.function, K)
        rep, induced = _check_function(K, f)
        if not rep.ok:
            for cell, kind in rep.violations:
                _err("function %s violation at %s" % (kind, cell))
            return EXIT_INVALID
        if V is not None:
            induced = set(induced)
            diff = sorted(induced.symmetric_difference(V.pairs()))
            if diff:
                pair = diff[0]
                _err("function %s pair %s %s that the field %s"
                     % (("induces", *pair, "lacks") if pair in induced
                        else ("does not induce", *pair, "holds")))
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
    if not _field_ok(K, V):
        return EXIT_INVALID
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
    _write_triple(args.out, M, V, f)
    print("chi %d counts %s perfect %s C %s rescaled %s"
          % (rep.chi, " ".join(str(m) for m in rep.counts),
             rep.perfect, rep.constant, rep.rescaled))
    return EXIT_OK


def cmd_decompose(args):
    K = load_complex(args.complex)
    f = _load_function(args.function, K)
    res = decompose(K, f, args.g1, args.g2)
    _write_triple(args.out + ".m1", res.m1_complex, res.m1_field,
                  res.m1_function)
    _write_triple(args.out + ".m2", res.m2_complex, res.m2_field,
                  res.m2_function)
    with open(args.out + ".circle.txt", "w", encoding="utf-8") as fh:
        for eid in res.circle[1::2]:
            fh.write(eid + "\n")
    report = dict(res.report)
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
    ext = ".cwp"
    if kind.startswith("genus"):
        K, f, V = fixtures.genus_surface(fixtures.fixture_genus(kind))
    else:
        K = fixtures.fixture_complex(kind)
        V = fixtures.tree_cotree_field(K)
        f = synthesize_function(K, V)
        if all(len(c.boundary) == 3 for c in K.cells.values() if c.dim == 2):
            ext = ".tri"
    _write_triple(args.out, K, V, f, ext)
    print("ok")
    return EXIT_OK


def cmd_export(args):
    K = load_complex(args.complex)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_dot(K))
    print("ok")
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it
    unchanged."""
    ap = argparse.ArgumentParser(prog="dms")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate")
    p.add_argument("--complex", required=True)
    p.add_argument("--field")
    p.add_argument("--function")

    p = sub.add_parser("betti")
    p.add_argument("--complex", required=True)

    p = sub.add_parser("critical")
    p.add_argument("--complex", required=True)
    p.add_argument("--field", required=True)

    p = sub.add_parser("compose")
    p.add_argument("--left", required=True)
    p.add_argument("--left-function", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--right-function", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("decompose")
    p.add_argument("--complex", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--g1", type=int, required=True)
    p.add_argument("--g2", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fixture")
    p.add_argument("kind")
    p.add_argument("--out", required=True)

    p = sub.add_parser("export")
    p.add_argument("--complex", required=True)
    p.add_argument("--format", choices=("dot",), required=True)
    p.add_argument("--out", required=True)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up on each call, so a rebinding of a cmd_* function (by a
    # tracer, say) reaches the commands of the cached parser
    run = globals()["cmd_" + args.command]
    try:
        code = run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # what is left to write goes nowhere, the exit's flush included
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except (ParseError, OSError) as err:
        _err("parse error: %s" % err)
        return EXIT_PARSE
    except InexactFunction as err:
        for cell, kind in err.args:
            _err("function %s violation at %s" % (kind, cell))
        return EXIT_INVALID
    except DmsError as err:
        _err("%s: %s" % (type(err).__name__, err))
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
