"""Self-tests of the benchmark's output checker.

They show that `check` rejects what it must: a closed V-path, a doubly
matched cell, a non-Morse function, a function that induces another
field, a non-incident pair, a wrong genus and wrong crit lines; and that
it accepts a hand-built perfect structure on the tetrahedron.  The
benchmark runs them before every measurement; run them alone with

    python3 perfbench/selftest.py
"""

import sys

from check import (
    CheckError,
    check_field,
    check_function,
    check_surface,
    check_texts,
)


def tetrahedron():
    """Cells of the boundary of the 3-simplex, with a perfect field and a
    Morse function inducing it: v0 and t1-2-3 are critical."""
    cells = {"v%d" % i: (0, frozenset()) for i in range(4)}
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        cells["e%d-%d" % (i, j)] = (1, frozenset({"v%d" % i, "v%d" % j}))
    for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        cells["t%d-%d-%d" % (i, j, k)] = (2, frozenset(
            {"e%d-%d" % (i, j), "e%d-%d" % (i, k), "e%d-%d" % (j, k)}))
    pairs = [("v1", "e0-1"), ("v2", "e0-2"), ("v3", "e0-3"),
             ("e1-2", "t0-1-2"), ("e1-3", "t0-1-3"), ("e2-3", "t0-2-3")]
    values = {"v0": 0.0, "t1-2-3": 7.0}
    for value, (low, high) in enumerate(pairs, 1):
        values[low] = values[high] = float(value)
    return cells, pairs, values


def triangle_loop():
    """A circle of three vertices and three edges."""
    cells = {v: (0, frozenset()) for v in "abc"}
    cells.update({"ab": (1, frozenset("ab")), "bc": (1, frozenset("bc")),
                  "ca": (1, frozenset("ca"))})
    return cells


def expect_rejected(what, fn, *args):
    try:
        fn(*args)
    except CheckError as err:
        return str(err)
    raise AssertionError("checker accepted %s" % what)


def test_accepts_perfect_tetrahedron():
    cells, pairs, values = tetrahedron()
    counts = check_surface(cells, pairs, values, 0)
    if counts != (1, 0, 1):
        raise AssertionError("critical counts %s" % (counts,))


def test_rejects_closed_vpath():
    cells = triangle_loop()
    msg = expect_rejected("a closed V-path", check_field, cells,
                          [("a", "ab"), ("b", "bc"), ("c", "ca")])
    if "closed V-path" not in msg:
        raise AssertionError(msg)


def test_rejects_doubly_matched_cell():
    cells, pairs, _ = tetrahedron()
    msg = expect_rejected("a doubly matched cell", check_field, cells,
                          pairs + [("v1", "e1-2")])
    if "matched twice" not in msg:
        raise AssertionError(msg)


def test_rejects_non_incident_pair():
    cells, pairs, _ = tetrahedron()
    bad = [("v1", "e2-3") if p == ("v1", "e0-1") else p for p in pairs]
    expect_rejected("a non-incident pair", check_field, cells, bad)


def test_rejects_non_morse_function():
    cells, pairs, values = tetrahedron()
    # e0-1 (value 1) now has two exceptional faces, v0 and v1
    values["v0"] = 1.5
    msg = expect_rejected("a non-Morse function", check_function, cells,
                          values, pairs)
    if "exceptional" not in msg:
        raise AssertionError(msg)


def test_rejects_function_inducing_another_field():
    cells, pairs, values = tetrahedron()
    msg = expect_rejected("a field the function does not induce",
                          check_function, cells, values, pairs[:-1])
    if "does not induce" not in msg:
        raise AssertionError(msg)


def test_rejects_wrong_genus():
    cells, pairs, values = tetrahedron()
    expect_rejected("the wrong genus", check_surface, cells, pairs, values, 1)


def test_rejects_wrong_crit_lines():
    cells, pairs, values = tetrahedron()
    cwp = "".join("cell %s %d\n" % (cid, dim)
                  for cid, (dim, _) in sorted(cells.items()))
    cwp += "".join("bnd %s %s\n" % (cid, " ".join(sorted(bnd)))
                   for cid, (_, bnd) in sorted(cells.items()) if bnd)
    dvf = "".join("pair %s %s\n" % p for p in pairs)
    dmf = "".join("val %s %r\n" % item for item in sorted(values.items()))
    check_texts(cwp, dvf + "crit v0\ncrit t1-2-3\n", dmf, 0)
    expect_rejected("wrong crit lines", check_texts, cwp,
                    dvf + "crit v0\n", dmf, 0)


def run():
    """Run every self-test; raise AssertionError on the first failure."""
    tests = [fn for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for test in tests:
        test()
    return len(tests)


if __name__ == "__main__":
    try:
        count = run()
    except AssertionError as err:
        print("checker self-test failed: %s" % err, file=sys.stderr)
        sys.exit(1)
    print("%d checker self-tests passed" % count)
