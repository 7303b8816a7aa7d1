"""The benchmark's three workloads.

Each workload is a closed loop on one thread: the next op starts when
the previous one returns.  A workload builds its inputs from the seed in
`setup`, and `pass_rounds` names the rounds of one pass; `run_round`
yields the ops of a round as `Op` records.  The seed picks randomized
tree-cotree fields and splits, never sizes.

Calls that are measured go through module attributes (`surgery.compose`,
`splitter.decompose`, `cli.main`) so the tracer's rebinding sees them.
Input building, digests and checks use the functions imported by name
below, which the tracer never rebinds, so they stay out of the spans.
"""

import contextlib
import io
import os
import random
import time

from check import (
    CheckError,
    check_circle,
    check_report,
    check_texts,
)

from dms import cli, splitter, surgery
from dms.errors import DmsError
from dms.fixtures import genus_surface, torus7, tree_cotree_field
from dms.formats import dump_complex, write_cwp, write_dmf, write_dvf
from dms.morsefield import synthesize_function
from dms.surgery import compose

clock = time.perf_counter


class Op:
    """One measured op: its wall time, the error name if it raised, and
    what the checker needs to verify its output.  The runner adds the
    calibrated latency."""

    __slots__ = ("wall", "latency", "error", "output")

    def __init__(self, wall, error, output):
        self.wall = wall
        self.latency = None
        self.error = error
        self.output = output


def _rng(seed, *key):
    # str seeds are hashed with sha512 by random.Random, so they do not
    # depend on PYTHONHASHSEED
    return random.Random(":".join(str(k) for k in (seed,) + key))


def seeded_torus(rng):
    T = torus7()
    return T, synthesize_function(T, tree_cotree_field(T, rng=rng))


def surface_texts(K, f, V):
    return [write_cwp(K), write_dvf(V, K), write_dmf(f)]


class Workload:
    name = ""
    refusals = ()         # error names that are documented outcomes

    def __init__(self, seed):
        self.seed = seed
        self.prep_s = 0.0  # input building between rounds, untimed

    def setup(self, workdir):
        raise NotImplementedError

    def pass_rounds(self):
        raise NotImplementedError

    def run_round(self, r):
        raise NotImplementedError

    def warmup(self):
        for _ in self.run_round(-1):
            pass

    def texts(self, op):
        """Output texts of a successful op, hashed into the digest."""
        raise NotImplementedError

    def check(self, op, texts):
        """Independent check of a successful op's output; returns the
        number of output cells."""
        raise NotImplementedError

    def input_cells(self):
        raise NotImplementedError


class ComposeChain(Workload):
    """compose(K, f, T, ft) from a torus up to genus 16, one op per
    compose; every summand is a fresh torus with its own seeded field."""

    name = "compose_chain"
    CHAINS = 4
    GENUS = 16

    def _chain_inputs(self, chain):
        rng = _rng(self.seed, self.name, chain)
        # chain -1 is the warm-up: a single compose
        length = 2 if chain == -1 else self.GENUS
        return [seeded_torus(rng) for _ in range(length)]

    def setup(self, workdir):
        # the first pass's summands; later passes build fresh ones so no
        # op ever sees an input complex twice
        self._ready = {c: self._chain_inputs(c)
                       for c in range(-1, self.CHAINS)}

    def pass_rounds(self):
        return range(self.CHAINS)

    def run_round(self, r):
        start = clock()
        tori = self._ready.pop(r, None) or self._chain_inputs(r)
        self.prep_s += clock() - start
        K, f = tori[0]
        for genus, (T, ft) in enumerate(tori[1:], 2):
            t0 = clock()
            try:
                K, f, V, _ = surgery.compose(K, f, T, ft)
            except DmsError as err:
                yield Op(clock() - t0, type(err).__name__, None)
                return
            yield Op(clock() - t0, None, (K, f, V, genus))

    def texts(self, op):
        K, f, V, _ = op.output
        return surface_texts(K, f, V)

    def check(self, op, texts):
        genus = op.output[3]
        return len(check_texts(*texts, genus, label="genus-%d compose"
                               % genus))

    def input_cells(self):
        return {"torus": list(torus7().counts())}


class DecomposeTreeCotree(Workload):
    """decompose(K, f, g1, 6 - g1) on genus_surface(6) with f synthesized
    from a seeded randomized tree-cotree field; one field per op, g1
    cycling through 1..5 in a seeded order."""

    name = "decompose_treecotree"
    refusals = ("NotSeparating",)
    GENUS = 6
    OPS = 150

    def setup(self, workdir):
        self.K = genus_surface(self.GENUS)[0]
        self.functions = []
        for i in range(-1, self.OPS):
            rng = _rng(self.seed, self.name, "field", i)
            V = tree_cotree_field(self.K, rng=rng)
            self.functions.append(synthesize_function(self.K, V))
        self.splits = [3]  # warm-up split
        rng = _rng(self.seed, self.name, "splits")
        while len(self.splits) <= self.OPS:
            block = list(range(1, self.GENUS))
            rng.shuffle(block)
            self.splits.extend(block)

    def pass_rounds(self):
        return range(self.OPS)

    def run_round(self, r):
        f, g1 = self.functions[r + 1], self.splits[r + 1]
        g2 = self.GENUS - g1
        t0 = clock()
        try:
            res = splitter.decompose(self.K, f, g1, g2)
        except DmsError as err:
            yield Op(clock() - t0, type(err).__name__, None)
            return
        yield Op(clock() - t0, None, (res, g1, g2))

    def texts(self, op):
        res = op.output[0]
        return (surface_texts(res.m1_complex, res.m1_function, res.m1_field)
                + surface_texts(res.m2_complex, res.m2_function,
                                res.m2_field))

    def check(self, op, texts):
        res, g1, g2 = op.output
        cells1 = check_texts(*texts[:3], g1, label="decompose m1")
        cells2 = check_texts(*texts[3:], g2, label="decompose m2")
        check_circle(res.circle[1::2], cells1, cells2, label="decompose")
        return len(cells1) + len(cells2)

    def input_cells(self):
        return {"genus6": list(self.K.counts())}


class CliRoundTrip(Workload):
    """`dms compose` of a seeded genus-7 surface with a seeded torus, then
    `dms decompose --g1 4 --g2 4` of the result, both run in-process
    through dms.cli.main on files in a scratch directory."""

    name = "cli_roundtrip"
    LEFTS = 8
    OPS = 40
    LEFT_GENUS = 7
    OUTPUTS = ("out.c.cwp", "out.c.dvf", "out.c.dmf",
               "out.d.m1.cwp", "out.d.m1.dvf", "out.d.m1.dmf",
               "out.d.m2.cwp", "out.d.m2.dvf", "out.d.m2.dmf")

    def setup(self, workdir):
        self.dir = workdir
        for i in range(self.LEFTS):
            rng = _rng(self.seed, self.name, "left", i)
            K, f = seeded_torus(rng)
            for _ in range(self.LEFT_GENUS - 1):
                K, f, _, _ = compose(K, f, *seeded_torus(rng))
            dump_complex(K, self._path("left%d.cwp" % i))
            self._write("left%d.dmf" % i, write_dmf(f))
        self.left_counts = list(K.counts())
        for j in range(-1, self.OPS):
            T, ft = seeded_torus(_rng(self.seed, self.name, "torus", j))
            dump_complex(T, self._path("torus%d.tri" % j))
            self._write("torus%d.dmf" % j, write_dmf(ft))

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _write(self, name, text):
        with open(self._path(name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def _read(self, name):
        with open(self._path(name), encoding="utf-8") as fh:
            return fh.read()

    def pass_rounds(self):
        return range(self.OPS)

    def run_round(self, r):
        left = "left%d" % (r % self.LEFTS)
        right = "torus%d" % r
        for name in os.listdir(self.dir):
            if name.startswith("out."):
                os.remove(self._path(name))
        argvs = (
            ["compose", "--left", self._path(left + ".cwp"),
             "--left-function", self._path(left + ".dmf"),
             "--right", self._path(right + ".tri"),
             "--right-function", self._path(right + ".dmf"),
             "--out", self._path("out.c")],
            ["decompose", "--complex", self._path("out.c.cwp"),
             "--function", self._path("out.c.dmf"),
             "--g1", "4", "--g2", "4", "--out", self._path("out.d")],
        )
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            t0 = clock()
            for argv in argvs:
                code = cli.main(argv)
                if code != 0:
                    break
            latency = clock() - t0
        if code != 0:
            yield Op(latency, stderr.getvalue().split(":", 1)[0].strip()
                     or "exit%d" % code, None)
            return
        yield Op(latency, None, stdout.getvalue())

    def texts(self, op):
        return [self._read(name) for name in self.OUTPUTS]

    def check(self, op, texts):
        g = self.LEFT_GENUS + 1
        composed = check_texts(*texts[0:3], g, label="cli compose")
        cells1 = check_texts(*texts[3:6], 4, label="cli decompose m1")
        cells2 = check_texts(*texts[6:9], 4, label="cli decompose m2")
        edges = self._read("out.d.circle.txt").split()
        check_circle(edges, cells1, cells2, label="cli circle")
        check_report(self._read("out.d.report.json"), 4, 4, edges, cells1,
                     cells2, label="cli report")
        lines = op.output.splitlines()
        if len(lines) != 2 or not lines[0].startswith("chi %d counts 1 %d 1 "
                                                      "perfect True"
                                                      % (2 - 2 * g, 2 * g)):
            raise CheckError("cli stdout %r" % op.output)
        return len(composed) + len(cells1) + len(cells2)

    def input_cells(self):
        return {"left_genus7": self.left_counts,
                "torus": list(torus7().counts())}


WORKLOADS = {w.name: w for w in (ComposeChain, CliRoundTrip,
                                 DecomposeTreeCotree)}
