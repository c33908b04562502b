"""The four benchmark workloads: inputs, the timed loop, correctness checks.

Each workload runs inside one fresh interpreter per sample (see worker.py).
`setup` builds what the workload's types need before timing starts;
`instances` makes the inputs, from the seed where the workload samples;
`run` issues the instances back to back (a closed loop with one caller),
timed by the speed probe's clock, and records per-instance latencies and
results; `check` then verifies the
results against references that do not share the code path under test.

Sizes: "full" is what the benchmark measures; "small" is the reduced size
the self-test uses.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random

from demtensor import cli
from demtensor.cartan import root_system
from demtensor.decomp import condition_check
from demtensor.keypoly import CharPoly, demazure_operator_word, product_report
from demtensor.verify import ALL_SUITES, weyl_dimension
from demtensor.weyl import weyl_group

G2_W0 = "1,2,1,2,1,2"

# Degrees of the basic invariants; |W| is their product (closed form).
DEGREES = {("F", 4): (2, 6, 8, 12)}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Instance:
    """One timed call: its latency, its result, or the exception it raised."""

    __slots__ = ("args", "latency_s", "passes_before", "result", "error")

    def __init__(self, args):
        self.args = args
        self.latency_s = None
        self.passes_before = 0
        self.result = None
        self.error = None


def timed_loop(instances, call, probe):
    """Issue the instances back to back; return the wall time of the loop.

    Times come from the speed probe's clock, which leaves out its
    calibration passes; each instance notes how many passes preceded it.
    """
    clock = probe.clock
    start = clock()
    for inst in instances:
        inst.passes_before = len(probe.passes)
        t0 = clock()
        try:
            inst.result = call(*inst.args)
        except Exception as caught:  # counted as a failed instance
            inst.error = "%s: %s" % (type(caught).__name__, caught)
        inst.latency_s = clock() - t0
    return clock() - start


def run_cli(argv):
    """demtensor's command line in-process: (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode()


class Workload:
    name = None
    types = ()

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size

    def setup(self):
        for letter, rank in self.types:
            weyl_group(root_system(letter, rank))

    def check_instance(self, inst):
        """None when the instance's result is correct, else a message."""
        raise NotImplementedError

    def payload(self, instances):
        """The deterministic output of the sample, as bytes."""
        raise NotImplementedError

    def sample_checks(self):
        """Checks on the sample as a whole; a list of failure messages."""
        return []

    def reference_digest(self):
        """sha256 of the seed commit's payload, where the inputs are fixed."""
        return REFERENCE.get(self.name, {}).get(self.size)


class CliWorkload(Workload):
    """One demtensor command per sample: the instance is the command."""

    def argv(self):
        raise NotImplementedError

    def instances(self):
        return [Instance((self.argv(),))]

    def run(self, instances, probe):
        return timed_loop(instances, run_cli, probe)

    def payload(self, instances):
        return b"".join(inst.result[1] for inst in instances if inst.result)

    def check_instance(self, inst):
        code, out = inst.result
        if code != 0:
            return "exit code %d" % code
        return self.check_output(out)


class G2Decompose(CliWorkload):
    """The large-product case: crystal and decomp do nearly all the work."""

    name = "g2-decompose"
    types = (("G", 2),)

    def shape(self):
        return (1, 1) if self.size == "full" else (1, 0)

    def argv(self):
        shape = ",".join(map(str, self.shape()))
        return ["decompose", "--type", "G2", "--v", G2_W0, "--w", G2_W0,
                "--lambda", shape, "--mu", shape]

    def check_output(self, out):
        # v = w = w0, so the product is the whole B(lam) (x) B(mu).
        sizes = sum(entry["size"] for entry in json.loads(out)["entries"])
        want = weyl_dimension(root_system("G", 2), self.shape()) ** 2
        if sizes != want:
            return "component sizes sum to %d, expected %d" % (sizes, want)
        return None


class VerifyDefault(CliWorkload):
    """The command users run: thousands of small instances on warm caches."""

    name = "verify-default"
    types = (("A", 2), ("B", 2))

    def argv(self):
        return ["verify"] if self.size == "full" else ["verify", "--grid", "A1:2"]

    def check_output(self, out):
        lines = out.decode().splitlines()
        want = len(ALL_SUITES) * (2 if self.size == "full" else 1)
        passed = sum(1 for line in lines if line.startswith("PASS "))
        if passed != want or len(lines) != want:
            return "%d PASS lines of %d, expected %d" % (passed, len(lines), want)
        return None


class B2Keys(Workload):
    """Key expansions over all of W(B2)^2: the Fraction solve dominates."""

    name = "b2-keys"
    types = (("B", 2),)

    def instances(self):
        group = weyl_group(root_system("B", 2))
        if self.size == "full":
            shapes, elements = [(1, 0), (0, 1), (1, 1)], group.elements
        else:
            shapes, elements = [(1, 0), (0, 1)], group.elements[:4]
        return [
            Instance((group, v, w, lam, mu))
            for lam, mu in itertools.product(shapes, repeat=2)
            for v, w in itertools.product(elements, repeat=2)
        ]

    def run(self, instances, probe):
        return timed_loop(instances, product_report, probe)

    def payload(self, instances):
        lines = []
        for inst in instances:
            _, v, w, lam, mu = inst.args
            report = inst.result
            terms = sorted(
                (idx.sort_key(), coeff) for idx, coeff in (report.coefficients.items() if report else ())
            )
            flags = (report.condition_forward, report.condition_swapped) if report else None
            lines.append(json.dumps([v.word, w.word, lam, mu, flags, terms]))
        return ("\n".join(lines) + "\n").encode()

    def check_instance(self, inst):
        # Both sides by divided differences: independent of crystals and solve.
        group, v, w, lam, mu = inst.args
        rs = group.rs
        key = lambda shape, word: demazure_operator_word(rs, CharPoly.monomial(shape), word)
        total = CharPoly()
        for idx, coeff in inst.result.coefficients.items():
            total = total + key(idx.shape, idx.witness.word) * coeff
        if total != key(lam, v.word) * key(mu, w.word):
            return "sum of coeff * key differs from key(v lam) * key(w mu)"
        return None


class F4Check(Workload):
    """The decomposition condition over W(F4): Weyl group queries only."""

    name = "f4-check"
    types = (("F", 4),)
    reference = None

    def instances(self):
        group = weyl_group(root_system("F", 4))
        shapes = [s for s in itertools.product((0, 1), repeat=4) if any(s)]
        rng = random.Random(self.seed)
        count = 1000 if self.size == "full" else 100
        return [
            Instance((group, rng.choice(group.elements), rng.choice(group.elements),
                      rng.choice(shapes), rng.choice(shapes)))
            for _ in range(count)
        ]

    def run(self, instances, probe):
        return timed_loop(instances, both_orientations, probe)

    def payload(self, instances):
        bits = ("%d%d" % inst.result if inst.result else "--" for inst in instances)
        return ("\n".join(bits) + "\n").encode()

    def check_instance(self, inst):
        group, v, w, lam, mu = inst.args
        if self.reference is None:
            self.reference = ConditionReference(group)
        want = (self.reference.holds(v, w, lam, mu), self.reference.holds(w, v, mu, lam))
        if inst.result != want:
            return "verdicts %r, the reference gives %r" % (inst.result, want)
        return None

    def sample_checks(self):
        order = 1
        for degree in DEGREES[("F", 4)]:
            order *= degree
        got = len(weyl_group(root_system("F", 4)))
        if got != order:
            return ["|W(F4)| is %d, the product of the degrees gives %d" % (got, order)]
        return []


def both_orientations(group, v, w, lam, mu):
    """What `demtensor check` evaluates for one instance."""
    return condition_check(group, v, w, lam, mu), condition_check(group, w, v, mu, lam)


class ConditionReference:
    """The decomposition condition recomputed from matrices and roots alone.

    Lengths are inversion counts over the positive roots, cosets and
    parabolic subgroups are enumerated from the simple reflection matrices,
    so nothing here goes through WeylGroup's coset or descent code.
    """

    def __init__(self, group):
        rs = group.rs
        self.rank = rs.rank
        self.positive = {beta.fw for beta in rs.positive_roots}
        self.gens = [group.simple(i).matrix for i in range(1, rs.rank + 1)]
        self.identity = group.identity.matrix
        self._length = {}
        self._parabolic = {}

    @staticmethod
    def _mul(a, b):
        n = len(a)
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                     for i in range(n))

    def length(self, m):
        got = self._length.get(m)
        if got is None:
            n = len(m)
            got = sum(
                1 for beta in self.positive
                if tuple(sum(m[i][k] * beta[k] for k in range(n)) for i in range(n))
                not in self.positive
            )
            self._length[m] = got
        return got

    def parabolic(self, J):
        got = self._parabolic.get(J)
        if got is None:
            seen, frontier = {self.identity}, [self.identity]
            while frontier:
                nxt = []
                for x in frontier:
                    for j in J:
                        y = self._mul(x, self.gens[j - 1])
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            got = self._parabolic[J] = frozenset(seen)
        return got

    def holds(self, v, w, lam, mu):
        stab = lambda shape: frozenset(i + 1 for i, c in enumerate(shape) if c == 0)
        vfloor = min((self._mul(v.matrix, h) for h in self.parabolic(stab(lam))), key=self.length)
        wceil = max((self._mul(w.matrix, h) for h in self.parabolic(stab(mu))), key=self.length)
        top = self.length(wceil)
        descents = frozenset(
            i for i in range(1, self.rank + 1)
            if self.length(self._mul(self.gens[i - 1], wceil)) < top
        )
        return vfloor in self.parabolic(descents)


WORKLOADS = {cls.name: cls for cls in (G2Decompose, B2Keys, VerifyDefault, F4Check)}

# sha256 of each fixed workload's payload at the seed commit, per size; the
# sampled workload has none, its verdicts are recomputed instead.
with open(__file__.rsplit("/", 1)[0] + "/reference.json") as _handle:
    REFERENCE = json.load(_handle)
