"""Per-layer spans and counters, installed around demtensor from outside.

The package itself carries no instrumentation.  `Tracer.install` replaces
the public functions and methods of each layer module with thin wrappers,
in every module namespace that imported them, and `uninstall` puts the
originals back.  A wrapper records one span per call: its layer, its
duration and the time covered by the spans it caused, so a layer's self
time is its spans' durations minus their child spans' time.  Spans of the
same name nested inside each other (recursive operators) count their
duration once, at the outermost call.

`cartan` is leaf arithmetic called millions of times and gets no spans;
its time lands in the self time of whichever layer called it.  Attribute
accessors on paths and group elements that run in well under a
microsecond are left unwrapped for the same reason (see HOT).
"""

import functools
import inspect
import sys
import types
from time import perf_counter

LAYERS = ("weyl", "lspath", "crystal", "demazure", "decomp", "keypoly", "verify", "cli")

# Cheap hot helpers: a span around each would cost more than the call.
HOT = {
    "weyl": {"length", "simple", "apply", "element_of_matrix", "from_word", "stabilizer_indices"},
    "lspath": {"segments", "rank", "sort_key", "initial_direction", "fraction_to_str"},
    "crystal": {"element_sort_key", "rs", "coeff", "support", "monomial"},
}

# Span names shared by several functions, keyed by (layer, qualified name).
ALIASES = {
    ("weyl", "WeylGroup.coset_min"): "weyl.coset",
    ("weyl", "WeylGroup.coset_max"): "weyl.coset",
    ("weyl", "WeylGroup.multiply"): "weyl.multiply",
    ("weyl", "WeylGroup.bruhat_leq"): "weyl.bruhat",
    ("weyl", "weyl_group"): "weyl.build",
    ("lspath", "LSPath.validate"): "lspath.validate",
    ("lspath", "make_path"): "lspath.make_path",
    ("crystal", "generate_crystal"): "crystal.generate",
    ("crystal", "is_isomorphic"): "crystal.iso",
    ("crystal", "induced_component"): "crystal.component",
    ("crystal", "components_of"): "crystal.component",
    ("crystal", "tensor_product_elements"): "crystal.product",
    ("demazure", "generate_demazure"): "demazure.generate",
    ("demazure", "demazure_elements_for_word"): "demazure.elements",
    ("demazure", "check_string_property"): "demazure.string_check",
    ("decomp", "decompose"): "decomp.decompose",
    ("decomp", "tensor_demazure"): "decomp.product_build",
    ("decomp", "path_witness"): "decomp.path_witness",
    ("decomp", "condition_check"): "decomp.condition",
    ("keypoly", "product_report"): "keypoly.product_report",
    ("keypoly", "expand_in_keys"): "keypoly.expand",
    ("keypoly", "candidate_key_indices"): "keypoly.candidates",
    ("keypoly", "key_polynomial"): "keypoly.key",
    ("keypoly", "dominance_leq"): "keypoly.dominance",
    ("cli", "main"): "cli.main",
}

# Spans whose results are counted, not only timed.
RESULT_SPANS = {
    "weyl.build", "crystal.iso", "crystal.product", "demazure.elements",
    "decomp.decompose", "keypoly.candidates", "keypoly.expand",
}


class Tracer:
    """Span bookkeeping for one traced sample."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.calls = {}
        self.span_s = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.sizes = {}
        self.true_results = {}
        self.weyl_order = 0
        self._open = {}
        self._stack = [[0.0]]
        self._last_error = None
        self._patches = []
        self._marked_self_s = 0.0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        stack, clock = self._stack, self.clock
        calls, span_s, self_s, opened = self.calls, self.span_s, self.self_s, self._open
        calls.setdefault(name, 0)
        span_s.setdefault(name, 0.0)
        opened.setdefault(name, 0)
        record = self._record_result if name in RESULT_SPANS or name.startswith("verify.suite_") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            opened[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as caught:
                if caught is not self._last_error:
                    self._last_error = caught
                    self.errors[layer] += 1
                raise
            finally:
                took = clock() - start
                stack.pop()
                stack[-1][0] += took
                self_s[layer] += took - frame[0]
                calls[name] += 1
                opened[name] -= 1
                if not opened[name]:
                    span_s[name] += took
            if record is not None:
                record(name, result)
            return result

        return wrapper

    def _record_result(self, name, result):
        if name == "decomp.decompose":
            self.sizes[name] = self.sizes.get(name, 0) + len(result.entries)
            good = sum(1 for entry in result.entries if entry.demazure)
            self.true_results[name] = self.true_results.get(name, 0) + good
        elif name == "weyl.build":
            self.weyl_order = max(self.weyl_order, len(result))
        elif name == "crystal.iso" or name.startswith("verify.suite_"):
            key = "true" if result is True else "none" if result is None else "other"
            self.true_results[(name, key)] = self.true_results.get((name, key), 0) + 1
        else:
            self.sizes[name] = self.sizes.get(name, 0) + len(result)

    def _targets(self, package):
        """(layer, owner, attribute, original, span name) for every wrapped callable."""
        out = []
        for layer in LAYERS:
            module = sys.modules["%s.%s" % (package, layer)]
            hot = HOT.get(layer, set())
            for attr, value in sorted(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    # Private classes too: _PathBase holds the path arithmetic.
                    for meth, member in sorted(vars(value).items()):
                        if meth.startswith("_") or meth in hot:
                            continue
                        if not callable(member) or isinstance(member, (staticmethod, classmethod)):
                            continue
                        qual = "%s.%s" % (attr, meth)
                        span = ALIASES.get((layer, qual), "%s.%s" % (layer, qual))
                        out.append((layer, value, meth, member, span))
                elif callable(value) and not attr.startswith("_") and attr not in hot:
                    if inspect.isgeneratorfunction(getattr(value, "__wrapped__", value)):
                        continue
                    span = ALIASES.get((layer, attr), "%s.%s" % (layer, attr))
                    out.append((layer, module, attr, value, span))
        return out

    def install(self, package="demtensor", extra_modules=()):
        """Wrap every target in place, in all modules of the package and in
        `extra_modules` (callers that imported package names directly)."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        modules.extend(extra_modules)
        for layer, owner, attr, original, span in self._targets(package):
            wrapped = self._wrap(layer, span, original)
            if isinstance(owner, types.ModuleType):
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, wrapped)
            else:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        # Suites are held in a tuple and as run_all's default argument.
        verify = sys.modules[package + ".verify"]
        suites = tuple((name, getattr(verify, fn.__name__)) for name, fn in verify.ALL_SUITES)
        self._patches.append((verify, "ALL_SUITES", verify.ALL_SUITES))
        self._patches.append((verify.run_all, "__defaults__", verify.run_all.__defaults__))
        verify.ALL_SUITES = suites
        verify.run_all.__defaults__ = (None, suites)

    def mark(self):
        """Start of the timed region: self time from here on is compared with its wall."""
        self._marked_self_s = sum(self.self_s.values())

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading ---------------------------------------------------------------

    def metrics(self, wall_s, package="demtensor"):
        """Per-layer metrics of everything traced since install; read the
        caches after uninstall, when the package's own functions are back."""
        mod = lambda name: sys.modules["%s.%s" % (package, name)]
        weyl, crystal, demazure, keypoly, verify = (
            mod("weyl"), mod("crystal"), mod("demazure"), mod("keypoly"), mod("verify"),
        )
        calls, span_s, sizes, trues = self.calls, self.span_s, self.sizes, self.true_results
        c = lambda name: calls.get(name, 0)
        s = lambda name: span_s.get(name, 0.0)
        ratio = lambda a, b: a / b if b else 0.0
        crystal_caches = [crystal.f_op, crystal.e_op, crystal.eps, crystal.phi, crystal.weight_of,
                          crystal.generate_crystal]
        out = {
            "weyl.build_s": s("weyl.build"),
            "weyl.order": self.weyl_order,
            "weyl.coset_queries": c("weyl.coset"),
            "weyl.coset_s": s("weyl.coset"),
            "weyl.multiply_calls": c("weyl.multiply"),
            "weyl.multiply_s": s("weyl.multiply"),
            "weyl.bruhat_calls": c("weyl.bruhat"),
            "weyl.bruhat_s": s("weyl.bruhat"),
            "weyl.parabolic.misses": weyl.WeylGroup.parabolic.cache_info().misses,
            "lspath.validate.calls": c("lspath.validate"),
            "lspath.validate.s": s("lspath.validate"),
            "lspath.make_path.calls": c("lspath.make_path"),
            "crystal.f_op.calls": c("crystal.f_op"),
            "crystal.f_op.misses": crystal.f_op.cache_info().misses,
            "crystal.e_op.misses": crystal.e_op.cache_info().misses,
            "crystal.eps.misses": crystal.eps.cache_info().misses,
            "crystal.phi.misses": crystal.phi.cache_info().misses,
            "crystal.weight_of.misses": crystal.weight_of.cache_info().misses,
            "crystal.crystals_built": crystal.generate_crystal.cache_info().misses,
            "crystal.generate_s": s("crystal.generate"),
            "crystal.iso_tests": c("crystal.iso"),
            "crystal.iso_matches": trues.get(("crystal.iso", "true"), 0),
            "crystal.iso_match_ratio": ratio(trues.get(("crystal.iso", "true"), 0), c("crystal.iso")),
            "crystal.iso_s": s("crystal.iso"),
            "crystal.component_calls": c("crystal.component"),
            "crystal.component_s": s("crystal.component"),
            "crystal.product_pairs": sizes.get("crystal.product", 0),
            "crystal.cache_entries": sum(f.cache_info().currsize for f in crystal_caches),
            "demazure.generated": demazure._generate_demazure_cached.cache_info().misses,
            "demazure.generate_calls": c("demazure.generate"),
            "demazure.generate_s": s("demazure.generate"),
            "demazure.elements": sizes.get("demazure.elements", 0),
            "demazure.string_checks": c("demazure.string_check"),
            "demazure.string_check_s": s("demazure.string_check"),
            "decomp.decompose_calls": c("decomp.decompose"),
            "decomp.components": sizes.get("decomp.decompose", 0),
            "decomp.demazure_components": trues.get("decomp.decompose", 0),
            "decomp.product_builds": c("decomp.product_build"),
            "decomp.product_builds_per_component": ratio(
                c("decomp.product_build"), sizes.get("decomp.decompose", 0)
            ),
            "decomp.path_witness_calls": c("decomp.path_witness"),
            "decomp.path_witness_s": s("decomp.path_witness"),
            "decomp.condition_checks": c("decomp.condition"),
            "keypoly.product_reports": c("keypoly.product_report"),
            "keypoly.expand_calls": c("keypoly.expand"),
            "keypoly.expand_s": s("keypoly.expand"),
            "keypoly.candidates": sizes.get("keypoly.candidates", 0),
            "keypoly.nonzero_coeffs": sizes.get("keypoly.expand", 0),
            "keypoly.candidate_yield": ratio(
                sizes.get("keypoly.expand", 0), sizes.get("keypoly.candidates", 0)
            ),
            "keypoly.keys_built": keypoly._key_polynomial_cached.cache_info().misses,
            "keypoly.key_s": s("keypoly.key"),
            "keypoly.dominance_tests": c("keypoly.dominance"),
            "keypoly.candidates_s": s("keypoly.candidates"),
        }
        for layer in LAYERS:
            out["%s.self_s" % layer] = self.self_s[layer]
        for layer in ("weyl", "crystal", "decomp", "keypoly"):
            out["%s.errors" % layer] = self.errors[layer]
        failures = 0
        for name, fn in verify.ALL_SUITES:
            span = "verify.%s" % fn.__name__
            out["verify.%s.s" % name] = s(span)
            failures += c(span) - trues.get((span, "none"), 0)
        out["verify.failures"] = failures
        out["unattributed_s"] = wall_s - (sum(self.self_s.values()) - self._marked_self_s)
        return out
