"""Run one addesigns CLI command with spans around the library's layers.

    python3 perfbench/trace_stage.py SPANS.json -- gen pg --n 2 --q 2 --d 1 --out fano.json

Every public function of the layers gf, geometry, designs and additivity
is wrapped at every module that binds it, so a call through a name
imported with ``from .designs import validate_2design`` is traced as well
as one through ``designs.validate_2design``.  A span records its parent
span, its name, its start and end, and a few facts taken from its
arguments and result.  Spans stay in memory and are written to SPANS.json
when the command ends.  ``FieldSpec.add_code`` and ``FieldSpec.mul_code``
are too hot for spans and get count-only wrappers.

Nothing under src/ is changed: the wrappers are installed at run time in
this process only.
"""

import functools
import inspect
import json
import math
import sys
import time

LAYERS = ("gf", "geometry", "designs", "additivity")
COUNTED = ("add_code", "mul_code")


def _make_field(tracer, args, field):
    # Candidates tried: the rank of the chosen polynomial in the
    # lexicographic search, plus one; a supplied polynomial is one test.
    if args.get("poly") is not None:
        return {"gf.poly_candidates": 1}
    low_first = reversed(field.prim_poly[1:])
    rank = sum(c * field.p ** j for j, c in enumerate(low_first))
    return {"gf.poly_candidates": rank + 1}


def _blocks(tracer, args, design):
    return {"geometry.blocks": design.b}


def _ag_design(tracer, args, design):
    n, q, d = args["n"], args["q"], args["d"]
    gaussian = tracer.originals["geometry.gaussian"]
    return {"geometry.blocks": design.b, "geometry.ag_blocks": design.b,
            "geometry.ag_translates": gaussian(n, d, q) * q ** n}


def _validate_2design(tracer, args, design):
    return {"designs.pairs_counted": design.b * math.comb(design.k, 2)}


def _verify_strong(tracer, args, report):
    if report.strong == "skipped":
        return {}
    design = args["design"]
    k = design.k if design.validated else len(design.blocks[0])
    return {"additivity.strong_subsets": math.comb(design.v, k),
            "additivity.zero_sum_found": report.zero_sum_subsets}


FACTS = {
    "gf.make_field": _make_field,
    "geometry.pg_design": _blocks,
    "geometry.pg_design_cyclic": _blocks,
    "geometry.ag_design": _ag_design,
    "designs.validate_2design": _validate_2design,
    "additivity.verify_strong": _verify_strong,
}


class Tracer:
    """Holds the spans and counters of one process."""

    def __init__(self):
        self.names = []
        self.spans = []   # [parent index or -1, name index, start, end, facts]
        self.stack = []
        self.counts = {"gf.%s.calls" % m: 0 for m in COUNTED}
        self.originals = {}

    def install(self, package):
        """Wrap the public functions of each layer of `package`."""
        modules = [getattr(package, layer) for layer in LAYERS] + [package.cli]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    span = "%s.%s" % (layer, name)
                    self.originals[span] = fn
                    wrappers[fn] = self._wrap(span, fn)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
        for method in COUNTED:
            self._count(package.gf.FieldSpec, method)

    def _wrap(self, span, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        name = len(self.names)
        self.names.append(span)
        facts = FACTS.get(span)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [stack[-1] if stack else -1, name, clock(), None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if facts is not None:
                bound = signature.bind(*args, **kwargs).arguments
                rec[4] = facts(self, bound, result)
            return result

        return traced

    def _count(self, cls, method):
        fn = getattr(cls, method)
        counts = self.counts
        key = "gf.%s.calls" % method

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        setattr(cls, method, counted)

    def write(self, path, import_s):
        doc = {"import_s": import_s, "counts": self.counts,
               "names": self.names, "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    start = time.perf_counter()
    import addesigns.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(addesigns)
    try:
        return addesigns.cli.main(argv[2:])
    finally:
        tracer.write(argv[0], import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
