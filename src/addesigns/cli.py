"""Command-line surface: generate designs, build embeddings, verify.

Exit status convention (scriptable): 0 = all requested checks pass,
1 = a mathematical check failed, 2 = usage or size error.
"""

import argparse
import json
import sys

from . import additivity, designs, geometry
from .errors import AddesignsError, SizeMismatch, TooLarge

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _parse_ints(text):
    return [int(x) for x in text.split(",") if x != ""]


def _emit(doc, out):
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _design_from_doc(doc):
    design = designs.Design.from_dict(doc)
    return design if design.validated else designs.validate_2design(design)


def _design_from_file(path):
    doc = _load(path)
    if "blocks" not in doc:
        raise SizeMismatch("%s is not a design document" % path)
    return _design_from_doc(doc)


def _diffset_from_file(path):
    doc = _load(path)
    if "set" not in doc:
        raise SizeMismatch("%s is not a difference-set document" % path)
    return designs.validate_difference_set(doc["v"], doc["set"])


def cmd_gen(args):
    poly = _parse_ints(args.poly) if args.poly else None
    if args.kind == "pg":
        if args.points == "cyclic":
            design = geometry.pg_design_cyclic(args.n, args.q, args.d, poly)
        else:
            design = geometry.pg_design(args.n, args.q, args.d)
        _emit(design.to_dict(), args.out)
        return EXIT_OK
    if args.kind == "ag":
        _emit(geometry.ag_design(args.n, args.q, args.d).to_dict(), args.out)
        return EXIT_OK
    if args.kind == "paley":
        ds = designs.paley_diffset(args.v)
    elif args.kind == "singer":
        ds = designs.singer_diffset(args.n, args.q, poly)
    else:  # dev
        ds = designs.validate_difference_set(args.v, _parse_ints(args.set))
    if args.format == "diffset":
        _emit(ds.to_dict(), args.out)
    else:
        _emit(designs.develop(ds).to_dict(), args.out)
    return EXIT_OK


def cmd_embed(args):
    poly = _parse_ints(args.poly) if args.poly else None
    if args.method == "symmetric":
        design = _design_from_file(_require_input(args))
        emb = additivity.symmetric_strong_embedding(design)
    elif args.method == "cyclic":
        if args.p is None:
            raise SizeMismatch("embed cyclic needs --p")
        ds = _diffset_from_file(_require_input(args))
        emb = additivity.cyclic_embedding(ds, args.p, poly)
    elif args.method == "pg":
        if None in (args.n, args.q, args.d):
            raise SizeMismatch("embed pg needs --n --q --d")
        emb = additivity.pg_strong_embedding(args.n, args.q, args.d)
    else:  # subspace
        if args.q is None:
            raise SizeMismatch("embed subspace needs --q")
        design = _design_from_file(_require_input(args))
        m = _infer_field_degree(design.v, args.q)
        emb = additivity.subspace_embedding(m, args.q, design, poly)
    _emit(emb.to_dict(), args.out)
    return EXIT_OK


def _require_input(args):
    if not args.input:
        raise SizeMismatch("this embed method needs an input file")
    return args.input


def _infer_field_degree(v, q):
    m = 2
    while geometry.bracket(m, q) < v:
        m += 1
    if geometry.bracket(m, q) != v:
        raise SizeMismatch("%d is not the point count of any PG(m-1,%d)" % (v, q))
    return m


def cmd_verify(args):
    design = _design_from_file(args.design)
    emb = additivity.Embedding.from_dict(_load(args.embedding))
    if args.strong:
        report = additivity.verify_strong(design, emb, cap=args.cap)
    else:
        report = additivity.verify_embedding(design, emb)
    _emit(report.to_dict(), args.out)
    if args.strong and report.strong == "skipped":
        sys.stderr.write("strong check skipped: C(v,k) exceeds cap\n")
        return EXIT_USAGE
    if not (report.injective and report.additive):
        return EXIT_MATH
    if args.strong and report.strong != "pass":
        return EXIT_MATH
    return EXIT_OK


def cmd_info(args):
    doc = _load(args.file)
    if "blocks" in doc:
        design = _design_from_doc(doc)
        sys.stdout.write(repr(design) + "\n")
    elif "set" in doc:
        ds = designs.validate_difference_set(doc["v"], doc["set"])
        sys.stdout.write(repr(ds) + "\n")
    elif "image" in doc:
        emb = additivity.Embedding.from_dict(doc)
        sys.stdout.write(repr(emb) + "\n")
    else:
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="addesigns",
        description="Classical 2-designs, abelian-group embeddings, and "
                    "exact additivity verification.",
        epilog="Exit status: 0 = requested checks pass, "
               "1 = a mathematical check failed, 2 = usage or size error.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate a design or difference set")
    gen.add_argument("kind", choices=["pg", "ag", "paley", "singer", "dev"])
    gen.add_argument("--n", type=int)
    gen.add_argument("--q", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--v", type=int)
    gen.add_argument("--set", help="comma-separated difference-set elements")
    gen.add_argument("--poly", help="field polynomial coefficients, high degree first")
    gen.add_argument("--points", choices=["vector", "cyclic"], default="vector",
                     help="point indexing for gen pg")
    gen.add_argument("--format", choices=["design", "diffset"], default="design")
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_gen)

    emb = sub.add_parser("embed", help="build an embedding for a design")
    emb.add_argument("method", choices=["symmetric", "cyclic", "pg", "subspace"])
    emb.add_argument("input", nargs="?", help="design or difference-set file")
    emb.add_argument("--p", type=int, help="prime for the cyclic method")
    emb.add_argument("--n", type=int)
    emb.add_argument("--q", type=int)
    emb.add_argument("--d", type=int)
    emb.add_argument("--poly", help="field polynomial coefficients, high degree first")
    emb.add_argument("--out")
    emb.set_defaults(func=cmd_embed)

    ver = sub.add_parser("verify", help="verify additivity of design + embedding")
    ver.add_argument("design")
    ver.add_argument("embedding")
    ver.add_argument("--strong", action="store_true",
                     help="also compare blocks against all zero-sum k-subsets")
    ver.add_argument("--cap", type=int, default=additivity.DEFAULT_STRONG_CAP,
                     help="maximum C(v,k) for the strong enumeration")
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify)

    info = sub.add_parser("info", help="summarize a design/set/embedding file")
    info.add_argument("file")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SizeMismatch, TooLarge) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except AddesignsError as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return EXIT_MATH
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
