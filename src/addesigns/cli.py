"""Command-line surface: generate designs, build embeddings, verify.

Exit status convention (scriptable): 0 = all requested checks pass,
1 = a mathematical check failed, 2 = usage or size error.
"""

import argparse
import contextlib
import itertools
import json
import os
import re
import sys

import numpy as np

from . import additivity, chunks, designs, geometry
from .errors import AddesignsError, MalformedDocument, SizeMismatch, TooLarge

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _parse_ints(text):
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("not comma-separated integers: %r" % text) from None


def _emit(doc, out):
    """Write the dict doc as indented JSON plus a newline to out or stdout.

    The bytes are those of json.dump(doc, indent=2, sort_keys=True) with
    every array as its list.  A 2-D integer array value is written a chunk
    of rows at a time, one %d format per row; every other value holds no
    array and is left to the json encoder, streamed as json.dump streams
    it, with its lines indented by two more spaces, as a value of the dict is.
    """
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write("{")
        for i, key in enumerate(sorted(doc)):
            fh.write("%s\n  %s: " % ("," if i else "", json.dumps(key)))
            value = doc[key]
            if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind in "iu":
                _write_rows(fh, value)
            else:
                for chunk in encoder.iterencode(value):
                    fh.write(chunk.replace("\n", "\n  "))
        fh.write("\n}\n" if doc else "}\n")


def _write_rows(fh, rows):
    """Write a 2-D integer array as the list of lists a value of the
    document's dict is in indented JSON."""
    if not len(rows):
        fh.write("[]")
        return
    k = rows.shape[1]
    row = "\n    [%s\n    ]" % ",".join(["\n      %d"] * k) if k else "\n    []"
    # a row takes its text twice (its string and the joined chunk), at most
    # len(row) + 18 k characters, and k Python ints of up to 48 bytes each
    # with their list and tuple entries
    step = chunks.rows_per_chunk(2 * len(row) + 84 * k)
    fh.write("[")
    for lo in range(0, len(rows), step):
        text = ",".join([row % tuple(r) for r in rows[lo:lo + step].tolist()])
        fh.write("," + text if lo else text)
    fh.write("\n  ]")


def _load(path):
    """Read a JSON document as json.load does, except that a top-level
    "blocks" or "image" value that is a non-empty list of equal-length
    lists of 64-bit integers comes back as one 2-D integer array.

    json decodes that array a chunk of rows at a time; any other text, and
    any text json rejects, is decoded whole by json.loads, so the result
    or the error is then json's own."""
    with open(path) as fh:
        text = fh.read()
    start = json.decoder.WHITESPACE.match(text).end()
    if text.startswith("{", start):
        with contextlib.suppress(ValueError, RecursionError):
            doc, end = json.decoder.JSONObject(
                (text, start + 1), True, _scan_value, None, _keep_matrices)
            if json.decoder.WHITESPACE.match(text, end).end() == len(text):
                return doc
    return json.loads(text)


def _keep_matrices(pairs):
    return {key: value.tolist() if isinstance(value, np.ndarray) and key not in ("blocks", "image")
            else value for key, value in pairs}


_DECODER = json.JSONDecoder()


def _scan_value(text, idx):
    """json's scan of the value at text[idx], or the rows of a list of
    equal-length lists of 64-bit integers there as one array, and the end."""
    if text.startswith("[", idx):
        with contextlib.suppress(ValueError, OverflowError):
            matrix = _matrix(text, idx + 1)
            if matrix is not None:
                return matrix
    return _DECODER.scan_once(text, idx)


def _matrix(text, pos):
    """The array and end of the list whose rows may start at text[pos], or
    None; ValueError or OverflowError where json or int64 rejects it.

    Flat rows end at the first ']' that JSON whitespace and another ']'
    follow.  They are cut after a ']' into chunks, which json decodes and
    which are checked here, with the comma between two chunks."""
    last = re.compile(r"\][ \t\n\r]*\]").search(text, pos)
    if not (last and text.startswith("[", json.decoder.WHITESPACE.match(text, pos).end())):
        return None
    parts, step = [], 1
    while True:
        end = 1 + max(text.index("]", pos), text.rfind("]", pos, min(pos + step, last.start() + 1)))
        rows = json.loads("[%s]" % text[pos:end])
        if set(map(type, rows)) != {list} \
                or set(map(type, itertools.chain.from_iterable(rows))) != {int}:
            return None
        chunk = np.array(rows, np.int64)  # ValueError if ragged
        dtype = np.promote_types(np.min_scalar_type(chunk.min()), np.min_scalar_type(chunk.max()))
        parts.append(chunk.astype(dtype if dtype.itemsize < 8 else np.int64))
        if end == last.start() + 1:
            return np.concatenate(parts), last.end()
        # a row holds its text twice and its list of entries, each a slot
        # and an int of up to 32 bytes, then 8 bytes each as int64
        row_chars = (end - pos) // len(rows)
        step = row_chars * chunks.rows_per_chunk(2 * row_chars + 48 * chunk.size // len(rows) + 64)
        pos = json.decoder.WHITESPACE.match(text, end).end()
        if not text.startswith(",", pos):
            return None
        pos += 1


def _design_from_doc(doc):
    design = designs.Design.from_dict(doc)
    return design if design.validated else designs.validate_2design(design)


def cmd_build(args):
    """Write the document of the object that the leaf's builder makes."""
    _emit(args.build(args).to_dict(), args.out)
    return EXIT_OK


def _gen_pg(args):
    if args.points == "cyclic":
        return geometry.pg_design_cyclic(args.n, args.q, args.d, args.poly)
    if args.poly is not None:
        raise argparse.ArgumentError(None, "--poly is read with --points cyclic only")
    return geometry.pg_design(args.n, args.q, args.d)


def _set_or_development(ds, args):
    return ds if args.format == "diffset" else designs.develop(ds)


def cmd_verify(args):
    # The embedding is read first, while the heap is smallest.  It is not
    # always the larger document (Singer(32): a 406 KB design, a 156 KB
    # embedding), but reading the design first raised the ru_maxrss of
    # verifying PG_1(4,4) from 30.5 to 31.7 MB and left Singer(32)'s as it
    # was.  The embedding's error waits until the design has been read, so
    # that the design's error is the one reported.
    try:
        emb, emb_error = additivity.Embedding.from_dict(_load(args.embedding)), None
    except Exception as exc:
        emb, emb_error = None, exc
    design = _design_from_doc(_load(args.design))
    if emb_error is not None:
        raise emb_error
    if args.strong:
        report = additivity.verify_strong(design, emb, cap=args.cap)
    else:
        report = additivity.verify_embedding(design, emb)
    _emit(report.to_dict(), args.out)
    if args.strong and report.strong == "skipped":
        sys.stderr.write("strong check skipped: estimated work exceeds cap\n")
        return EXIT_USAGE
    if not (report.injective and report.additive):
        return EXIT_MATH
    if args.strong and report.strong != "pass":
        return EXIT_MATH
    return EXIT_OK


def cmd_info(args):
    doc = _load(args.file)
    keys = doc if isinstance(doc, dict) else ()
    if "blocks" in keys:
        design = _design_from_doc(doc)
        sys.stdout.write(repr(design) + "\n")
    elif "set" in keys:
        sys.stdout.write(repr(designs.DifferenceSet.from_dict(doc)) + "\n")
    elif "image" in keys:
        emb = additivity.Embedding.from_dict(doc)
        sys.stdout.write(repr(emb) + "\n")
    else:
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


def _leaf(kinds, name, help, build, *required, input=None):
    """The parser of one kind: input file, required integer flags, --out.  build(args)
    makes its object and looks library functions up as it runs, where a tracer wraps them."""
    leaf = kinds.add_parser(name, help=help, description=help)
    if input:
        leaf.add_argument("input", help=input)
    for flag in required:
        leaf.add_argument("--" + flag, type=int, required=True)
    leaf.add_argument("--out", help="write the document here, not to stdout")
    leaf.set_defaults(func=cmd_build, build=build, parser=leaf)
    return leaf


def build_parser():
    parser = argparse.ArgumentParser(
        prog="addesigns",
        description="Classical 2-designs, abelian-group embeddings, and "
                    "exact additivity verification.",
        epilog="Exit status: 0 = requested checks pass, "
               "1 = a mathematical check failed, 2 = usage or size error.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    kinds = sub.add_parser("gen", help="generate a design or difference set").add_subparsers(
        dest="kind", required=True)
    pg = _leaf(kinds, "pg", "PG_d(n,q): the d-subspaces of PG(n,q)", _gen_pg, "n", "q", "d")
    pg.add_argument("--points", choices=["vector", "cyclic"], default="vector",
                    help="point order: by vector, or cyclic along a Singer cycle of the "
                         "field of --poly")
    _leaf(kinds, "ag", "AG_d(n,q): the d-flats of AG(n,q)",
          lambda a: geometry.ag_design(a.n, a.q, a.d), "n", "q", "d")
    paley = _leaf(kinds, "paley", "the Paley difference set of Z_v",
                  lambda a: _set_or_development(designs.paley_diffset(a.v), a), "v")
    singer = _leaf(kinds, "singer", "the Singer difference set of PG(n,q)",
                   lambda a: _set_or_development(designs.singer_diffset(a.n, a.q, a.poly), a),
                   "n", "q")
    dev = _leaf(kinds, "dev", "the development of a difference set of Z_v",
                lambda a: _set_or_development(designs.validate_difference_set(a.v, a.set), a),
                "v")
    dev.add_argument("--set", type=_parse_ints, required=True,
                     help="comma-separated difference-set elements")
    for leaf in (paley, singer, dev):
        leaf.add_argument("--format", choices=["design", "diffset"], default="design",
                          help="write the development (default) or the set itself")

    methods = sub.add_parser("embed", help="build an embedding for a design").add_subparsers(
        dest="method", required=True)
    _leaf(methods, "symmetric", "the strong embedding of a symmetric design",
          lambda a: additivity.symmetric_strong_embedding(_design_from_doc(_load(a.input))),
          input="design file")
    cyclic = _leaf(methods, "cyclic", "the cyclic embedding of a difference set in EA(p^t)",
                   lambda a: additivity.cyclic_embedding(
                       designs.DifferenceSet.from_dict(_load(a.input)), a.p, a.poly),
                   "p", input="difference-set file")
    _leaf(methods, "pg", "the strong embedding of PG_d(n,q)",
          lambda a: additivity.pg_strong_embedding(a.n, a.q, a.d), "n", "q", "d")
    subspace = _leaf(methods, "subspace", "the power-map embedding of PG_d(m-1,q) with "
                     "cyclic points", lambda a: additivity.subspace_embedding(
                         a.q, _design_from_doc(_load(a.input)), a.poly),
                     "q", input="design file")
    for leaf in (pg, singer, cyclic, subspace):
        leaf.add_argument("--poly", type=_parse_ints,
                          help="field polynomial coefficients, high degree first")

    ver = sub.add_parser("verify", help="verify additivity of design + embedding")
    ver.add_argument("design")
    ver.add_argument("embedding")
    ver.add_argument("--strong", action="store_true",
                     help="also compare blocks against all zero-sum k-subsets")
    ver.add_argument("--cap", type=int, default=additivity.DEFAULT_STRONG_CAP,
                     help="maximum estimated work of the strong check: subsets whose "
                          "sums are keyed plus expected equal-key pairs "
                          "(default %(default)d, about a minute)")
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify, parser=ver)

    info = sub.add_parser("info", help="summarize a design/set/embedding file")
    info.add_argument("file")
    info.set_defaults(func=cmd_info, parser=info)
    return parser


def main(argv=None):
    # a flag the leaf does not take is reported with the leaf's usage
    args, foreign = build_parser().parse_known_args(argv)
    if foreign:
        args.parser.error("unrecognized arguments: %s" % " ".join(foreign))
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:
        args.parser.error(str(exc))
    except (MalformedDocument, SizeMismatch, TooLarge) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except AddesignsError as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return EXIT_MATH
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE


def run():
    """The process entry: run main, flush the standard streams and end the
    process with main's status without tearing the interpreter down,
    which takes longer than most stages' own work and frees nothing the
    operating system does not.  In-process callers call main(argv)."""
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        # no stream (its descriptor was closed at start), a failed write or
        # a closed file: the interpreter's own exit flushes and reports it
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
