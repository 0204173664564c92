"""Command-line surface: generate designs, build embeddings, verify.

Exit status convention (scriptable): 0 = all requested checks pass,
1 = a mathematical check failed, 2 = usage or size error.
"""

import argparse
import contextlib
import itertools
import json
import re
import sys

import numpy as np

from . import additivity, chunks, designs, geometry
from .errors import AddesignsError, MalformedDocument, SizeMismatch, TooLarge

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _parse_ints(text):
    return [int(x) for x in text.split(",") if x != ""]


def _emit(doc, out):
    """Write the dict doc as indented JSON plus a newline to out or stdout.

    The bytes are those of json.dump(doc, indent=2, sort_keys=True) with
    every array as its list.  A 2-D integer array value is written a chunk
    of rows at a time, one %d format per row; every other value is left to
    the json encoder, streamed as json.dump streams it, with its lines
    indented by two more spaces, as a value of the dict is.
    """
    encoder = json.JSONEncoder(indent=2, sort_keys=True, default=np.ndarray.tolist)
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
        design = _design_from_doc(_load(_require_input(args)))
        emb = additivity.symmetric_strong_embedding(design)
    elif args.method == "cyclic":
        if args.p is None:
            raise SizeMismatch("embed cyclic needs --p")
        ds = designs.DifferenceSet.from_dict(_load(_require_input(args)))
        emb = additivity.cyclic_embedding(ds, args.p, poly)
    elif args.method == "pg":
        if None in (args.n, args.q, args.d):
            raise SizeMismatch("embed pg needs --n --q --d")
        emb = additivity.pg_strong_embedding(args.n, args.q, args.d)
    else:  # subspace
        if args.q is None:
            raise SizeMismatch("embed subspace needs --q")
        design = _design_from_doc(_load(_require_input(args)))
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
    # The embedding, the larger document, is read first, while the heap is
    # smallest; its error waits until the design has been read, so that the
    # design's error is the one reported.
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
    if "blocks" in doc:
        design = _design_from_doc(doc)
        sys.stdout.write(repr(design) + "\n")
    elif "set" in doc:
        sys.stdout.write(repr(designs.DifferenceSet.from_dict(doc)) + "\n")
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
                     help="maximum estimated work of the strong check: subsets whose "
                          "sums are keyed plus expected equal-key pairs "
                          "(default %(default)d, about a minute)")
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
    except (MalformedDocument, SizeMismatch, TooLarge) as exc:
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
