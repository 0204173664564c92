"""The benchmark's workloads: fixed instances of the CLI pipeline.

An instance is a list of stages.  Each stage is one ``addesigns`` command
whose document goes to ``<output>.json``.  An argument ``{name}`` stands
for the path of an earlier stage's document and ``{name.key}`` for a field
of it (lists are comma-joined).  A ``verify`` stage reads the design and
the embedding after the client has relabelled their points (see
``run.Pipeline``).
"""

from collections import namedtuple

Stage = namedtuple("Stage", "verb output args")
Instance = namedtuple("Instance", "name stages")

VERIFY = Stage("verify", "report", ["verify", "{design}", "{emb}"])
VERIFY_STRONG = Stage("verify", "report", ["verify", "{design}", "{emb}", "--strong"])


def _flags(**kw):
    out = []
    for key, value in kw.items():
        out += ["--" + key, str(value)]
    return out


def _gen_pg(n, q, d, cyclic=False):
    args = ["gen", "pg"] + _flags(n=n, q=q, d=d)
    if cyclic:
        args += ["--points", "cyclic"]
    return Stage("gen", "design", args)


def singer_plane(q, p):
    """Singer difference set of PG(2,q), developed and cyclically embedded
    over GF(p^t); neither field polynomial is given, so both are searched."""
    return Instance("singer%d" % q, [
        Stage("gen", "set", ["gen", "singer"] + _flags(n=2, q=q, format="diffset")),
        Stage("gen", "design", ["gen", "dev", "--v", "{set.v}", "--set", "{set.set}"]),
        Stage("embed", "emb", ["embed", "cyclic", "{set}"] + _flags(p=p)),
        VERIFY,
    ])


def subspace_pipeline(name, n, q, verify):
    """PG_1(n,q) with cyclic point labels and the power-map embedding."""
    return Instance(name, [
        _gen_pg(n, q, 1, cyclic=True),
        Stage("embed", "emb", ["embed", "subspace", "{design}"] + _flags(q=q)),
        verify,
    ])


WORKLOADS = {
    "fields": [
        singer_plane(16, 2),   # GF(2^12)
        singer_plane(27, 3),   # GF(3^9)
        singer_plane(32, 2),   # GF(2^15)
        Instance("paley10007", [
            Stage("gen", "set", ["gen", "paley"] + _flags(v=10007, format="diffset")),
        ]),
    ],
    "geometry": [
        Instance("pg441", [
            _gen_pg(4, 4, 1),
            Stage("embed", "emb", ["embed", "pg"] + _flags(n=4, q=4, d=1)),
            VERIFY,
        ]),
        Instance("ag432", [
            Stage("gen", "design", ["gen", "ag"] + _flags(n=4, q=3, d=2)),
        ]),
        subspace_pipeline("pg351c", 3, 5, VERIFY),
    ],
    "strong": [
        # t = 31, C(31,6) = 736 281 subsets, 31 zero-sum: pass
        Instance("pg251-symmetric", [
            _gen_pg(2, 5, 1),
            Stage("embed", "emb", ["embed", "symmetric", "{design}"]),
            VERIFY_STRONG,
        ]),
        # t = 3, same C(31,6) subsets, 5 952 zero-sum: fail (exit 1)
        subspace_pipeline("pg251c-subspace", 2, 5, VERIFY_STRONG),
        # t = 40, C(40,4) = 91 390 subsets: pass
        Instance("pg331-pg", [
            _gen_pg(3, 3, 1),
            Stage("embed", "emb", ["embed", "pg"] + _flags(n=3, q=3, d=1)),
            VERIFY_STRONG,
        ]),
    ],
}

# Small instances for perfbench/selfcheck.py only.
SELFCHECK = [
    Instance("plane3", [
        Stage("gen", "set", ["gen", "dev"] + _flags(v=13, set="0,1,3,9", format="diffset")),
        Stage("gen", "design", ["gen", "dev", "--v", "{set.v}", "--set", "{set.set}"]),
        Stage("embed", "emb", ["embed", "cyclic", "{set}"] + _flags(p=3)),
        VERIFY,
    ]),
    Instance("fano", [
        _gen_pg(2, 2, 1),
        Stage("embed", "emb", ["embed", "symmetric", "{design}"]),
        VERIFY_STRONG,
    ]),
]
