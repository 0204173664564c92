"""Self-check of the benchmark on the plane of order 3 and the Fano plane.

    python3 perfbench/selfcheck.py

Checks that an untraced and a traced run each emit exactly the metrics
BENCHMARK.json lists, with every stage correct, and that an embedding
document with one image coordinate changed makes the verify stages fail,
so that the error rate rises above 0.  Exits 0 when all of this holds.
"""

import json
import sys

from run import BENCH, ROOT, measure
from workloads import SELFCHECK


def change_one_coordinate(emb):
    row = emb["image"][0]
    row[0] = (row[0] + 1) % emb["group"]["m"]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = measure(SELFCHECK, 1, 1, trace, expected)
        listed = {m["name"]: m["unit"] for m in bench[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != listed:
            problems.append("trace %d emits %s, BENCHMARK.json lists %s"
                            % (trace, sorted(emitted.items()), sorted(listed.items())))
        if not result["correct"] or result["failed"]:
            problems.append("trace %d: %d of %d stages failed"
                            % (trace, result["failed"], result["attempted"]))
    result, lines = measure(SELFCHECK, 1, 1, 0, expected, tamper=change_one_coordinate)
    verifies = sum(1 for inst in SELFCHECK for stage in inst.stages if stage.verb == "verify")
    if result["correct"] or result["failed"] < verifies:
        problems.append("a changed image coordinate went unnoticed:\n" + "\n".join(lines))
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
