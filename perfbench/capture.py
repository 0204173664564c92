"""Print the expected outcome of every benchmark stage as JSON.

    python3 perfbench/capture.py > perfbench/expected.json

run.py counts a stage as failed when its exit status, the SHA-256 of its
gen/embed document or the checked fields of its verify report differ from
this file.  Capture again only at a commit whose outputs are trusted, and
only to add instances: the outputs of existing instances must not change.
"""

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import WORK, Pipeline
from workloads import SELFCHECK, WORKLOADS


def main():
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="capture-", dir=WORK))
    try:
        pipeline = Pipeline(workdir, 0, None, time.perf_counter() + 3600)
        for instances in list(WORKLOADS.values()) + [SELFCHECK]:
            pipeline.run_pass(instances, traced=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    json.dump(pipeline.outcomes, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
