"""Record the seed-invariant output digests of the default-seed corpus.

Usage (from the repository root): python3 bench/record_digests.py

Runs every instance of every workload's default-seed corpus once through
`fairflow.cli.main`, checks it, and writes `digests.json` next to this file.
The digests (fair focus profile, least cost over the fair set, sorted
in-degree vector) are the same for every correct solver, so the file is
recorded once and then guards later versions of the program.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
from run import CORPUS_SIZE  # noqa: E402
from worker import COMMANDS, call  # noqa: E402

DEFAULT_SEED = 1


def main() -> int:
    from fairflow import cli

    digests = {}
    work = os.path.join(os.path.dirname(BENCH_DIR), ".bench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in corpus.STRATA:
            paths = corpus.write_corpus(workload, DEFAULT_SEED, CORPUS_SIZE, tmp)
            digests[workload] = {}
            for path in paths:
                code, out, _ = call(cli, COMMANDS[workload] + [path])
                with open(path) as fh:
                    problem, digest = checks.check(workload, json.load(fh), code, out)
                if problem is not None:
                    print(f"{path}: {problem}", file=sys.stderr)
                    return 1
                digests[workload][os.path.basename(path)[:-len(".json")]] = digest
    blocks = []
    for workload, table in sorted(digests.items()):
        rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(digest)}"
                           for name, digest in sorted(table.items()))
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    with open(os.path.join(BENCH_DIR, "digests.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")  # one instance per line
    return 0


if __name__ == "__main__":
    sys.exit(main())
