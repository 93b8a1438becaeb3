"""Record the expected output digests for the documented seeds.

    python3 bench/record_expected.py

For the main seed and the held-out seed (see bench/README.md), runs each
workload's operation once per input at full size, checks every output
against the workload's oracles, and writes the digests to
bench/expected.json.  run.py compares outputs of these seeds against them.
Rerun only when a change is meant to alter an output.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (1, 1013)  # main seed, held-out seed


def main() -> int:
    run.import_falab()
    import workloads

    run.BUILD.mkdir(exist_ok=True)
    recorded: dict[str, dict[str, dict[str, str]]] = {}
    for name, workload in workloads.workloads().items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
                inputs = workload.make_inputs(seed)
                state = workload.setup(seed, Path(tmp))
                check = run.Checker(workload, state, inputs, {})
                for index, item in enumerate(inputs):
                    outs = {part: workload.run(state, item, part)
                            for part in workload.parts}
                    problem = check(index, outs)
                    if problem:
                        sys.exit(f"{name} seed {seed}: {problem}")
            recorded.setdefault(name, {})[str(seed)] = {
                str(i): digest for i, digest in sorted(check.expected.items())}
            print(f"{name} seed {seed}: {len(inputs)} outputs checked")
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
