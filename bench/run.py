"""falab benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds the optional
compiled kernel in place (once per checkout, through setup.py), imports
falab from ``src/``, makes the workload's inputs from the seed, then sets
up and runs the workload's operation back to back until the operations
have taken ``--seconds`` in total.  Every output is checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run, and the spans are written under ``.bench_build/traces``.
``--workload all`` runs every workload, each in a fresh process.
``--tiny`` shrinks every input, for the smoke check (bench/smoke.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BENCH = Path(__file__).resolve().parent
# Set-up is timed again between operations while it has taken less than
# SETUP_SHARE of the time the operations took, and at least SETUP_MIN times;
# spreading the samples over the run keeps the median of a set-up that takes
# milliseconds from resting on one moment of the machine's load.
SETUP_MIN, SETUP_SHARE = 3, 0.1
WORKLOAD_NAMES = ("dotstar-merge", "mesh-per-pattern", "levenshtein-scan")


def build_kernel() -> None:
    """Compile the optional kernel in place, once per checkout.

    A failed build is not an error: falab then runs its pure-Python
    kernel, and provenance records which kernel was used.
    """
    stamp = BUILD / "build.stamp"
    if stamp.exists() or not (ROOT / "setup.py").exists():
        return
    BUILD.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(BUILD / "temp")],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    stamp.write_text(f"{proc.returncode}\n")


def import_falab():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import falab
    except ImportError as exc:
        sys.exit(f"bench: cannot import falab from {ROOT / 'src'}: {exc}")
    if Path(falab.__file__).resolve().parent != ROOT / "src" / "falab":
        sys.exit(f"bench: falab imported from {falab.__file__}, not from "
                 f"this checkout")
    return falab


def git_commit() -> str:
    """HEAD read from .git directly; git itself would search parent dirs."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(falab, seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "falab": falab.__version__,
        "available_kernels": list(falab.available_kernels()),
        "default_kernel": falab.default_kernel(),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Checker:
    """Checks each output; counts a wrong or missing output as a failure.

    The first output for an input goes to the workload's oracles and its
    digest becomes the expected value.  ``expected`` may pre-set digests
    (bench/expected.json); the oracles must then agree as well.
    """

    def __init__(self, workload, state, inputs, expected: dict[int, str]):
        self.workload = workload
        self.state = state
        self.inputs = inputs
        self.expected = dict(expected)
        self.verified: set[int] = set()

    def __call__(self, index: int, out) -> str | None:
        try:
            digest = self.workload.digest(out)
            problems = [] if index in self.verified else self.workload.check(
                self.state, self.inputs[index], out)
        except Exception as exc:  # a malformed output can break an oracle
            return f"input {index}: {type(exc).__name__}: {exc}"
        if index not in self.verified:
            if problems:
                return f"input {index}: " + "; ".join(problems)
            self.verified.add(index)
            self.expected.setdefault(index, digest)
        if digest != self.expected[index]:
            return (f"input {index}: output digest {digest} differs from "
                    f"the expected {self.expected[index]}")
        return None


def measure(workload, seed: int, seconds: float, tracer=None,
            expected: dict[int, str] | None = None) -> dict:
    """Set up, then run operations until they have taken ``seconds``.

    Returns the set-up times, each successful operation's part times, the
    traced-over-untraced ratios of a traced run, the count of operations
    attempted and the failures seen.
    """
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BUILD))
    failures: list[str] = []
    ops: list[dict[str, float]] = []
    ratios: list[float] = []
    setup_times: list[float] = []
    attempted = 0
    try:
        inputs = workload.make_inputs(seed)

        def timed_setup():
            gc.collect()
            start = time.perf_counter()
            state = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - start)
            return state

        if tracer is not None:
            with tracer.installed("setup"):
                state = workload.setup(seed, workdir)
        else:
            state = timed_setup()
        check = Checker(workload, state, inputs, expected or {})

        def attempt(item: int, traced: bool) -> tuple[float, bool]:
            """One operation; returns its time and whether it succeeded."""
            nonlocal attempted
            attempted += 1
            gc.collect()
            outs, part_s = {}, {}
            start = time.perf_counter()
            try:
                with tracer.installed("ops") if traced else nullcontext():
                    for part in workload.parts:
                        start = time.perf_counter()
                        outs[part] = workload.run(state, inputs[item], part)
                        part_s[part] = time.perf_counter() - start
            except Exception as exc:  # an operation that raised is a failure
                failures.append(f"input {item}: {type(exc).__name__}: {exc}")
                return sum(part_s.values()) + time.perf_counter() - start, False
            problem = check(item, outs)
            if problem:
                failures.append(problem)
            if not traced:
                ops.append(part_s)
            return sum(part_s.values()), not problem

        spent = 0.0
        index = 0
        while spent < seconds or index == 0:
            item = index % len(inputs)
            if tracer is not None:
                # Alternate which goes first: the second operation of a pair
                # runs on memory the first one freed.
                order = (False, True) if index % 2 == 0 else (True, False)
                timed = dict(zip(order, (attempt(item, traced)
                                         for traced in order)))
                spent += timed[False][0] + timed[True][0]
                if timed[False][1] and timed[True][1]:
                    ratios.append(timed[True][0] / timed[False][0])
            else:
                spent += attempt(item, traced=False)[0]
                if sum(setup_times) < SETUP_SHARE * spent:
                    state = check.state = timed_setup()
            index += 1
        while tracer is None and len(setup_times) < SETUP_MIN:
            timed_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setup_times": setup_times, "ops": ops, "ratios": ratios,
            "attempted": attempted, "failures": failures, "inputs": inputs}


def run_one(args) -> int:
    build_kernel()
    falab = import_falab()
    import tracing
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    workload = workloads.workloads(sizes)[args.workload]
    stored = json.loads((BENCH / "expected.json").read_text())
    expected = {} if args.tiny else {
        int(i): digest for i, digest in
        stored.get(args.workload, {}).get(str(args.seed), {}).items()}
    info = provenance(falab, args.seed)
    print("provenance: " + json.dumps(info, sort_keys=True))
    tracer = tracing.Tracer() if args.trace else None
    result = measure(workload, args.seed, args.seconds, tracer, expected)
    for failure in result["failures"]:
        print(f"bench: {args.workload}: {failure}", file=sys.stderr)
    if not result["ops"] or (tracer is not None and not result["ratios"]):
        sys.exit(f"bench: {args.workload}: no operation succeeded")
    attempted = result["attempted"]
    failed = len(result["failures"])
    if tracer is not None:
        metrics = tracer.layer_metrics(attempted // 2,
                                       statistics.median(result["ratios"]))
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "provenance": info, **tracer.dump()}
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(dump))
        for name, metric in metrics.items():
            print(f"{args.workload}: {name} = {metric['value']:.6g} "
                  f"{metric['unit']}")
    else:
        ops = result["ops"]
        setup_s = statistics.median(result["setup_times"])
        op_s = statistics.median(sum(op.values()) for op in ops)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        part_s = {part: statistics.median(op[part] for op in ops)
                  for part in workload.parts}
        headline = "".join(f"{name} = {value:.6g} {unit}, " for name, value, unit
                           in workload.headline(part_s, result["inputs"]))
        print(f"{args.workload}: setup_s = {setup_s:.6g} s, {headline}"
              f"peak_rss_mb = {rss_mb:.6g} MB, "
              f"error_rate = {failed / attempted:.6g} "
              f"({failed} of {attempted} operations), "
              f"op_s = {op_s:.6g} s (median of {len(ops)})")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is that workload's."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value
                        for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
