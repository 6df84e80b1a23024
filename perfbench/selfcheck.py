"""Quick self-check of the benchmark itself (about a minute).

    python3 perfbench/selfcheck.py

For every workload it runs a few ops untraced and traced, with every
correctness check on, and asserts that:
  - the last stdout line holds exactly correct, attempted, failed and
    metrics, with correct true, no failed op and the expected op count;
  - the untraced run names every end-to-end metric of BENCHMARK.json with
    its unit, and the traced run every per-layer metric;
  - the traced and the untraced run produce the same program output
    (the digest of the first ops' outputs, or of the first cli cycle).
It also asserts that run.py exits nonzero without printing a result in a
copy holding only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys

import common

# (workload, --rounds, ops that makes)
CASES = (("transform-reuse", 2, 2), ("bundle-lemma", 2, 2), ("cli-cold", 1, 10))
SEED = 7


def run(root, workload, rounds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--rounds", str(rounds)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_result(lines, spec, ops):
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}, summary.keys()
    assert summary["correct"] is True, summary
    assert summary["attempted"] == ops and summary["failed"] == 0, summary
    got = {name: m["unit"] for name, m in summary["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    assert got == want, (sorted(set(got) ^ set(want)), got)
    for name, m in summary["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    assert lines[-2].startswith("# facts ")
    return json.loads(lines[-2][len("# facts "):])


def main():
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    for workload, rounds, ops in CASES:
        digests = []
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, lines, err = run(common.ROOT, workload, rounds, trace)
            assert code == 0, (workload, trace, err[-2000:])
            facts = check_result(lines, spec, ops)
            digests.append(facts["output_digest"])
        assert digests[0] == digests[1], (workload, digests)
        print(f"ok  {workload}: {ops} ops, traced output == untraced output")

    bare = common.OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(common.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, lines, _ = run(bare, "transform-reuse", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print(f"ok  without src/swsh: exit {code}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
