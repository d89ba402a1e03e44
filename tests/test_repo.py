"""Files outside the package that use it: the README's Python recipe and
the benchmark worker's traced pass."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_traced_benchmark_pass_runs(tmp_path):
    # the tracer patches fracfite functions by name and reads the kernel
    # cache's counters: a pass fails if a patched name goes or changes
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload",
         "solve_large", "--size", "smoke", "--seed", "1", "--traced",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["failed"] == 0, proc.stderr
    assert record["layers"]["rlops.kernel_matrix.builds"] >= 1
