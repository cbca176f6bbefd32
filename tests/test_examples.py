"""The fast example script runs, and still shows what it claims.

``examples/`` is documentation that executes; nothing else in tier-1
imports it, so a PR that changes an API an example uses would only be
noticed by a reader.  (``safe_online_learning.py`` and
``method_comparison.py`` train for minutes and stay out of tier-1.)
"""

import importlib.util
import re
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run_main(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_quickstart_example(capsys):
    out = _run_main("quickstart", capsys)
    assert "Slices: MAR, HVS, RDC" in out
    rows = [line.split() for line in out.splitlines()
            if re.match(r"\s*\d+\s+(MAR|HVS|RDC)\s", line)]
    assert len(rows) == 6 * 3                   # six slots, three slices
    assert {row[2] for row in rows} == {"latency_ms", "fps",
                                        "reliability"}
    for row in rows:
        cost, usage = float(row[4]), float(row[5])
        assert 0.0 <= cost <= 1.0 and 0.0 < usage <= 1.0
