"""The two fast example scripts run, and still show what they claim.

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


def _section(out: str, title: str) -> str:
    """The lines under the ``== title ... ==`` heading."""
    match = re.search(rf"== {re.escape(title)}[^\n]*==\n(.*?)(?:\n\n|\Z)",
                      out, flags=re.S)
    assert match, f"no section {title!r} in:\n{out}"
    return match.group(1)


def test_domain_managers_api_example(capsys):
    out = _run_main("domain_managers_api", capsys)
    managers = ("RDM", "TDM", "CDM", "EDM")

    created = _section(out, "Create the slice in every domain")
    configured = _section(out, "Configure resources")
    for block in (created, configured):
        assert [line.split(":")[0].strip()
                for line in block.splitlines()] == list(managers)
        assert block.count("HTTP 200") == 4
    assert "'pool': ['spgwu-urllc-0', 'spgwu-urllc-1']" in created

    attach = _section(out, "Attach a subscriber")
    assert "HTTP 200" in attach and "'slice': 'urllc'" in attach
    assert "'spgwu': 'spgwu-urllc-" in attach

    # one what-if path feeds the whole block: every domain's number,
    # and the application metric they add up to
    measured = _section(out, "Measurements")
    numbers = [float(x) for x in re.findall(r"\d+\.\d+(?:e-?\d+)?",
                                            measured)]
    assert len(numbers) >= 7 and all(n >= 0.0 for n in numbers)
    for token in ("RAN capacity", "TN ", "CN ", "EN ", "reliability",
                  "cost"):
        assert token in measured
    assert "inf" not in measured and "nan" not in measured

    overcommit = _section(out, "Capacity is enforced")
    assert "HTTP 409" in overcommit and "over-committed" in overcommit


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
