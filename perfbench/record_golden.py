"""Rewrite golden.json from the code as it stands: the sha256 and size of the
trace of every (bundled scenario, selector), and verify's budget-check count
per scenario.  Run only after a deliberate trace change, from the repository
root:

    PYTHONPATH=src python3 perfbench/record_golden.py
"""

from __future__ import annotations

import hashlib
import json

import cantorlab.cli as cli

from workload import GOLDEN, ROOT, SCENARIOS, invoke


def main() -> None:
    golden = {}
    work = ROOT / ".perfbench-work" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    for scenario in sorted(p.stem for p in SCENARIOS.glob("*.json")):
        path = str(SCENARIOS / f"{scenario}.json")
        entry: dict = {"traces": {}}
        for c in cli.CATALOG:
            trace = work / f"{c.name}.jsonl"
            code, _, _ = invoke(cli.main, ["run", "--scenario", path,
                                           "--select", c.name, "--trace", str(trace)])
            if code != 0:
                raise SystemExit(f"{scenario} {c.name}: run exited {code}")
            data = trace.read_bytes()
            entry["traces"][c.name] = {"sha256": hashlib.sha256(data).hexdigest(),
                                       "bytes": len(data)}
            code, _, out = invoke(cli.main, ["verify", "--trace", str(trace), "--quiet"])
            report = json.loads(out.strip().splitlines()[-1])
            if code != 0 or not report["deterministic"]:
                raise SystemExit(f"{scenario} {c.name}: verify failed: {report}")
            entry["budget_checks"] = report["budget_checks"]
            trace.unlink()
        golden[scenario] = entry
    work.rmdir()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
