"""Print each metric's median and spread over recorded benchmark runs.

Each input file holds one JSON object per line with the run's "result"
line. The spread is the distance between the first and third quartile,
as statistics.quantiles(values, n=4) gives them, over the median.

    python3 perfbench/proof/spread.py perfbench/proof/*.jsonl
"""
import json
import statistics
import sys

for path in sys.argv[1:]:
    with open(path) as f:
        runs = [json.loads(line) for line in f if line.strip()]
    results = [r["result"] for r in runs if r.get("result")]
    print(f"{path}: {len(results)} runs, exits {[r['exit'] for r in runs]}, "
          f"all correct: {all(r['correct'] for r in results)}")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:16s} median {med:12.4f}  spread {(q3 - q1) / med:.3f}")
