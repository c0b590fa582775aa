"""Compare two benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both runs with the relative change.  Runs whose
fingerprints differ (other inputs, seed, Python, rational backend or
core count) or that differ in tracing are not comparable: the script
then names the differences, prints no change and exits with code 1.
"""

from __future__ import annotations

import json
import sys


def fingerprint_differences(base: dict, new: dict) -> list:
    out = []
    fa, fb = base["fingerprint"], new["fingerprint"]
    for key in sorted(set(fa) | set(fb)):
        if fa.get(key) != fb.get(key):
            out.append(f"{key}: {fa.get(key)} vs {fb.get(key)}")
    if base.get("trace") != new.get("trace"):
        out.append(f"trace: {base.get('trace')} vs {new.get('trace')}")
    return out


def compare(base: dict, new: dict) -> list:
    """Report lines; the first says whether the runs are comparable."""
    differences = fingerprint_differences(base, new)
    if differences:
        return ["not comparable, fingerprints differ:"] + [
            f"  {d}" for d in differences]
    lines = ["comparable: same fingerprint"]
    metrics_a, metrics_b = base["all_metrics"], new["all_metrics"]
    for name in metrics_a:
        if name not in metrics_b:
            continue
        a, b = metrics_a[name]["value"], metrics_b[name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        lines.append(f"{name:<32} {a:>14.6g} {b:>14.6g} "
                     f"{metrics_a[name]['unit']:<10} {change}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as fa, \
            open(args[1], encoding="utf-8") as fb:
        base, new = json.load(fa), json.load(fb)
    lines = compare(base, new)
    print("\n".join(lines))
    return 0 if lines[0].startswith("comparable") else 1


if __name__ == "__main__":
    sys.exit(main())
