"""Arithmetic and schema shared by run.py, summarize.py and spread.py.

Kept free of I/O so test_benchstats.py can check every function directly.
"""
import json
import math
import statistics


def percentile(values, p):
    """Nearest-rank percentile of `values`.

    Returns (value, count, beyond): the smallest value with at least p% of
    the samples at or below it, the sample count, and how many samples lie
    above that rank. A percentile is supported when beyond >= 10. An empty
    sample gives (0.0, 0, 0).
    """
    n = len(values)
    if n == 0:
        return 0.0, 0, 0
    rank = min(max(math.ceil(p / 100.0 * n), 1), n)
    return float(sorted(values)[rank - 1]), n, n - rank


def ratio(numerator, base):
    """A ratio kept with its numerator and base; 0 when the base is 0."""
    value = numerator / base if base else 0.0
    return {"value": value, "numerator": numerator, "base": base}


def quartile_spread(values):
    """(q3 - q1) / median, with quartiles from statistics.quantiles(n=4).

    This is how run-to-run steadiness is judged against a metric's bound.
    Needs at least two values; a zero median gives inf unless q1 == q3.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def load_spec(path):
    """Reads BENCHMARK.json and checks the fields this benchmark relies on."""
    with open(path) as f:
        spec = json.load(f)
    names = set()
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            if metric["name"] in names:
                raise ValueError("metric %s declared twice" % metric["name"])
            names.add(metric["name"])
            if metric["better"] not in ("higher", "lower"):
                raise ValueError("bad 'better' for %s" % metric["name"])
    return spec


def result_line(correct, attempted, failed, values, declared):
    """The last stdout line: exactly the declared metrics, with units.

    `values` maps metric name to a number; `declared` is the list of
    {"name", "unit", ...} entries from BENCHMARK.json for this mode. Raises
    ValueError when a declared metric is missing or an undeclared one is
    present, or when the counts are malformed.
    """
    want = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(want) - set(values))
    extra = sorted(set(values) - set(want))
    if missing or extra:
        raise ValueError("metrics mismatch: missing %s, undeclared %s"
                         % (missing, extra))
    if not isinstance(attempted, int) or attempted < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(failed, int) or failed < 0:
        raise ValueError("failed must be a whole number >= 0")
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number" % name)
    metrics = {name: {"value": values[name], "unit": want[name]}
               for name in sorted(want)}
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": metrics})
