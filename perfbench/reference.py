"""A fixed amount of work, unrelated to the suite, that gauges the machine.

    python3 perfbench/reference.py

Builds, encodes, parses, counts and sorts a set of journal-like records,
the kind of work the suite's replay, server and tools do, without
importing the suite. Its wall time, process start included, changes only
with the speed of the machine at the moment it runs, so the benchmark
runs it throughout a run and expresses its timings in units of it.
"""

import json
import re

RECORDS = 4_000
WORD = re.compile(r"\w+")


def main() -> int:
    rows = [{"seq": i, "type": "shout",
             "data": {"nick": f"user{i % 40:02d}", "created": 1_600_000_000 + i,
                      "msg": f"token{i % 97} word{i % 13} more{i % 31} #tag{i % 7}"}}
            for i in range(RECORDS)]
    text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    parsed = [json.loads(line) for line in text.splitlines()]
    counts: dict[str, int] = {}
    for row in parsed:
        for word in WORD.findall(row["data"]["msg"]):
            counts[word] = counts.get(word, 0) + 1
    parsed.sort(key=lambda row: (row["data"]["nick"], -row["seq"]))
    if len(parsed) != RECORDS or sum(counts.values()) != 4 * RECORDS:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
