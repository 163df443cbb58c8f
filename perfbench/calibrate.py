"""A fixed piece of pure-Python work that measures how fast the machine runs right now.

    python3 calibrate.py

It imports nothing from circm, so no change to the program under test
can move its time.  Its work is of the kind circm's hot paths do: sparse
row elimination over GF(p) with dicts, and frozensets of small subsets.
It prints the rank and the subset count it found, which never change.
The benchmark starts it after every operation and scales its timings by
how much slower or faster these starts ran than on the reference
machine (see run.py).
"""

import itertools
import json

P = 32003


def eliminate(rows: list[dict[int, int]]) -> int:
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], P - 2, P)
                pivots[col] = {k: v * inv % P for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivot.items():
                x = (row.get(k, 0) - factor * v) % P
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return len(pivots)


def work() -> dict:
    # A linear congruential generator, so the input is the same on every
    # Python version.
    state = 12345
    rows = []
    for _ in range(200):
        row = {}
        for _ in range(5):
            state = (state * 1103515245 + 12345) % 2**31
            col = state % 300
            state = (state * 1103515245 + 12345) % 2**31
            row[col] = 1 + state % (P - 1)
        rows.append(row)
    subsets = {frozenset(s) for s in itertools.combinations(range(18), 4)}
    return {"rank": eliminate(rows), "subsets": len(subsets)}


if __name__ == "__main__":
    print(json.dumps(work()))
