"""Run one benchmark operation in this fresh interpreter.

    python3 child.py SRC SIDE_FILE TRACE cli ARG...
    python3 child.py SRC SIDE_FILE TRACE betti N SET FIELD
    python3 child.py SRC SIDE_FILE 0 setup          (start-up only)

SRC is the ``src`` directory of the checkout under test.  The answer
goes to standard output, line-buffered as on a terminal, so the parent
sees each line when the program prints it.  SIDE_FILE receives the
moments ``import circm`` completed and the operation ended and, when
TRACE is 1, the spans and the ``faces`` cache statistics.
"""

import json
import os
import sys
import traceback
from time import perf_counter

src, side_file, trace, kind, args = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4], sys.argv[5:]
sys.path.insert(0, src)
import circm  # noqa: E402
import circm.cli  # noqa: E402

import_done = perf_counter()
if not os.path.abspath(circm.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"imported circm from {circm.__file__}, not from {src}")
faces = circm.complexes.faces
tracer = None
if trace:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
sys.stdout.reconfigure(line_buffering=True)

rc = 0
try:
    if kind == "cli":
        rc = circm.cli.main(args)
    elif kind == "betti":
        n, s, field = args
        g = circm.circulant(int(n), [int(x) for x in s.split(",")])
        betti = circm.reduced_betti(circm.independence_complex(g), circm.FieldChoice.parse(field))
        print(json.dumps({"betti": betti.as_dict()}))
except SystemExit as exc:
    rc = exc.code if isinstance(exc.code, int) else 1
except Exception:  # reported through the exit code, as the console script does
    traceback.print_exc()
    rc = 1
op_end = perf_counter()

side = {"import_done": import_done, "op_end": op_end}
if tracer is not None:
    side["trace"] = tracer.dump()
    side["faces_cache"] = faces.cache_info()._asdict()
with open(side_file, "w") as fh:
    json.dump(side, fh)
sys.stdout.flush()
sys.exit(rc)
