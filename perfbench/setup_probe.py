"""Set-up cost in a fresh process: import the package, load specs, build the parser.

Run from the repository root with the fixture names as arguments; prints the
elapsed seconds.  Interpreter start-up happens before the clock starts.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, "src")

from mrootfinsler import cli  # noqa: E402
from mrootfinsler.specfile import load_spec  # noqa: E402

for fixture in sys.argv[1:]:
    load_spec(f"fixtures/{fixture}.json")
cli.build_parser()
print(repr(time.perf_counter() - start))
