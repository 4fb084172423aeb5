"""Set-up probe: probe.py FIELD...

Imports circint and parses each field spec, then prints one JSON line with
the import time in ms. The caller times the probe from its own start, so
the measured set-up includes interpreter start-up.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import circint

    imported = time.perf_counter()
    for spec in sys.argv[1:]:
        circint.parse_field(spec)
    print(json.dumps({"import_ms": (imported - start) * 1000, "file": circint.__file__}), flush=True)
