"""Time what a fresh process pays before its first request.

Usage: python3 setup_probe.py SRC_DIR FIELDS_JSON

FIELDS_JSON is a list of ["builtin", family, params] and ["file", path]
entries.  The probe imports ``loewner_basin`` from SRC_DIR (numpy
included, since the package imports it) and constructs each field once
through the public API, admission checks included, then prints the
elapsed seconds.  Interpreter start-up is not counted.
"""

import json
import sys
import time


def main(src: str, fields_json: str) -> None:
    fields = json.loads(fields_json)
    start = time.perf_counter()
    sys.path.insert(0, src)
    import loewner_basin

    for spec in fields:
        if spec[0] == "builtin":
            loewner_basin.builtin_field(spec[1], spec[2])
        else:
            loewner_basin.load_field_file(spec[1])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:3])
