"""Run one uavcov CLI invocation untraced, as the console script would.

Usage: python3 child.py STAMP_FILE UAVCOV_ARGV...

The only addition to a plain ``uavcov`` run is one timestamp taken when
``cli.parse_args`` returns (argv resolved) and one when ``cli.main`` returns
(outputs on disk). Both are ``time.perf_counter`` readings, which on Linux is
CLOCK_MONOTONIC and therefore comparable with the parent's spawn time.

The peak RSS is this process's own high-water mark (VmHWM). The parent's
``ru_maxrss`` of the child is not used for it: Linux carries the spawning
process's high-water mark across exec into the child's ``ru_maxrss``, so a
parent larger than the child would be reported instead.
"""

import json
import sys
import time


def main() -> int:
    stamp_path, argv = sys.argv[1], sys.argv[2:]
    from uavcov import cli

    resolve = cli.parse_args
    stamps = {}

    def parse_args(args=None):
        config = resolve(args)
        stamps["resolved"] = time.perf_counter()
        return config

    cli.parse_args = parse_args
    code = cli.main(argv)
    stamps["done"] = time.perf_counter()
    with open("/proc/self/status", encoding="utf-8") as status:
        stamps["vm_hwm_kb"] = next(int(line.split()[1]) for line in status
                                   if line.startswith("VmHWM:"))
    with open(stamp_path, "w", encoding="utf-8") as handle:
        json.dump(stamps, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
