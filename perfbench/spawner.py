"""Start commands on request from a small process, so their peak RSS is their own.

Linux charges an exec'd child with the high-water RSS of the process
that spawned it, so a child's ru_maxrss from wait4 is only its own when
its parent stays small.  The benchmark's worker holds numpy and large
states; it hands each CLI command to this process, which imports
nothing heavy.

Protocol: one JSON request per stdin line, {"argv", "cwd", "out", "err"};
one JSON reply per stdout line, {"rc", "start", "end", "cpu_s",
"maxrss_mib"}, with start and end read from the benchmark's clock.  The
process ends at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "start": start, "end": end,
                 "cpu_s": usage.ru_utime + usage.ru_stime,
                 "maxrss_mib": usage.ru_maxrss / 1024}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
