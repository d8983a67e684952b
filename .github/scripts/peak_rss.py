"""Runs a command, passing its output through, and writes its peak RSS
in whole MB to the file named first:

    python3 .github/scripts/peak_rss.py OUT_FILE COMMAND [ARGS...]

The figure is `ru_maxrss` from `os.wait4`, as in perfbench/run.py. The
exit code is the command's.
"""
import os
import subprocess
import sys

proc = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(proc.pid, 0)
with open(sys.argv[1], "w") as out:
    out.write(f"{usage.ru_maxrss // 1024}\n")
sys.exit(os.waitstatus_to_exitcode(status))
