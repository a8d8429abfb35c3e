"""Run ``gml.cli`` the way ``python -m gml.cli`` does, then record peak memory.

Usage: python3 benchmarks/cli_child.py HWM_FILE [gml arguments ...]

On Linux a child's ``ru_maxrss`` also counts the resident size of the
process that spawned it, so the benchmark cannot take a ``gml`` process's
peak memory from ``wait4``.  This wrapper runs the command and then writes
the process's own high-water mark (``VmHWM``, in kB) to HWM_FILE.  The
exit code is the command's.
"""

import runpy
import sys


def vmhwm_kb() -> int:
    """Peak resident set size of this process image, in kB."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def main() -> None:
    hwm_path = sys.argv.pop(1)
    try:
        runpy.run_module("gml.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(hwm_path, "w") as out:
            out.write(str(vmhwm_kb()))


if __name__ == "__main__":
    main()
