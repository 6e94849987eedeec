"""Fresh-process child of the benchmark: set-up time and peak memory.

Usage: python3 bench/child.py MODEL.yaml:WIDTH:TARGET ...

Imports the program (found through PYTHONPATH), loads, validates and
canonically reorders every model, prints ``ready``, then synthesises both
controllers for every model and prints its peak resident set in KiB.  The
parent times start to ``ready`` as set-up; the memory is this process's
alone, so the benchmark's own memory is not counted.
"""

import sys


def main() -> int:
    import belief_opacity as bo

    from pipeline import load, synthesize

    specs = [arg.rsplit(":", 2) for arg in sys.argv[1:]]
    models = [load(bo, path) for path, _, _ in specs]
    print("ready", flush=True)

    for m, (_, width, target) in zip(models, specs):
        synthesize(bo, m, float(width), target)
    # VmHWM belongs to this process image alone; ru_maxrss would carry over
    # the parent's peak through fork and exec.
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    print(hwm, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
