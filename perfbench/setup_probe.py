"""Set-up of one workload: import qkig and warm the caches it reads.

Run as a script it times that set-up in a fresh interpreter and prints the
seconds, then the seconds the host speed reference takes in the same
interpreter right after (``hostspeed``); ``setup_s`` is the median of the
set-up times scaled to the nominal host:

    python3 perfbench/setup_probe.py <workload> <path of src>

Nothing but the standard library is imported before the clock starts.
"""

import importlib
import sys
import time

# workload -> (module the workload calls, n values whose basis it reads,
#              n values whose chi zeta matrices it reads)
NEEDS = {
    "verify-algebra": ("qkig.verify", range(2, 7), range(2, 7)),
    "verify-geometry": ("qkig.oracle", (), ()),
    "operator-words": ("qkig.ring", (), ()),
    "cli-queries": ("qkig.cli", range(2, 17), ()),
}


def warm(workload):
    module, basis_ns, chi_ns = NEEDS[workload]
    importlib.import_module(module)
    from qkig import basis_list, ideal_to_schubert
    for n in basis_ns:
        basis_list(n)
    for n in chi_ns:
        ideal_to_schubert(n)


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    warm(sys.argv[1])
    setup = time.perf_counter() - t0
    # imported after the clock stops, so set-up does not count its imports
    import hostspeed
    ref = sorted(hostspeed.time_reference() for _ in range(3))[1]
    print(repr(setup), repr(ref))
