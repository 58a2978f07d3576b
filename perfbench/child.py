"""Fresh-interpreter launcher, the way a shell user meets ``dyck4d``.

    python3 perfbench/child.py SIDE_FILE TRACE WARM [CLI_ARG ...]

Imports ``dyck4d.cli`` from the checkout's ``src``.  TRACE ``1`` wraps the
package's functions (see tracer.py).  WARM is ``-`` or comma-separated
half-lengths whose counting state is built through the public calls.  With
CLI arguments it runs ``cli.main`` on them and exits with its code.  Import
time, memory and spans go to SIDE_FILE as JSON, so standard output and
error carry only the program's own output.
"""

import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def rss_mb() -> float:
    """Resident set size now, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def warm_tables(half_lengths) -> None:
    """Build whatever count, rank, unrank and sample keep per n, through the public calls."""
    from dyck4d import enumeration, lattice

    for n in half_lengths:
        lattice.count_paths_through((0, 0, 0, 0), n)
        enumeration.rank(enumeration.unrank(0, n))
        enumeration.sample_uniform(n, 0)


def main() -> int:
    side, trace, warm, *argv = sys.argv[1:]
    sys.path.insert(0, SRC)
    rss_base = rss_mb()
    start = time.perf_counter()
    from dyck4d import cli
    import_s = time.perf_counter() - start
    info = {"import_s": import_s, "rss_base_mb": rss_base}
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if warm != "-":
        warm_tables(int(n) for n in warm.split(","))
    code = 0
    if argv:
        if tracer is not None:
            tracer.request = 0
        code = cli.main(argv)
        sys.stdout.flush()
    info.update(code=code, rss_end_mb=rss_mb(), peak_rss_mb=peak_rss_mb())
    if tracer is not None:
        tracer.uninstall()
        info.update(spans=tracer.spans, count_requests=len(tracer.count_requests),
                    new_n_requests=len(tracer.new_n_requests))
    import json  # after the timed import, which must load json itself as a user's would

    with open(side, "w", encoding="utf-8") as handle:
        json.dump(info, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
