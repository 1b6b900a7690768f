"""Fresh-interpreter probes; each process gives one sample as a JSON line.

    python3 probe.py setup SRC SCENARIO_JSON MODULE...
        time to import the modules and load (and so validate) the scenario
    python3 probe.py read_kpi SRC KPI_CSV
        peak resident-memory growth while ``read_kpi_csv`` parses the file,
        sampled every POLL_S by a second thread (tracemalloc would slow
        this allocation-heavy call several-fold)
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

POLL_S = 0.002


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main(mode, src, path, *modules):
    sys.path.insert(0, src)
    if mode == "setup":
        for name in modules:
            __import__(name)        # the import statement's path, which -X importtime times
        t1 = time.perf_counter()
        sys.modules["rfplan"].load_scenario(path)
        t2 = time.perf_counter()
        return {"import_s": t1 - T0, "load_s": t2 - t1, "setup_s": t2 - T0}
    if mode == "read_kpi":
        from rfplan.twin import read_kpi_csv
        before = peak = rss_bytes()
        done = threading.Event()

        def poll():
            nonlocal peak
            while not done.wait(POLL_S):
                peak = max(peak, rss_bytes())

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            read_kpi_csv(path)
        finally:
            done.set()
            poller.join()
        return {"peak_mb": (max(peak, rss_bytes()) - before) / 2 ** 20}
    raise SystemExit(f"unknown probe {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:])))
