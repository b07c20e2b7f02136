"""Child process of the ``cluster-mixed`` workload.

``python cluster_host.py URL_FILE CACHE_DIR`` starts
``Cluster(ClusterConfig(shards=2, worker_mode="process"))`` over a
shared cache tier, writes the router URL to URL_FILE once it listens,
and runs until SIGTERM, when it stops the cluster gracefully.
"""

import os
import signal
import sys
import threading


def main() -> int:
    url_file, cache_dir = sys.argv[1], sys.argv[2]
    from repro.cluster import Cluster, ClusterConfig

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stop.set())
    cluster = Cluster(ClusterConfig(shards=2, worker_mode="process",
                                    cache_dir=cache_dir))
    cluster.start()
    try:
        tmp = f"{url_file}.tmp"
        with open(tmp, "w") as fh:
            fh.write(cluster.url)
        os.replace(tmp, url_file)
        while not stop.wait(0.2):
            pass
    finally:
        clean = cluster.stop()
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
