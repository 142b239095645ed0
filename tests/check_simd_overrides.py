#!/usr/bin/env python3
"""ringclu_simd's key=value overrides do not depend on argument order.

Starts the daemon with `warmup=300 cache=<P> backend=tsv instrs=2000`:
a `backend=` after `cache=` must not move the store off <P>, and an
`instrs=` after `warmup=` must not reset the warmup to instrs/10.  Runs
one tiny job (no run block, so the daemon's defaults apply) through
tools/ringclu_client.py and checks that <P> holds its line, keyed with
warmup 300, and that nothing was written to the default store path.
Stops the daemon with `ringclu_client.py shutdown`, which must succeed,
and requires exit status 0.

usage: check_simd_overrides.py <ringclu_simd> <ringclu_client.py> <workdir>
"""

import os
import shutil
import subprocess
import sys
import time


def main() -> int:
    simd, client, work = (os.path.abspath(arg) for arg in sys.argv[1:4])
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    store = os.path.join(work, "custom", "store.tsv")
    port_file = os.path.join(work, "port.txt")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RINGCLU_")}
    daemon = subprocess.Popen(
        [simd, "--port=0", "--journal=", f"--port-file={port_file}",
         "warmup=300", f"cache={store}", "backend=tsv", "instrs=2000",
         "threads=1"],
        cwd=work, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not (os.path.exists(port_file) and
                   os.path.getsize(port_file) > 0):
            if daemon.poll() is not None or time.monotonic() > deadline:
                print("ringclu_simd did not start", file=sys.stderr)
                return 1
            time.sleep(0.05)
        with open(port_file, encoding="utf-8") as f:
            server = f"http://127.0.0.1:{f.read().strip()}"
        subprocess.run([sys.executable, client, "--server", server,
                        "submit", "--config", "Ring_4clus_1bus_2IW",
                        "--benchmark", "gzip", "--wait", "--timeout", "60",
                        "--out", os.path.join(work, "result.json")],
                       check=True, env=env, timeout=90,
                       stdout=subprocess.DEVNULL)
        # POST /v1/shutdown: the reply must arrive although the daemon
        # stops its HTTP server as soon as the drain completes.
        subprocess.run([sys.executable, client, "--server", server,
                        "shutdown"],
                       check=True, env=env, timeout=60,
                       stdout=subprocess.DEVNULL)
        status = daemon.wait(timeout=60)
        if status != 0:
            print(f"ringclu_simd exited with status {status}",
                  file=sys.stderr)
            return 1
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    if not os.path.exists(store):
        print(f"no store at {store}", file=sys.stderr)
        return 1
    with open(store, encoding="utf-8") as f:
        lines = f.read().splitlines()
    want = "Ring_4clus_1bus_2IW|gzip|2000|300|"
    if len(lines) != 1 or not lines[0].startswith(want):
        print(f"store {store} should hold one '{want}...' line, holds:",
              file=sys.stderr)
        print("\n".join(lines), file=sys.stderr)
        return 1
    if os.path.exists(os.path.join(work, "bench_cache")):
        print("the default store path was written", file=sys.stderr)
        return 1
    print(f"ok: {store} holds {lines[0].split(chr(9))[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
