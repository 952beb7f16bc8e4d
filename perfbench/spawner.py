"""Spawner process: starts commands, times them and reads their rusage.

Run with ``python3 -S spawner.py``; reads one JSON request per line on
stdin (``argv``, ``timeout_s``, ``out_dir``) and answers each with one JSON
line (``wall_s``, ``cpu_s``, ``maxrss_kb``, ``returncode``). It imports only
what it needs, so that its own peak RSS, which Linux hands on to every child
it starts, stays below that of any command it runs.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


def _wait_for(argv, timeout_s: float, out_dir: str) -> dict:
    """Spawn ``argv``, wait for it or kill it at ``timeout_s``; its rusage.

    Output goes to files rather than pipes, so a large report never blocks
    the child. The child is left a zombie until the watchdog has been
    disarmed, so a kill can never reach a recycled pid.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(os.path.join(out_dir, "stdout"), "wb") as out, \
            open(os.path.join(out_dir, "stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL
        )

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        watchdog = threading.Timer(max(timeout_s, 0.0), kill)
        watchdog.start()
        wall = None
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            with lock:
                state["exited"] = True
            watchdog.cancel()
            watchdog.join()
            if wall is None:  # interrupted while waiting: do not leave the child behind
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "returncode": None if state["killed"] else proc.returncode,
    }


def serve() -> None:
    """Spawner loop: one JSON request per stdin line, one JSON reply per line."""
    for line in sys.stdin:
        request = json.loads(line)
        reply = _wait_for(request["argv"], request["timeout_s"], request["out_dir"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
