"""Server child: the process under test for the ``serve_*`` workloads.

Boots ``repro.serve.GraphService`` as the workload configures it (or the
load generator's echo handler, for ``client.floor_ms``) and then obeys
one-line commands on stdin, answering each with one JSON line on stdout:

``mark``          CPU seconds used so far and peak RSS (the bench reads the
                  server's own clocks, so phases can be delimited exactly)
``trace_on``      install the probe; ``trace_off`` removes it again
``spans PATH``    write the spans recorded so far to ``PATH``
``stop``          drain, shut down, answer a final ``mark`` and exit

End of input counts as ``stop``, so a dead parent never leaves a server
behind.
"""

from __future__ import annotations

import _env  # noqa: F401  (first: puts src/ on sys.path)

import argparse
import json
import resource
import sys
import threading
import time

import loadgen
import probe as probe_mod
import workloads


def _mark() -> dict:
    return {
        "cpu_s": time.process_time(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", help="a serve_* workload name, or 'echo'")
    parser.add_argument("--trace", action="store_true",
                        help="install the probe before the graph is registered")
    parser.add_argument("--echo-bytes", type=int, default=1024)
    args = parser.parse_args(argv)

    probe = probe_mod.Probe()
    if args.trace:
        probe.install()

    if args.workload == "echo":
        httpd = loadgen.echo_server(args.echo_bytes)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        port, stop = httpd.server_address[1], httpd.shutdown
    else:
        service = workloads.SERVED[args.workload].make_service().start()
        port, stop = service.port, service.shutdown
    _reply({"ready": True, "port": port, "missing": probe.missing})

    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "mark":
            _reply(_mark())
        elif command == "trace_on":
            probe.install()
            _reply({"missing": probe.missing})
        elif command == "trace_off":
            probe.uninstall()
            _reply({})
        elif command == "spans":
            spans = probe.drain()
            probe_mod.write_spans(argument, spans)
            _reply({"spans": len(spans)})
        elif command == "stop":
            break
        else:
            _reply({"error": f"unknown command {command!r}"})
    stop()
    _reply(_mark())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
