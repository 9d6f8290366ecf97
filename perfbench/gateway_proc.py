"""Run one gateway for the benchmark in its own process.

Usage: ``python perfbench/gateway_proc.py '<json config>'``.  The config
names the workload shape (fixed-point format, model size), the seed
the model is drawn from, and whether the run is traced.  The gateway
serves with CloudServer's and the serving layer's defaults.  The process prints ``READY <port>`` once the gateway
listens on 127.0.0.1, then answers one JSON line per command read from
stdin:

* ``stats``     — serving counters, pool level, garbling path, VmHWM
* ``trace on``  — start recording spans (traced runs only)
* ``trace off`` — stop recording; spans stay in memory
* ``stop``      — stop the gateway, write the spans, reply, and exit

End of stdin counts as ``stop``, so the gateway never outlives the
benchmark process that started it.
"""

from __future__ import annotations

import json
import sys

import shared


def _stats(server) -> dict:
    s = server.stats
    return {
        "requests_served": s.requests_served,
        "runs_garbled": s.runs_garbled,
        "pool_hits": s.pool_hits,
        "pool_misses": s.pool_misses,
        "he_queries": s.he_queries,
        "pool_level": server.pool_level,
        "garble_mode": server.garble_mode,
        "rounds": server.rounds_per_request,
        "sim_total_cycles": server.accelerator.schedule(
            server.rounds_per_request).total_cycles,
        "peak_rss_mb": shared.peak_rss_mb(),
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    shared.use_source_tree()
    import spans

    recorder = None
    if cfg["trace"]:
        recorder = spans.Recorder("server")
        spans.capture_server_sessions(recorder)

    from repro.host import CloudServer
    from repro.net import GCGateway

    fmt = shared.fixed_format(cfg["fmt"])
    model = shared.make_model(cfg["seed"], fmt, cfg["rows"], cfg["cols"])
    server = CloudServer(model, fmt, seed=cfg["seed"])
    gateway = GCGateway(server)
    gateway.start()
    print("READY", gateway.address[1], flush=True)
    try:
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "stop":
                break
            if cmd == "stats":
                reply = _stats(server)
            elif cmd == "trace on" and recorder is not None:
                spans.instrument_server(recorder)
                reply = {"ok": True}
            elif cmd == "trace off" and recorder is not None:
                recorder.stop()
                reply = {"ok": True}
            else:
                reply = {"error": f"unknown command {cmd!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        gateway.stop()
    final = _stats(server)
    if recorder is not None:
        recorder.stop()
        with open(cfg["trace_out"], "w") as fh:
            json.dump(recorder.dump(), fh)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
