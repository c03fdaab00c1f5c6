"""Every metric the benchmark reports, with the map later changes cite.

Each workload's "why" says which layers it loads and which it leaves
idle.  Each per-layer metric names the end-to-end metric it should move
and the workload it should move it on; a change that claims a gain cites
these by name.  BENCHMARK.json repeats the names, units, directions and
bounds; `python3 perfbench/metrics.py` checks that the two agree.

Host quantities come from the run's own process.  Simulated quantities
are exact functions of (workload, seed): every run of one seed must read
the same, traced or untraced, and the run's digest covers all of them.
"""

import json
import os
import sys

WORKLOADS = [
    ("campus-roam",
     "E16's 256-campus flat-MHRP world: build, routes, fast-path forwarding,"
     " tunnels and cache reads; few timers and a small queue, so engine-queue"
     " changes should not move it"),
    ("socket-slo",
     "E21 at 8 regions x 24 mobiles with a crashed foreign agent: RPC, chat"
     " and bulk over Transport.Socket; transport and RTO timer churn dominate,"
     " set-up is trivial"),
    ("softstate-churn",
     "1,440 mobiles on random waypoints under soft-state hierarchical MHRP:"
     " the most pending periodic timers, Regional and HA table writes, the"
     " biggest heap; surfaces the ARP-retry defect"),
    ("lsr-flap",
     "64 campuses routed by Lsr.Domain through a cold start, a LAN flap and a"
     " router crash: the only workload running lsr, SPF and flooding"
     " dominate, MHRP absent"),
]

# name, unit, better, bound, definition
END_TO_END = [
    ("wall_s", "s", "lower", 0.24,
     "host wall-clock for one run, from set-up to the simulated horizon;"
     " median over the runs of the process"),
    ("setup_s", "s", "lower", 0.25,
     "host seconds until the world is ready to run: generator, routes,"
     " agents, stacks, apps, fault and mobility schedules"),
    ("sim_s", "s", "lower", 0.24,
     "host seconds inside Topology.run up to the horizon"),
    ("cpu_s", "s", "lower", 0.24,
     "process user+sys seconds at the horizon (Unix.times)"),
    ("events_per_s", "1/s", "higher", 0.24,
     "Engine.events_processed over sim_s"),
    ("alloc_words_per_event", "words", "lower", 0.05,
     "words allocated while simulating (Obs.Alloc.measure), per event"),
    ("peak_heap_mb", "MB", "lower", 0.10,
     "Gc top_heap_words x 8 / 1e6 at the horizon"),
    ("ops_failed_share", "ratio", "lower", 0.20,
     "simulated operations that did not complete, over ops_attempted"),
    ("sim_latency_p50_ms", "ms", "lower", 0.10,
     "median simulated completion latency of the completed operations,"
     " from each operation's intended start"),
    ("sim_latency_p99_ms", "ms", "lower", 0.10,
     "99th-percentile simulated completion latency, as p50"),
]

# name, unit, better, moves (end-to-end metric), on (workload), definition
PER_LAYER = [
    # netsim (Engine, Event_queue)
    ("netsim.events", "count", "lower", "events_per_s,sim_s", "all",
     "Engine.events_processed; identical under any pure-performance change"),
    ("netsim.pending_max", "count", "lower", "sim_s", "softstate-churn",
     "largest Engine.pending at the end of a simulated second"),
    ("netsim.pending_end", "count", "lower", "peak_heap_mb", "softstate-churn",
     "Engine.pending at the horizon"),
    ("netsim.slice_s_max", "s", "lower", "wall_s", "all",
     "host seconds of the slowest one-second Topology.run slice"),
    ("netsim.run_exceptions", "count", "lower", "ops_failed_share",
     "softstate-churn",
     "exceptions raised out of Engine.run and resumed past"),
    # workload (Topo_gen, Mobility, Apps)
    ("workload.build_s", "s", "lower", "setup_s", "campus-roam,lsr-flap",
     "host seconds in the Topo_gen call"),
    ("workload.moves", "count", "higher", "ops_failed_share", "all",
     "moves executed (Mobile_host.moves summed)"),
    # net (Topology, Routing, Node, Lan)
    ("net.routes_s", "s", "lower", "setup_s", "campus-roam",
     "host seconds of Topology.compute_routes on a second copy of the world"),
    ("net.registration_ops", "count", "lower", "setup_s", "campus-roam",
     "Topology.registration_ops"),
    ("net.frames", "count", "lower", "sim_s", "all", "Topology.total_frames"),
    ("net.bytes", "count", "lower", "sim_s", "all", "Topology.total_bytes"),
    ("net.forwarded", "count", "lower", "events_per_s", "campus-roam",
     "Node.packets_forwarded summed"),
    ("net.fast_path_share", "ratio", "higher",
     "events_per_s,alloc_words_per_event", "campus-roam",
     "packets_fast_forwarded over packets_forwarded; where ipv4's Packet.View"
     " and Buffer_pool show"),
    ("net.drops", "count", "lower", "ops_failed_share", "all",
     "Node.packets_dropped summed"),
    # mhrp (Agent, Location_cache, Home_agent, Regional)
    ("mhrp.ctrl_msgs", "count", "lower", "sim_s", "softstate-churn",
     "Counters.control_messages summed"),
    ("mhrp.ctrl_per_move", "ratio", "lower", "sim_s", "softstate-churn",
     "mhrp.ctrl_msgs over workload.moves"),
    ("mhrp.tunnels", "count", "lower", "events_per_s", "campus-roam",
     "tunnels_built + retunnels + regional_retunnels + regional_forwards"),
    ("mhrp.cache_hit_share", "ratio", "higher", "sim_latency_p99_ms",
     "campus-roam", "Location_cache hits over lookups"),
    ("mhrp.regional_regs", "count", "lower", "sim_s", "softstate-churn",
     "Regional.registrations summed"),
    ("mhrp.regional_refreshes", "count", "lower", "sim_s", "softstate-churn",
     "Regional.refreshes summed"),
    ("mhrp.ctrl_rtx", "count", "lower", "ops_failed_share",
     "socket-slo,softstate-churn",
     "reg + connect + sync + region retransmissions"),
    ("mhrp.gave_up", "count", "lower", "ops_failed_share",
     "socket-slo,softstate-churn", "retransmit_gave_up: abandoned exchanges"),
    ("mhrp.state_bytes", "bytes", "lower", "peak_heap_mb", "softstate-churn",
     "state_bytes of every HA, FA, cache and Regional table"),
    # transport (Stack, Socket)
    ("transport.segs", "count", "lower", "sim_s", "socket-slo",
     "segs_sent summed over stacks"),
    ("transport.rtx_share", "ratio", "lower", "sim_latency_p99_ms",
     "socket-slo", "retransmissions over data_segs_sent: the waste ratio"),
    ("transport.dups", "count", "lower", "ops_failed_share", "socket-slo",
     "duplicate data segments"),
    ("transport.ooo", "count", "lower", "ops_failed_share", "socket-slo",
     "out-of-order data segments"),
    ("transport.conns_failed", "count", "lower", "ops_failed_share",
     "socket-slo", "connections given up"),
    # lsr (Router, Domain)
    ("lsr.spf_runs", "count", "lower", "sim_s,events_per_s", "lsr-flap",
     "SPF runs, all routers"),
    ("lsr.routes_installed", "count", "lower", "sim_s,events_per_s",
     "lsr-flap", "route entries written by SPF"),
    ("lsr.lsas_sent", "count", "lower", "sim_s,events_per_s", "lsr-flap",
     "LSA transmissions"),
    ("lsr.hellos_sent", "count", "lower", "sim_s,events_per_s", "lsr-flap",
     "hello transmissions"),
    ("lsr.flood_suppressed_share", "ratio", "higher", "sim_s", "lsr-flap",
     "floods_suppressed over lsas_received"),
    ("lsr.reconverge_ms", "ms", "lower", "sim_latency_p99_ms", "lsr-flap",
     "simulated ms from the later heal until Domain.synchronized, the slower"
     " of the two faults"),
    # fault (Injector, Invariant)
    ("fault.events", "count", "lower", "ops_failed_share", "socket-slo",
     "Injector.events"),
    ("fault.control_losses", "count", "lower", "ops_failed_share",
     "socket-slo", "Injector.control_losses"),
    ("fault.invariant_drops", "count", "lower", "ops_failed_share",
     "socket-slo", "Invariant.drops: every drop, any reason"),
    ("fault.ttl_expired", "count", "lower", "ops_failed_share", "socket-slo",
     "Invariant.ttl_expired: forwarding loops; must stay 0"),
    # the benchmark's own tracing
    ("trace.overhead_s", "s", "lower", "wall_s", "all",
     "median traced wall_s minus median untraced wall_s, same process"),
]

# Per-layer metrics measured on the host, from the traced runs; every
# other per-layer metric is a simulated count or ratio.
HOST_LAYER = {"netsim.slice_s_max", "workload.build_s", "net.routes_s",
              "trace.overhead_s"}


def check(path):
    """Errors between BENCHMARK.json and the tables above."""
    with open(path) as f:
        b = json.load(f)
    errs = []
    if [w["name"] for w in b["workloads"]] != [w[0] for w in WORKLOADS]:
        errs.append("workload names differ")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in b[key]]
        want = [(m[0], m[1], m[2]) for m in table]
        if got != want:
            errs.append(key + " differs")
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    for name, _, _, bound, _ in END_TO_END:
        if bounds.get(name) != bound:
            errs.append("bound of " + name + " differs")
    return errs


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    errors = check(os.path.join(root, "BENCHMARK.json"))
    for e in errors:
        print(e, file=sys.stderr)
    sys.exit(1 if errors else 0)
