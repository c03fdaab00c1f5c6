(** Computation of the "standard internetwork routing" substrate.

    The paper assumes ordinary IP routing delivers packets to a host's
    network; MHRP rides on top.  We provide that substrate with a global
    shortest-path computation, filling every node's routing table with one
    entry per reachable network prefix.  Each source runs one BFS over the
    bipartite node/LAN graph with transit through routers only; a LAN is
    scanned once per BFS, so a source costs O(N + ΣM) for N nodes and LAN
    sizes M.  Non-routers with identical (interface, LAN) attachments get
    one physically shared table — safe because tables are persistent:
    changing one node's routes replaces its value and leaves the others'.

    Host-specific (/32) routes installed later by protocol code survive
    only until the next [compute]; recompute before protocol setup.

    This computation is an {b oracle}: it reads the whole topology in one
    pass and installs every table instantaneously at the current simulated
    time, with no packets exchanged, no convergence delay and no
    control-byte cost.  It is the right substrate for experiments that
    assume routing "just works" underneath the mobility protocols — but it
    cannot exhibit reconvergence behaviour.  The {!Lsr} library provides
    the contrasting in-simulation distributed protocol; {!recompute_count}
    exists so experiments can report the oracle's work honestly alongside
    LSR's per-router SPF counts. *)

type graph
(** A snapshot of nodes, their interfaces and LAN memberships, plus the
    BFS scratch state.  Building it is O(N·I) for I interfaces per node,
    plus sorting the nodes and LANs by name; reuse one graph across
    queries instead of rebuilding per call.  A graph goes stale when
    topology changes (attach/detach, LANs going up or down) — rebuild it
    then. *)

val build : nodes:Node.t list -> lans:Lan.t list -> graph
(** Snapshot [nodes] and their attachments; only the [lans] that are up
    now carry transit.  The LAN list may contain repeats; they count once
    for transit, while for {!compute_graph} a LAN listed again counts at
    its last position. *)

val compute : nodes:Node.t list -> lans:Lan.t list -> unit
(** Replace every node's routing table.  Nodes attached to a LAN get a
    [Direct] entry; others get [Via] the first-hop router toward the
    nearest router attached to that LAN.  Unreachable prefixes get no
    entry.  Deterministic: among equally near routers on a LAN the
    smallest node name wins; nodes reached by one expansion are queued in
    name order; and a first hop's gateway address is the one it has on
    the smallest-named LAN it shares with the source.  Several LANs with
    one prefix yield one entry, from the last listed LAN that produces
    it.  Equivalent to [compute_graph (build ~nodes ~lans)]. *)

val compute_graph : graph -> unit
(** [compute] on an already-built graph. *)

val path_length : nodes:Node.t list -> src:Node.t -> dst_lan:Lan.t -> int option
(** Number of LAN hops from [src] to the nearest router attached to
    [dst_lan] (plus one for final LAN delivery when [src] is not attached),
    computed on the same graph as [compute] — used by experiments to
    report ideal path lengths.  Builds a throwaway graph per call; batch
    queries should go through {!graph_of_nodes} and {!path_length_graph}. *)

val graph_of_nodes : Node.t list -> graph
(** The graph over every LAN any of [nodes] is attached to — the graph
    {!path_length} builds internally, exposed so repeated path queries can
    share one build. *)

val path_length_graph : graph -> src:Node.t -> dst_lan:Lan.t -> int option
(** {!path_length} against a prebuilt graph. *)

val path_lengths_graph :
  graph -> src:Node.t -> dst_lans:Lan.t list -> int option list
(** {!path_length_graph} for each of [dst_lans], in order, from a single
    BFS — a source checked against every network pays for one search. *)

val recompute_count : unit -> int
(** Number of global full-table computations ({!compute} /
    {!compute_graph}) performed so far, process-wide and monotone.  Each
    one is a complete omniscient rebuild of every node's table — the
    oracle's unit of SPF work, comparable against [Lsr]'s per-router
    [spf_runs] counter.  Thread-safe; under a parallel sweep, read it
    before and after the whole sweep (the delta is deterministic), not
    from inside concurrent trials. *)
