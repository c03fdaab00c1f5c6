(* One measured run of one benchmark world, in its own process.

     bench.exe --workload NAME --seed N [--trace 0|1] [--size full|tiny]
               [--spans FILE]

   Builds the world (timed as set-up), runs it to its simulated horizon
   (timed as simulation), reads every layer's public counters, checks the
   simulated outputs and prints one JSON object on stdout.  With
   [--trace 1] the run also records host-time spans around each call into
   a layer — the generator, apps, faults, mobility, and one
   [Topology.run] per simulated second carrying that slice's counter
   deltas — and times [Topology.compute_routes] on a second copy of the
   world; spans go to [--spans] when the run ends.  perfbench/run.py
   repeats this process and aggregates; metrics.py defines each field. *)

module Time = Netsim.Time
module Engine = Netsim.Engine
module Topology = Net.Topology
module Agent = Mhrp.Agent
module C = Mhrp.Counters

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

type args = {
  workload : string;
  seed : int;
  trace : bool;
  size : Worlds.size;
  spans_path : string option;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 in
  let size = ref "full" and spans = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME world to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Set_int trace, "0|1 record spans");
      ("--size", Arg.Set_string size, "full|tiny world size");
      ("--spans", Arg.Set_string spans, "FILE span output (with --trace 1)") ]
    (fun a -> die "unexpected argument %s" a)
    "bench.exe --workload NAME --seed N [--trace 0|1] [--size full|tiny]";
  let size =
    match !size with
    | "full" -> Worlds.Full
    | "tiny" -> Worlds.Tiny
    | s -> die "unknown size %s" s
  in
  if not (List.exists (fun w -> w.Worlds.name = !workload) Worlds.all) then
    die "unknown workload %S" !workload;
  { workload = !workload; seed = !seed; trace = !trace = 1; size;
    spans_path = (if !spans = "" then None else Some !spans) }

(* --- reading the layers' public counters --------------------------- *)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let or_zero f = function Some x -> f x | None -> 0

(* Simulated quantities: every one is a deterministic function of the
   world and seed.  Integers are exact; ratios are derived from them. *)
let layer_counts (w : Worlds.world) ~run_exceptions =
  let eng = Topology.engine w.topo in
  let nodes = Topology.nodes w.topo in
  let forwarded = sum Net.Node.packets_forwarded nodes in
  let fast = sum Net.Node.packets_fast_forwarded nodes in
  let mc f = sum (fun a -> f (Agent.counters a)) w.agents in
  let regional f =
    sum (fun a -> or_zero f (Agent.regional_agent a)) w.agents
  in
  let hits = sum (fun a -> Mhrp.Location_cache.hits (Agent.cache a)) w.agents in
  let misses =
    sum (fun a -> Mhrp.Location_cache.misses (Agent.cache a)) w.agents
  in
  let tc = Transport.Counters.create () in
  List.iter
    (fun st -> Transport.Counters.add ~into:tc (Transport.Stack.counters st))
    w.stacks;
  let lc =
    match w.lsr_domain with
    | Some d -> Lsr.Domain.totals d
    | None -> Lsr.Counters.create ()
  in
  let inj f = match w.injector with Some i -> f i | None -> 0 in
  let moves = w.moves () in
  let ctrl = mc (fun c -> c.C.control_messages) in
  let i name v = (name, `Int v) and f name v = (name, `Float v) in
  [ i "netsim.events" (Engine.events_processed eng);
    i "netsim.pending_end" (Engine.pending eng);
    i "netsim.run_exceptions" run_exceptions;
    i "workload.moves" moves;
    i "net.registration_ops" (Topology.registration_ops w.topo);
    i "net.frames" (Topology.total_frames w.topo);
    i "net.bytes" (Topology.total_bytes w.topo);
    i "net.forwarded" forwarded;
    f "net.fast_path_share" (share fast forwarded);
    i "net.drops" (sum Net.Node.packets_dropped nodes);
    i "mhrp.ctrl_msgs" ctrl;
    f "mhrp.ctrl_per_move" (share ctrl moves);
    i "mhrp.tunnels"
      (mc (fun c ->
           c.C.tunnels_built + c.C.retunnels + c.C.regional_retunnels
           + c.C.regional_forwards));
    f "mhrp.cache_hit_share" (share hits (hits + misses));
    i "mhrp.regional_regs" (regional Mhrp.Regional.registrations);
    i "mhrp.regional_refreshes" (regional Mhrp.Regional.refreshes);
    i "mhrp.ctrl_rtx"
      (mc (fun c ->
           c.C.reg_retransmissions + c.C.connect_retransmissions
           + c.C.sync_retransmissions + c.C.region_retransmissions));
    i "mhrp.gave_up" (mc (fun c -> c.C.retransmit_gave_up));
    i "mhrp.state_bytes"
      (sum
         (fun a ->
            or_zero Mhrp.Home_agent.state_bytes (Agent.home_agent a)
            + or_zero Mhrp.Foreign_agent.state_bytes (Agent.foreign_agent a)
            + Mhrp.Location_cache.state_bytes (Agent.cache a)
            + or_zero Mhrp.Regional.state_bytes (Agent.regional_agent a))
         w.agents);
    i "transport.segs" tc.Transport.Counters.segs_sent;
    f "transport.rtx_share"
      (share tc.Transport.Counters.retransmissions
         tc.Transport.Counters.data_segs_sent);
    i "transport.dups" tc.Transport.Counters.duplicates;
    i "transport.ooo" tc.Transport.Counters.out_of_order;
    i "transport.conns_failed" tc.Transport.Counters.conns_failed;
    i "lsr.spf_runs" lc.Lsr.Counters.spf_runs;
    i "lsr.routes_installed" lc.Lsr.Counters.routes_installed;
    i "lsr.lsas_sent" lc.Lsr.Counters.lsas_sent;
    i "lsr.hellos_sent" lc.Lsr.Counters.hellos_sent;
    f "lsr.flood_suppressed_share"
      (share lc.Lsr.Counters.floods_suppressed lc.Lsr.Counters.lsas_received);
    f "lsr.reconverge_ms" (float_of_int (w.reconverge_us ()) /. 1000.0);
    i "fault.events" (inj Fault.Injector.events);
    i "fault.control_losses" (inj Fault.Injector.control_losses);
    i "fault.invariant_drops" (Fault.Invariant.drops w.invariant);
    i "fault.ttl_expired" (Fault.Invariant.ttl_expired w.invariant) ]

let rec json_value = function
  | `Int v -> string_of_int v
  | `Float v -> Printf.sprintf "%.17g" v
  | `Bool b -> string_of_bool b
  | `String s -> Printf.sprintf "%S" s
  | `Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map
           (fun (k, v) -> Printf.sprintf "%S: %s" k (json_value v))
           fields)
    ^ "}"

(* --- one run -------------------------------------------------------- *)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let () =
  let a = parse_args () in
  let wl = List.find (fun w -> w.Worlds.name = a.workload) Worlds.all in
  let spans = Span.create ~enabled:a.trace in
  let t0 = Unix.gettimeofday () in
  let w =
    Span.record spans "setup" (fun () ->
        wl.Worlds.build (Span.tracer spans) a.size ~seed:a.seed)
  in
  let t_setup = Unix.gettimeofday () in
  let eng = Topology.engine w.topo in
  (* The library raises out of [Engine.run] on some defects (an ARP retry
     on a detached interface, for one).  Count each, and resume: the
     event that raised is already consumed. *)
  let exceptions = ref 0 and exn_msgs = ref [] in
  let rec run_to until =
    match Topology.run ~until w.topo with
    | () -> ()
    | exception (Out_of_memory | Stack_overflow as e) -> raise e
    | exception e ->
      incr exceptions;
      if List.length !exn_msgs < 5 then
        exn_msgs :=
          Printf.sprintf "t=%dus %s" (Time.to_us (Engine.now eng))
            (Printexc.to_string e)
          :: !exn_msgs;
      run_to until
  in
  let pending_max = ref 0 in
  let sim_wall = ref 0.0 in
  (* Traced: one span per simulated second, with that slice's deltas. *)
  let slice sec =
    let ev0 = Engine.events_processed eng
    and fr0 = Topology.total_frames w.topo
    and ex0 = !exceptions in
    Span.record spans "Topology.run"
      ~attrs:(fun () ->
          [ ("sim_second", float_of_int sec);
            ("events", float_of_int (Engine.events_processed eng - ev0));
            ("frames", float_of_int (Topology.total_frames w.topo - fr0));
            ("run_exceptions", float_of_int (!exceptions - ex0));
            ("pending", float_of_int (Engine.pending eng)) ])
      (fun () -> run_to (Time.of_sec (float_of_int sec)));
    pending_max := max !pending_max (Engine.pending eng)
  in
  let (), alloc =
    Obs.Alloc.measure (fun () ->
        let s0 = Unix.gettimeofday () in
        Span.record spans "simulate" (fun () ->
            if a.trace then
              for sec = 1 to w.horizon_s do slice sec done
            else run_to (Time.of_sec (float_of_int w.horizon_s)));
        sim_wall := Unix.gettimeofday () -. s0)
  in
  let t_end = Unix.gettimeofday () in
  let cpu_s = cpu_seconds () in
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6
  in
  (* Everything below is outside the timed run. *)
  let routes_s =
    if not a.trace then 0.0
    else begin
      let copy = wl.Worlds.routes_copy a.size ~seed:a.seed in
      let r0 = Unix.gettimeofday () in
      Span.record spans "Topology.compute_routes" (fun () ->
          Topology.compute_routes copy);
      Unix.gettimeofday () -. r0
    end
  in
  let ops = w.finish () in
  let counts = layer_counts w ~run_exceptions:!exceptions in
  let lat = Netsim.Stats.Samples.create () in
  List.iter (Netsim.Stats.Samples.add lat) ops.latencies_us;
  let pct p =
    if Netsim.Stats.Samples.count lat = 0 then 0.0
    else Netsim.Stats.Samples.percentile lat p /. 1000.0
  in
  let events = Engine.events_processed eng in
  let sim =
    counts
    @ [ ("ops_attempted", `Int ops.attempted);
        ("ops_failed", `Int ops.failed);
        ("latency_samples", `Int (Netsim.Stats.Samples.count lat));
        ("sim_latency_p50_ms", `Float (pct 50.0));
        ("sim_latency_p99_ms", `Float (pct 99.0)) ]
  in
  (* The digest covers every simulated quantity, including each
     completed operation's latency, so two runs agree only if they
     simulated the same thing. *)
  let digest =
    let b = Buffer.create 4096 in
    List.iter
      (fun (k, v) -> Buffer.add_string b (k ^ "=" ^ json_value v ^ ";"))
      sim;
    List.iter
      (fun l -> Buffer.add_string b (Printf.sprintf "%h;" l))
      ops.latencies_us;
    List.iter
      (fun (k, ok) -> Buffer.add_string b (Printf.sprintf "%s=%b;" k ok))
      ops.checks;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let alloc_words =
    alloc.Obs.Alloc.minor_words +. alloc.Obs.Alloc.major_words
    -. alloc.Obs.Alloc.promoted_words
  in
  let host =
    [ ("wall_s", `Float (t_end -. t0));
      ("setup_s", `Float (t_setup -. t0));
      ("sim_s", `Float !sim_wall);
      ("cpu_s", `Float cpu_s);
      ("events_per_s", `Float (float_of_int events /. !sim_wall));
      ("alloc_words_per_event",
       `Float (if events = 0 then 0.0 else alloc_words /. float_of_int events));
      ("peak_heap_mb", `Float peak_heap_mb) ]
  in
  (* Measured in traced runs only; pending_max needs the slices. *)
  let traced =
    if not a.trace then []
    else
      let build_s =
        List.fold_left
          (fun acc s ->
             if String.starts_with ~prefix:"Topo_gen." s.Span.name then
               acc +. Span.duration s
             else acc)
          0.0 (Span.spans spans)
      in
      [ ("netsim.slice_s_max", `Float (Span.max_duration spans "Topology.run"));
        ("netsim.pending_max", `Int !pending_max);
        ("workload.build_s", `Float build_s);
        ("net.routes_s", `Float routes_s) ]
  in
  let correct = List.for_all snd ops.checks in
  List.iter prerr_endline (List.rev !exn_msgs);
  (match a.spans_path with
   | Some path when a.trace ->
     Span.write spans ~path
       ~header:
         (Printf.sprintf "\"workload\": %S, \"seed\": %d, \"digest\": %S"
            a.workload a.seed digest)
   | _ -> ());
  print_endline
    (json_value
       (`Obj
          [ ("workload", `String a.workload);
            ("seed", `Int a.seed);
            ("trace", `Bool a.trace);
            ("correct", `Bool correct);
            ("digest", `String digest);
            ("checks",
             `Obj (List.map (fun (k, ok) -> (k, `Bool ok)) ops.checks));
            ("host", `Obj host);
            ("traced", `Obj traced);
            ("sim", `Obj sim) ]))
