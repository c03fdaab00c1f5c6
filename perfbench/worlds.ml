(* The four benchmark worlds, each built only through the library's public
   generators and driven to a fixed simulated horizon.

   A world is a fixed scenario plus a seeded perturbation.  The scenario —
   who moves where and when, what fails, each flow's schedule — is drawn
   from a constant stream, so every seed runs the same experiment.  The
   seed feeds the generator and draws a sub-millisecond phase for every
   flow and mobile (and, on socket-slo, each server's response size; on
   lsr-flap, where the faults fall within one hello interval), so two
   seeds give similar but not identical simulations.  Re-drawing the
   whole scenario per seed is what a seed usually means, but here the
   outcomes that hinge on rare events (a waypoint dwell shorter than a
   handoff, which control message a loss window hits) then move by 20-30%
   from seed to seed, wider than any bound the benchmark could hold.

   Application traffic is open loop in simulated time: each operation has
   an intended start, fixed before the run, and its latency is measured
   from that instant.  Intended starts are continuous and the event fires
   at the next whole microsecond, so the clock's quantisation is part of
   the measured latency, as a late generator's would be. *)

module TG = Workload.Topo_gen
module Time = Netsim.Time
module Engine = Netsim.Engine
module Rng = Netsim.Rng
module Topology = Net.Topology
module Agent = Mhrp.Agent
module Stack = Transport.Stack
module Apps = Workload.Apps

type size = Full | Tiny

(* What a world reports once its run has ended. *)
type ops = {
  attempted : int;
  failed : int;
  latencies_us : float list;  (* completed operations only *)
  checks : (string * bool) list;  (* output checks; false = violated *)
}

type world = {
  topo : Topology.t;
  horizon_s : int;
  agents : Agent.t list;
  stacks : Stack.t list;
  lsr_domain : Lsr.Domain.t option;
  injector : Fault.Injector.t option;
  invariant : Fault.Invariant.t;
  moves : unit -> int;
  reconverge_us : unit -> int;
  finish : unit -> ops;
}

type workload = {
  name : string;
  build : Span.tracer -> size -> seed:int -> world;
  routes_copy : size -> seed:int -> Topology.t;
      (* A second copy of the world's wiring, for timing
         [Topology.compute_routes] on its own. *)
}

(* The stream every scenario is drawn from, whatever the seed. *)
let scenario () = Rng.of_int 1994

(* A seeded phase in [0, 1 ms), in microseconds. *)
let phase rng = Rng.float rng 1000.0

let us_of_sec s = s *. 1e6

(* Schedule [f] at the first whole microsecond at or after [due_us]. *)
let at_due eng due_us f =
  ignore (Engine.schedule eng ~at:(Time.of_us (int_of_float (ceil due_us))) f)

(* A fixed table of open-loop operations: intended start, completion. *)
module Optab = struct
  type t = { mutable n : int; due : float array; done_at : float array }

  let create cap =
    { n = 0; due = Array.make cap nan; done_at = Array.make cap nan }

  let add t due =
    let k = t.n in
    t.n <- k + 1;
    t.due.(k) <- due;
    k

  let complete t k now_us =
    if k >= 0 && k < t.n && Float.is_nan t.done_at.(k) then
      t.done_at.(k) <- float_of_int now_us

  let completed t =
    let acc = ref [] in
    for k = t.n - 1 downto 0 do
      if not (Float.is_nan t.done_at.(k)) then
        acc := (t.done_at.(k) -. t.due.(k)) :: !acc
    done;
    !acc
end

let now_us eng = Time.to_us (Engine.now eng)

let op_payload k =
  let b = Bytes.make 64 '\000' in
  Bytes.set_int32_be b 0 (Int32.of_int k);
  Ipv4.Udp.encode (Ipv4.Udp.make ~src_port:4000 ~dst_port:4000 b)

(* The operation index carried by a datagram built by [op_payload]. *)
let op_of_packet (pkt : Ipv4.Packet.t) =
  if pkt.Ipv4.Packet.proto = Ipv4.Proto.udp
  && Bytes.length pkt.Ipv4.Packet.payload >= Ipv4.Udp.header_length + 4
  then
    Some
      (Int32.to_int
         (Bytes.get_int32_be pkt.Ipv4.Packet.payload Ipv4.Udp.header_length))
  else None

(* Open-loop datagram flows: [train] sends per (src, dst) pair,
   [period_us] apart from [start_us] plus a scenario offset within one
   period and the seeded phase; each flow keeps one send pending.  The
   table completes an operation when [deliver] sees its datagram. *)
let datagram_flows eng ~sc ~rng ~srcs ~dsts ~train ~start_us ~period_us
    ~addr ~send =
  let ops = Optab.create (Array.length srcs * Array.length dsts * train) in
  Array.iter
    (fun s ->
       Array.iter
         (fun d ->
            let first = start_us +. Rng.float sc period_us +. phase rng in
            let rec go j =
              if j < train then begin
                let due = first +. (float_of_int j *. period_us) in
                at_due eng due (fun () ->
                    let k = Optab.add ops due in
                    send s
                      (Ipv4.Packet.make ~id:(k land 0xFFFF)
                         ~proto:Ipv4.Proto.udp ~src:(addr s) ~dst:(addr d)
                         (op_payload k));
                    go (j + 1))
              end
            in
            go 0)
         dsts)
    srcs;
  ops

let deliver ops eng pkt =
  match op_of_packet pkt with
  | Some k -> Optab.complete ops k (now_us eng)
  | None -> ()

let flow_ops ops ~attempted ~checks =
  let lat = Optab.completed ops in
  { attempted; failed = attempted - List.length lat; latencies_us = lat;
    checks }

let loop_check inv =
  ("no_forwarding_loops", Fault.Invariant.no_forwarding_loops inv)

let mobile_moves mobiles () =
  Array.fold_left
    (fun acc m ->
       match Agent.mobile m with
       | Some mh -> acc + mh.Mhrp.Mobile_host.moves
       | None -> acc)
    0 mobiles

(* --- campus-roam: E16's 256-campus internetwork, flat MHRP ----------- *)

let campus_shape = function Full -> (256, 60) | Tiny -> (8, 4)

let campus_roam (tr : Span.tracer) size ~seed =
  let campuses, train = campus_shape size in
  let sc = scenario () and rng = Rng.of_int seed in
  let c =
    tr.span "Topo_gen.campuses" (fun () ->
        TG.campuses ~seed ~backbone_prefix_len:16 ~campuses
          ~mobiles_per_campus:1 ~correspondents:3 ())
  in
  let topo = c.TG.c_topo in
  Netsim.Trace.set_enabled (Topology.trace topo) false;
  let eng = Topology.engine topo in
  let inv = Fault.Invariant.watch topo in
  (* Every mobile moves once, 10 ms apart from 1 s in a shuffled order, to
     the cell of another campus. *)
  tr.span "Mobility.move_at" (fun () ->
      let order = Array.init campuses Fun.id in
      Rng.shuffle sc order;
      Array.iteri
        (fun slot k ->
           let target = (k + 1 + Rng.int sc (campuses - 1)) mod campuses in
           let at = 1_000_000 + (slot * 10_000) + int_of_float (phase rng) in
           Workload.Mobility.move_at topo c.TG.c_mobiles.(k)
             ~at:(Time.of_us at) c.TG.c_cells.(target))
        order);
  (* Every correspondent sends every mobile a train of 64-byte datagrams,
     one per 100 ms from 0.5 s, so the trains straddle the move wave. *)
  let ops =
    datagram_flows eng ~sc ~rng ~srcs:c.TG.c_senders ~dsts:c.TG.c_mobiles
      ~train ~start_us:(us_of_sec 0.5) ~period_us:100_000.0
      ~addr:Agent.address ~send:Agent.send
  in
  Array.iter
    (fun m -> Agent.on_app_receive m (deliver ops eng))
    c.TG.c_mobiles;
  { topo; horizon_s = 9;
    agents =
      Array.to_list c.TG.c_routers @ Array.to_list c.TG.c_mobiles
      @ Array.to_list c.TG.c_senders;
    stacks = []; lsr_domain = None; injector = None; invariant = inv;
    moves = mobile_moves c.TG.c_mobiles;
    reconverge_us = (fun () -> 0);
    finish =
      (fun () ->
         flow_ops ops ~attempted:(3 * campuses * train)
           ~checks:[ loop_check inv ]) }

let campus_routes_copy size ~seed =
  let campuses, _ = campus_shape size in
  (TG.campuses_plain ~seed ~backbone_prefix_len:16 ~compute_routes:false
     ~campuses ~mobiles_per_campus:1 ~correspondents:3 ())
    .TG.cp_topo

(* --- socket-slo: E21 scaled up, hierarchical MHRP, a crashed FA ---- *)

let slo_shape = function Full -> (8, 24) | Tiny -> (2, 4)

let slo_config =
  Mhrp.Config.make ~hierarchy:true ~reliable_control:true
    ~control_rto:(Time.of_ms 300) ~control_retries:5 ()

let regions_world ~config ~seed ~regions ~cells ~mobiles_per_region
    ~correspondents =
  TG.regions ~config ~seed ~regions ~cells ~mobiles_per_region
    ~correspondents ()

let region_agents g =
  Array.to_list g.TG.rg_regionals
  @ Array.to_list g.TG.rg_backups
  @ List.concat_map Array.to_list (Array.to_list g.TG.rg_fas)
  @ Array.to_list g.TG.rg_mobiles
  @ Array.to_list g.TG.rg_senders

let socket_slo (tr : Span.tracer) size ~seed =
  let regions, mobiles_per_region = slo_shape size in
  let cells = 2 in
  let n_mobiles = regions * mobiles_per_region in
  let n_senders = n_mobiles in
  let rpc_per_mobile = 2 and rpc_count = 10 in
  let bulk_bytes = 32768 and chat_says = 3 in
  let rng = Rng.of_int seed in
  let g =
    tr.span "Topo_gen.regions" (fun () ->
        regions_world ~config:slo_config ~seed ~regions ~cells
          ~mobiles_per_region ~correspondents:n_senders)
  in
  let topo = g.TG.rg_topo in
  Netsim.Trace.set_enabled (Topology.trace topo) false;
  let inv = Fault.Invariant.watch topo in
  (* E21's foreign-agent crash.  E21's control-loss window is left out:
     which messages it hits is a different draw for every perturbation,
     and ops_failed_share and the RPC p99 then jump by 25-50% from seed
     to seed. *)
  let inj = Fault.Injector.create ~seed:4242 topo in
  tr.span "Fault.Injector.inject" (fun () ->
      Fault.Injector.inject inj
        [ Fault.Schedule.Crash
            { node = "F1_0"; at = Time.of_sec 8.0;
              duration = Time.of_sec 1.5 } ]);
  let m_stacks, s_stacks =
    tr.span "Stack.create" (fun () ->
        ( Array.map Stack.create g.TG.rg_mobiles,
          Array.map Stack.create g.TG.rg_senders ))
  in
  (* E21 spaces per-mobile schedules for 48 mobiles; compress the spacing
     so the same waves fit the same 30 s horizon at any population.  Each
     mobile's instants carry its seeded phase, and each mobile serves RPC
     responses of a seeded 256-271 bytes. *)
  let spread = 48.0 /. float_of_int n_mobiles in
  let offset = Array.init n_mobiles (fun _ -> phase rng /. 1e6) in
  let resp = Array.init n_mobiles (fun _ -> 256 + Rng.int rng 16) in
  let t im base step =
    Time.of_sec (base +. offset.(im) +. (step *. spread *. float_of_int im))
  in
  let rpcs =
    tr.span "Apps.Rpc" (fun () ->
        Array.iteri
          (fun im st ->
             Apps.Rpc.serve st ~port:80 ~req_bytes:64 ~resp_bytes:resp.(im))
          m_stacks;
        List.concat
          (List.init n_mobiles (fun im ->
               List.init rpc_per_mobile (fun k ->
                   let is = (im + (k * 17)) mod n_senders in
                   Apps.Rpc.start ~client:s_stacks.(is)
                     ~server:(Stack.address m_stacks.(im))
                     ~port:80 ~req_bytes:64 ~resp_bytes:resp.(im)
                     ~start:(t im 2.0 0.01) ~interval:(Time.of_sec 1.0)
                     ~count:rpc_count ()))))
  in
  let bulks =
    tr.span "Apps.Bulk" (fun () ->
        Array.iter
          (fun st -> Apps.Bulk.serve st ~port:8080 ~bytes:bulk_bytes)
          s_stacks;
        List.init n_mobiles (fun im ->
            Apps.Bulk.fetch m_stacks.(im)
              ~server:(Stack.address s_stacks.((im + 5) mod n_senders))
              ~port:8080 ~bytes:bulk_bytes ~at:(t im 5.0 0.15) ()))
  in
  let host r = s_stacks.(r * mobiles_per_region / 2) in
  let members =
    tr.span "Apps.Chat" (fun () ->
        for r = 0 to regions - 1 do
          ignore (Apps.Chat.room (host r) ~port:9000 ~msg_bytes:64)
        done;
        List.init n_mobiles (fun im ->
            let r = im / mobiles_per_region in
            let m =
              Apps.Chat.join m_stacks.(im)
                ~server:(Stack.address (host r)) ~port:9000 ~msg_bytes:64
                ~at:(t im 1.5 0.02) ()
            in
            for k = 0 to chat_says - 1 do
              Apps.Chat.say m
                ~at:(Time.add (t im 5.0 0.1)
                       (Time.of_sec (2.0 *. float_of_int k)))
            done;
            m))
  in
  (* E21's mobility: home to a cell, a hop to the other cell mid-traffic,
     and every fourth mobile crosses into the next region. *)
  tr.span "Mobility.move_at" (fun () ->
      Array.iteri
        (fun im m ->
           let r = im / mobiles_per_region
           and j = im mod mobiles_per_region in
           let cell c = g.TG.rg_cells.(r).(c) in
           Workload.Mobility.move_at topo m ~at:(t im 1.0 0.05)
             (cell (j mod cells));
           Workload.Mobility.move_at topo m ~at:(t im 7.0 0.1)
             (cell ((j + 1) mod cells));
           if j mod 4 = 0 then
             Workload.Mobility.move_at topo m ~at:(t im 11.0 0.1)
               g.TG.rg_cells.((r + 1) mod regions).(0))
        g.TG.rg_mobiles);
  { topo; horizon_s = 30; agents = region_agents g;
    stacks = Array.to_list m_stacks @ Array.to_list s_stacks;
    lsr_domain = None; injector = Some inj; invariant = inv;
    moves = mobile_moves g.TG.rg_mobiles;
    reconverge_us = (fun () -> 0);
    finish =
      (fun () ->
         (* E21's accounting: every request, every chat delivery to every
            other room member, every transfer. *)
         let rpc_expected = n_mobiles * rpc_per_mobile * rpc_count in
         let chat_expected =
           regions
           * (mobiles_per_region * chat_says * (mobiles_per_region - 1))
         in
         let rpc_ok =
           List.fold_left (fun a c -> a + Apps.Rpc.responses c) 0 rpcs
         in
         let chat_ok =
           List.fold_left (fun a m -> a + Apps.Chat.received m) 0 members
         in
         (* A completed transfer that is not byte-intact is a failed op. *)
         let bulk_ok, bulk_corrupt =
           List.fold_left
             (fun (ok, bad) b ->
                if not (Apps.Bulk.complete b) then (ok, bad)
                else if Apps.Bulk.intact b then (ok + 1, bad)
                else (ok, bad + 1))
             (0, 0) bulks
         in
         let attempted = rpc_expected + chat_expected + n_mobiles in
         { attempted;
           failed =
             attempted - min rpc_ok rpc_expected
             - min chat_ok chat_expected - bulk_ok;
           latencies_us = List.concat_map Apps.Rpc.latencies_us rpcs;
           checks =
             [ loop_check inv; ("bulk_transfers_intact", bulk_corrupt = 0) ]
         }) }

let regions_routes_copy ~config ~regions ~cells ~mobiles_per_region
    ~correspondents ~seed =
  (regions_world ~config ~seed ~regions ~cells ~mobiles_per_region
     ~correspondents)
    .TG.rg_topo

(* --- softstate-churn: thousands of roaming mobiles, soft-state HMRP --- *)

let churn_shape = function Full -> (8, 4, 180, 15) | Tiny -> (2, 2, 6, 8)

let churn_config =
  Mhrp.Config.make ~hierarchy:true ~reliable_control:true
    ~control_rto:(Time.of_ms 300) ~control_retries:5
    ~regional_lifetime:(Time.of_sec 9.0) ~regional_refresh:(Time.of_sec 3.0)
    ()

(* Dwell mean of the waypoint walk, and the quiet tail before the horizon
   that lets the last handoffs finish. *)
let churn_dwell = Time.of_ms 1500
let churn_tail_s = 3

(* The instants [Mobility.random_waypoint] will move at when started at
   [start_us] with a copy of [rng]: the walk draws one exponential dwell
   per step, truncated to whole microseconds, and one pick per move, and
   the pick never changes when the next move falls.  The benchmark checks
   the count against the mobile's own move counter after the run. *)
let waypoint_times rng ~start_us ~dwell_mean ~until =
  let rng = Rng.copy rng in
  let mean = float_of_int (Time.to_us dwell_mean) in
  let rec go now acc =
    let at = now + 1 + int_of_float (Rng.exponential rng mean) in
    if at <= Time.to_us until then begin
      ignore (Rng.int rng 2);
      go at (at :: acc)
    end
    else Array.of_list (List.rev acc)
  in
  go start_us []

let softstate_churn (tr : Span.tracer) size ~seed =
  let regions, cells, mobiles_per_region, horizon_s = churn_shape size in
  let sc = scenario () and rng = Rng.of_int seed in
  let g =
    tr.span "Topo_gen.regions" (fun () ->
        regions_world ~config:churn_config ~seed ~regions ~cells
          ~mobiles_per_region ~correspondents:0)
  in
  let topo = g.TG.rg_topo in
  Netsim.Trace.set_enabled (Topology.trace topo) false;
  let eng = Topology.engine topo in
  let inv = Fault.Invariant.watch topo in
  let until = Time.of_sec (float_of_int (horizon_s - churn_tail_s)) in
  (* Every mobile walks among its region's cells from its seeded phase.
     A handoff is a move; it completes at the first registration the
     mobile reports while that move is still its latest.  Its intended
     instant is the move's, less the walk's start delay past the phase. *)
  let n = Array.length g.TG.rg_mobiles in
  let moves_at = Array.make n [||] and done_at = Array.make n [||] in
  let lateness = Array.make n 0.0 in
  let mirror_ok = ref true in
  tr.span "Mobility.random_waypoint" (fun () ->
      Array.iteri
        (fun im m ->
           let r = im / mobiles_per_region in
           let walk = Rng.split sc in
           let start = phase rng in
           let start_us = int_of_float (ceil start) in
           lateness.(im) <- float_of_int start_us -. start;
           moves_at.(im) <-
             waypoint_times walk ~start_us ~dwell_mean:churn_dwell ~until;
           done_at.(im) <- Array.make (Array.length moves_at.(im)) nan;
           Agent.on_registered m (fun _fa ->
               match Agent.mobile m with
               | Some mh ->
                 let k = mh.Mhrp.Mobile_host.moves in
                 if k > Array.length moves_at.(im) then mirror_ok := false
                 else if k >= 1 && Float.is_nan done_at.(im).(k - 1) then
                   done_at.(im).(k - 1) <- float_of_int (now_us eng)
               | None -> ());
           at_due eng start (fun () ->
               Workload.Mobility.random_waypoint topo m ~rng:walk
                 ~lans:g.TG.rg_cells.(r) ~dwell_mean:churn_dwell ~until))
        g.TG.rg_mobiles);
  { topo; horizon_s; agents = region_agents g; stacks = [];
    lsr_domain = None; injector = None; invariant = inv;
    moves = mobile_moves g.TG.rg_mobiles;
    reconverge_us = (fun () -> 0);
    finish =
      (fun () ->
         let attempted = ref 0 and lat = ref [] in
         Array.iteri
           (fun im times ->
              attempted := !attempted + Array.length times;
              (match Agent.mobile g.TG.rg_mobiles.(im) with
               | Some mh
                 when mh.Mhrp.Mobile_host.moves = Array.length times -> ()
               | _ -> mirror_ok := false);
              Array.iteri
                (fun k at ->
                   let d = done_at.(im).(k) in
                   if not (Float.is_nan d) then
                     lat := (d -. float_of_int at +. lateness.(im)) :: !lat)
                times)
           moves_at;
         { attempted = !attempted;
           failed = !attempted - List.length !lat;
           latencies_us = List.rev !lat;
           checks =
             [ loop_check inv; ("move_schedule_matches", !mirror_ok) ] }) }

(* --- lsr-flap: link-state routing through a flap and a crash -------- *)

let lsr_shape = function Full -> (64, 15) | Tiny -> (6, 8)

let lsr_config =
  Lsr.Config.make ~hello_interval:(Time.of_ms 100)
    ~refresh_interval:(Time.of_sec 10.0) ()

let lsr_flap (tr : Span.tracer) size ~seed =
  let campuses, horizon_s = lsr_shape size in
  let correspondents = 3 in
  let sc = scenario () and rng = Rng.of_int seed in
  let c =
    tr.span "Topo_gen.campuses_plain" (fun () ->
        TG.campuses_plain ~seed ~campuses ~mobiles_per_campus:1
          ~correspondents ())
  in
  let topo = c.TG.cp_topo in
  Netsim.Trace.set_enabled (Topology.trace topo) false;
  let eng = Topology.engine topo in
  let inv = Fault.Invariant.watch topo in
  let d =
    tr.span "Lsr.Domain.create" (fun () ->
        Lsr.Domain.create ~config:lsr_config topo)
  in
  tr.span "Lsr.Domain.start" (fun () -> Lsr.Domain.start d);
  (* A third of the way round the backbone a campus's home LAN flaps at
     40% of the horizon; two thirds round, a campus router crashes at
     65%, each shifted by a seeded part of one hello interval.  Neither
     campus hosts a correspondent. *)
  let flapped = campuses / 3 and crashed = 2 * campuses / 3 in
  let sec f = Time.of_us (int_of_float (us_of_sec f)) in
  let h = float_of_int horizon_s in
  let at f = Time.add (sec f) (Time.of_us (int_of_float (100. *. phase rng))) in
  let flap_at = at (0.4 *. h) and flap_for = Time.of_sec 1.0 in
  let crash_at = at (0.65 *. h) and crash_for = Time.of_sec 1.5 in
  let inj = Fault.Injector.create ~seed:4242 topo in
  tr.span "Fault.Injector.inject" (fun () ->
      Fault.Injector.inject inj
        [ Fault.Schedule.Lan_down
            { lan = Printf.sprintf "home%d" flapped; at = flap_at;
              duration = flap_for };
          Fault.Schedule.Crash
            { node = Printf.sprintf "R%d" crashed; at = crash_at;
              duration = crash_for } ]);
  (* Reconvergence: from each heal, poll every millisecond until the
     domain is synchronized again; report the slower of the two. *)
  let reconverge = ref 0 in
  let watch_heal heal =
    ignore
      (Engine.schedule eng ~at:heal (fun () ->
           let rec poll () =
             if Lsr.Domain.synchronized d then
               reconverge := max !reconverge (now_us eng - Time.to_us heal)
             else
               ignore (Engine.schedule_after eng ~delay:(Time.of_ms 1) poll)
           in
           poll ()))
  in
  watch_heal (Time.add flap_at flap_for);
  watch_heal (Time.add crash_at crash_for);
  (* Reachability probes: every correspondent probes every mobile host
     every 100 ms from 2 s until a second before the horizon. *)
  let rounds = 10 * (horizon_s - 3) in
  let ops =
    datagram_flows eng ~sc ~rng ~srcs:c.TG.cp_senders ~dsts:c.TG.cp_mobiles
      ~train:rounds ~start_us:(us_of_sec 2.0) ~period_us:100_000.0
      ~addr:Net.Node.primary_addr ~send:Net.Node.send
  in
  Array.iter
    (fun m ->
       Net.Node.set_proto_handler m Ipv4.Proto.udp (fun _ pkt ->
           deliver ops eng pkt))
    c.TG.cp_mobiles;
  { topo; horizon_s; agents = []; stacks = []; lsr_domain = Some d;
    injector = Some inj; invariant = inv; moves = (fun () -> 0);
    reconverge_us = (fun () -> !reconverge);
    finish =
      (fun () ->
         flow_ops ops ~attempted:(correspondents * campuses * rounds)
           ~checks:
             [ loop_check inv;
               ("lsr_equivalent_to_oracle", Lsr.Domain.equivalent d) ]) }

let lsr_routes_copy size ~seed =
  let campuses, _ = lsr_shape size in
  (TG.campuses_plain ~seed ~compute_routes:false ~campuses
     ~mobiles_per_campus:1 ~correspondents:3 ())
    .TG.cp_topo

let all =
  [ { name = "campus-roam"; build = campus_roam;
      routes_copy = campus_routes_copy };
    { name = "socket-slo"; build = socket_slo;
      routes_copy =
        (fun size ~seed ->
           let regions, mobiles_per_region = slo_shape size in
           regions_routes_copy ~config:slo_config ~regions ~cells:2
             ~mobiles_per_region
             ~correspondents:(regions * mobiles_per_region) ~seed) };
    { name = "softstate-churn"; build = softstate_churn;
      routes_copy =
        (fun size ~seed ->
           let regions, cells, mobiles_per_region, _ = churn_shape size in
           regions_routes_copy ~config:churn_config ~regions ~cells
             ~mobiles_per_region ~correspondents:0 ~seed) };
    { name = "lsr-flap"; build = lsr_flap; routes_copy = lsr_routes_copy } ]
