(* Tests for lib/lsr — the distributed link-state control plane: wire
   codec roundtrips, convergence from a cold start, equivalence of the
   converged tables with the routing oracle, and reconvergence around
   link flaps and router crashes. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Node = Net.Node
module Lan = Net.Lan
module Topology = Net.Topology
module TG = Workload.Topo_gen
module LP = Lsr.Packet

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Wire codec --- *)

let gen_addr = QCheck.Gen.(map Addr.of_int (int_bound 0xFFFF_FFFF))

let gen_link =
  QCheck.Gen.(
    map3
      (fun (base, len) addr neighbors ->
         { LP.prefix = Addr.Prefix.make base len; addr; neighbors })
      (pair gen_addr (int_bound 32))
      gen_addr
      (list_size (int_bound 5) gen_addr))

let gen_packet =
  QCheck.Gen.(
    oneof
      [ map (fun origin -> LP.Hello { origin }) gen_addr;
        map3
          (fun origin seq links -> LP.Lsa { origin; seq; links })
          gen_addr (int_bound 0x3FFF_FFFF)
          (list_size (int_bound 6) gen_link) ])

let arb_packet = QCheck.make ~print:(Format.asprintf "%a" LP.pp) gen_packet

let codec_tests =
  [ qtest
      (QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500 arb_packet
         (fun p ->
            let b = LP.encode p in
            Bytes.length b = LP.size p && LP.decode b = p));
    Alcotest.test_case "malformed inputs rejected" `Quick (fun () ->
        let reject name b =
          check Alcotest.bool name true (LP.decode_opt b = None)
        in
        reject "empty" Bytes.empty;
        reject "short" (Bytes.make 3 '\x00');
        let hello = LP.encode (LP.Hello { origin = Addr.of_int 42 }) in
        reject "hello + trailing" (Bytes.cat hello (Bytes.make 1 '\x00'));
        let bad_ver = Bytes.copy hello in
        Bytes.set_uint8 bad_ver 0 9;
        reject "bad version" bad_ver;
        let bad_tag = Bytes.copy hello in
        Bytes.set_uint8 bad_tag 1 7;
        reject "unknown type" bad_tag;
        let lsa =
          LP.encode
            (LP.Lsa
               { origin = Addr.of_int 1; seq = 3;
                 links =
                   [ { LP.prefix = Addr.Prefix.make (Addr.of_int 0x0A000100) 24;
                       addr = Addr.of_int 0x0A000101;
                       neighbors = [Addr.of_int 0x0A000102] } ] })
        in
        reject "truncated lsa" (Bytes.sub lsa 0 (Bytes.length lsa - 2));
        reject "lsa + trailing" (Bytes.cat lsa (Bytes.make 2 '\x00')));
    Alcotest.test_case "sizes are byte-exact" `Quick (fun () ->
        check Alcotest.int "hello" 6
          (LP.size (LP.Hello { origin = Addr.of_int 0 }));
        let links =
          [ { LP.prefix = Addr.Prefix.make (Addr.of_int 0x0A000100) 24;
              addr = Addr.of_int 0x0A000101;
              neighbors = [Addr.of_int 1; Addr.of_int 2] } ]
        in
        (* 6 header + 4 seq + 2 count + (4+1+4+2) link + 2*4 neighbors *)
        check Alcotest.int "lsa" 31
          (LP.size (LP.Lsa { origin = Addr.of_int 0; seq = 1; links }))) ]

(* --- Convergence and oracle equivalence --- *)

(* Fast timers so convergence tests stay quick: 100 ms hellos, 2 s
   refresh. *)
let test_config =
  Lsr.Config.make ~hello_interval:(Time.of_ms 100)
    ~refresh_interval:(Time.of_sec 2.0) ()

let converge ?(config = test_config) ?(for_ = Time.of_sec 2.0) topo =
  let d = Lsr.Domain.create ~config topo in
  Lsr.Domain.start d;
  Topology.run ~until:(Time.add (Topology.now topo) for_) topo;
  d

let check_converged name d =
  check Alcotest.bool (name ^ ": synchronized") true
    (Lsr.Domain.synchronized d);
  match Lsr.Domain.check_equivalence d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: not oracle-equivalent: %s" name e

let convergence_tests =
  [ Alcotest.test_case "figure 1 converges from a cold start" `Quick
      (fun () ->
        let f = TG.figure1_plain () in
        let d = converge f.TG.p_topo in
        check_converged "figure1" d;
        let c = Lsr.Domain.totals d in
        check Alcotest.bool "hellos flowed" true
          (c.Lsr.Counters.hellos_sent > 0
           && c.Lsr.Counters.hellos_received > 0);
        check Alcotest.bool "every router originated" true
          (c.Lsr.Counters.lsas_originated >= 4);
        check Alcotest.bool "redundant floods were suppressed" true
          (c.Lsr.Counters.floods_suppressed > 0);
        check Alcotest.bool "spf ran everywhere" true
          (List.for_all
             (fun r -> (Lsr.Router.counters r).Lsr.Counters.spf_runs > 0)
             (Lsr.Domain.routers d));
        check Alcotest.int "databases hold all four routers" 4
          (Lsr.Router.lsdb_size (Lsr.Domain.router d "R1")));
    Alcotest.test_case "campus internetwork converges" `Quick (fun () ->
        let c =
          TG.campuses_plain ~campuses:4 ~mobiles_per_campus:1
            ~correspondents:2 ()
        in
        let d = converge c.TG.cp_topo in
        check_converged "campuses-4" d;
        check Alcotest.int "all routers known everywhere" 4
          (Lsr.Router.lsdb_size (List.hd (Lsr.Domain.routers d))));
    Alcotest.test_case "cold start leaves host tables alone" `Quick
      (fun () ->
        let f = TG.figure1_plain () in
        let host_routes = Net.Route.entries (Node.routes f.TG.p_s) in
        let d = Lsr.Domain.create ~config:test_config f.TG.p_topo in
        check Alcotest.bool "router table emptied" true
          (Net.Route.entries (Node.routes f.TG.p_r1) = []);
        check Alcotest.bool "host table untouched" true
          (Net.Route.entries (Node.routes f.TG.p_s) = host_routes);
        ignore d);
    Alcotest.test_case "tick staggers are distinct" `Quick (fun () ->
        let f = TG.figure1_plain () in
        let d = Lsr.Domain.create ~config:test_config f.TG.p_topo in
        Lsr.Domain.start d;
        (* Run one hello interval and confirm beacons did not all land on
           the same instant: each router's first hello goes out on its own
           tick, so the four first-hello times are the four staggers and
           must differ.  (LSA re-floods are arrival-driven and can
           coincide; ignore them.) *)
        let times = Hashtbl.create 4 in
        List.iter
          (fun r ->
             let node = Lsr.Router.node r in
             Node.on_broadcast node (fun n pkt ->
                 match LP.decode_opt pkt.Ipv4.Packet.payload with
                 | Some (LP.Hello _) when not (Hashtbl.mem times (Node.name n))
                   ->
                   Hashtbl.replace times (Node.name n)
                     (Netsim.Engine.now (Node.engine n))
                 | _ -> ()))
          (Lsr.Domain.routers d);
        Topology.run ~until:(Time.of_ms 100) f.TG.p_topo;
        let ts = Hashtbl.fold (fun _ t acc -> t :: acc) times [] in
        check Alcotest.int "all four beaconed" 4 (List.length ts);
        check Alcotest.int "at distinct times" 4
          (List.length (List.sort_uniq compare ts))) ]

(* --- Reconvergence around faults --- *)

let fault_tests =
  [ Alcotest.test_case "link flap: routes around, then heals" `Quick
      (fun () ->
        let f = TG.figure1_plain () in
        let topo = f.TG.p_topo in
        let d = converge topo in
        check_converged "before flap" d;
        (* Net C is the only path to R4 and net D: cutting it must make
           them unreachable (not looped-to), and healing must restore the
           exact oracle paths. *)
        Lan.set_up f.TG.p_net_c false;
        Topology.run ~until:(Time.add (Topology.now topo) (Time.of_sec 2.0))
          topo;
        (match Lsr.Domain.check_equivalence d with
         | Ok () -> ()
         | Error e -> Alcotest.failf "during flap: %s" e);
        let r1 = Lsr.Domain.router d "R1" in
        check Alcotest.bool "net D withdrawn at R1" true
          (Net.Route.lookup
             (Node.routes (Lsr.Router.node r1))
             (Addr.Prefix.host (Lan.prefix f.TG.p_net_d) 1)
           = None);
        Lan.set_up f.TG.p_net_c true;
        Topology.run ~until:(Time.add (Topology.now topo) (Time.of_sec 2.0))
          topo;
        check_converged "after heal" d;
        check Alcotest.bool "net D restored at R1" true
          (Net.Route.lookup
             (Node.routes (Lsr.Router.node r1))
             (Addr.Prefix.host (Lan.prefix f.TG.p_net_d) 1)
           <> None));
    Alcotest.test_case "router crash: dead-neighbor detection and reboot"
      `Quick (fun () ->
        let f = TG.figure1_plain () in
        let topo = f.TG.p_topo in
        let d = converge topo in
        let r1 = Lsr.Domain.router d "R1" in
        let r3_id = Lsr.Router.router_id (Lsr.Domain.router d "R3") in
        let seq_before =
          match Lsr.Router.lsdb_seq r1 r3_id with
          | Some s -> s
          | None -> Alcotest.fail "R1 has no LSA for R3"
        in
        Node.crash_for f.TG.p_r3 (Time.of_sec 1.0);
        Topology.run ~until:(Time.add (Topology.now topo) (Time.of_sec 4.0))
          topo;
        check_converged "after reboot" d;
        let c = Lsr.Domain.totals d in
        check Alcotest.bool "neighbors were declared dead" true
          (c.Lsr.Counters.neighbors_down > 0);
        (* The rebooted router's sequence numbers kept rising: its NVRAM
           sequence outbids every stale pre-crash LSA. *)
        check Alcotest.bool "R3 reoriginated above its pre-crash seq" true
          (match Lsr.Router.lsdb_seq r1 r3_id with
           | Some s -> s > seq_before
           | None -> false));
    Alcotest.test_case "converged tables are stable (no refresh churn)"
      `Quick (fun () ->
        let f = TG.figure1_plain () in
        let topo = f.TG.p_topo in
        let d = converge topo in
        let spf_runs () =
          (Lsr.Domain.totals d).Lsr.Counters.spf_runs
        in
        let before = spf_runs () in
        (* Two refresh intervals of quiet: refresh floods happen, but they
           carry no news, so SPF stays asleep. *)
        Topology.run ~until:(Time.add (Topology.now topo) (Time.of_sec 4.0))
          topo;
        check Alcotest.int "no further SPF runs" before (spf_runs ());
        check_converged "still converged" d) ]

(* --- SPF against the reference --- *)

(* A random link-state database fed to one router [r] as real packets:
   an injector host on each of r's LANs beacons hellos for the router ids
   r should hear there and broadcasts the other routers' LSAs.  Then r
   originates its own LSA, sometimes loses an interface (its stored LSA
   still claims that prefix, but no interface reaches it) and gets a
   table of host routes to preserve.  The worlds are built for ties and
   traps: 0-11 other routers claiming prefixes from a small pool (several
   at equal distance), ids below and above r's, one-way listings, ids
   listed that never send an LSA, crashed routers whose LSAs nobody lists
   back, a router on one prefix twice, neighbour lists out of order and
   /32 prefixes that collide with preserved host routes. *)
let spf_world seed =
  let rs = Random.State.make [| seed |] in
  let int n = Random.State.int rs n in
  let chance k = int k = 0 in
  let topo = Topology.create ~seed () in
  let n_lans = 1 + int 3 in
  let lans =
    Array.init n_lans (fun k ->
        Topology.add_lan topo ~net:(1 + k) (Printf.sprintf "l%d" k))
  in
  let rn =
    Topology.add_router topo "r"
      (Array.to_list (Array.map (fun lan -> (lan, 1)) lans))
  in
  let x = Topology.add_host topo "x" lans.(0) 200 in
  for k = 1 to n_lans - 1 do
    ignore
      (Node.attach x ~addr:(Addr.Prefix.host (Lan.prefix lans.(k)) 200)
         lans.(k))
  done;
  let config = Lsr.Config.make ~preserve_host_routes:(chance 2) () in
  let r = Lsr.Router.create ~config rn in
  let self = Lsr.Router.router_id r in
  let host32 a = Addr.Prefix.make a 32 in
  let pool =
    Array.append (Array.map Lan.prefix lans)
      [| Addr.net 5; Addr.net 6; Addr.net_len 0 16;
         host32 (Addr.host 7 1); host32 (Addr.host 7 2) |]
  in
  let n_others = int 12 in
  let id_of j = Addr.host (if chance 2 then 0 else 9) (1 + j) in
  let ids = Array.init n_others id_of in
  let ghosts = [ Addr.host 9 100; Addr.host 0 100 ] in
  (* Each other router sits on 1-3 pool prefixes (one possibly twice);
     r sits on its LANs. *)
  let on =
    Array.init n_others (fun _ ->
        let ps = List.init (1 + int 3) (fun _ -> int (Array.length pool)) in
        if chance 6 then List.hd ps :: ps else ps)
  in
  let crashed = Array.init n_others (fun _ -> chance 5) in
  (* [lists.(a).(b)]: does router a (index n_others is r) list b on a
     shared prefix?  Mostly mutual, sometimes one-way, never toward a
     crashed router. *)
  let n = n_others + 1 in
  let lists = Array.make_matrix n n false in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      match int 8 with
      | 0 -> lists.(a).(b) <- true
      | 1 -> lists.(b).(a) <- true
      | 2 -> ()
      | _ ->
        lists.(a).(b) <- true;
        lists.(b).(a) <- true
    done
  done;
  Array.iteri
    (fun j dead ->
       if dead then for a = 0 to n - 1 do lists.(a).(j) <- false done)
    crashed;
  let id_at k = if k = n_others then self else ids.(k) in
  let on_prefix k p =
    if k = n_others then p < n_lans else List.mem p on.(k)
  in
  let neighbours j p =
    let heard =
      List.filter
        (fun k -> k <> j && lists.(j).(k) && on_prefix k p)
        (List.init n Fun.id)
      |> List.map id_at
    in
    let heard = if chance 8 then List.nth ghosts (int 2) :: heard else heard in
    if chance 4 then List.rev heard else List.sort Addr.compare heard
  in
  let send iface msg =
    let src = Addr.Prefix.host (Lan.prefix lans.(iface)) 200 in
    Node.broadcast_ip x ~iface
      (Ipv4.Packet.make ~ttl:1 ~proto:Ipv4.Proto.lsrp ~src
         ~dst:Addr.broadcast (LP.encode msg))
  in
  for k = 0 to n_lans - 1 do
    List.iter
      (fun origin -> send k (LP.Hello { origin }))
      (neighbours n_others k)
  done;
  Array.iteri
    (fun j ps ->
       let links =
         List.map
           (fun p ->
              let prefix = pool.(p) in
              { LP.prefix;
                addr =
                  (if prefix.Addr.Prefix.len = 32 then prefix.Addr.Prefix.base
                   else Addr.Prefix.host prefix (10 + j));
                neighbors = neighbours j p })
           ps
       in
       send 0 (LP.Lsa { origin = ids.(j); seq = 1 + int 3; links }))
    on;
  Topology.run ~until:(Time.of_ms 100) topo;
  Lsr.Router.reoriginate r;
  if n_lans > 1 && chance 3 then Node.detach rn (int n_lans);
  let preset =
    List.filter
      (fun _ -> chance 2)
      [ (pool.(Array.length pool - 1), Net.Route.Via (Addr.host 1 7));
        (host32 (Addr.host 8 3), Net.Route.Direct 0);
        (host32 (Addr.host 0 1), Net.Route.Via (Addr.host 1 9));
        (Addr.net 8, Net.Route.Via (Addr.host 1 7)) ]
  in
  Node.set_routes rn (Net.Route.bulk preset);
  (r, config)

let pp_table ppf t = Net.Route.pp ppf t

let spf_matches_reference seed =
  let r, config = spf_world seed in
  let node = Lsr.Router.node r in
  let lsdb =
    Lsr.Router.lsdb_fold r (fun o _ links acc -> (o, links) :: acc) []
  in
  let want, want_installed =
    Lsr_ref.spf ~self:(Lsr.Router.router_id r) ~lsdb
      ~preserve_host_routes:config.Lsr.Config.preserve_host_routes node
  in
  let c = Lsr.Router.counters r in
  let before = c.Lsr.Counters.routes_installed in
  Lsr.Router.spf_now r;
  let got = Node.routes node in
  if Net.Route.entries got <> Net.Route.entries want then
    QCheck.Test.fail_reportf "table@.%a@.reference@.%a" pp_table got pp_table
      want;
  if c.Lsr.Counters.routes_installed - before <> want_installed then
    QCheck.Test.fail_reportf "installed %d routes, reference %d"
      (c.Lsr.Counters.routes_installed - before) want_installed;
  true

let arb_seed = QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))

let spf_reference_tests =
  [ qtest
      (QCheck.Test.make ~count:500
         ~name:"dense SPF tables equal the hashtable reference" arb_seed
         spf_matches_reference) ]

(* --- Oracle counter (satellite) --- *)

let oracle_counter_tests =
  [ Alcotest.test_case "recompute_count ticks per oracle sweep" `Quick
      (fun () ->
        let f = TG.figure1_plain () in
        let before = Net.Routing.recompute_count () in
        Topology.compute_routes f.TG.p_topo;
        Topology.compute_routes f.TG.p_topo;
        check Alcotest.int "two sweeps counted" (before + 2)
          (Net.Routing.recompute_count ())) ]

let suite =
  [ ("lsr-codec", codec_tests);
    ("lsr-convergence", convergence_tests);
    ("lsr-faults", fault_tests);
    ("lsr-spf-reference", spf_reference_tests);
    ("lsr-oracle-counter", oracle_counter_tests) ]
