(* The routing oracle against its reference, and shared host tables.

   [Routing_ref] is the node-pair BFS the oracle used to be; on random
   small worlds every node's table and every path-length answer must
   match it exactly — tie-breaks included, so the worlds are built to
   make ties: routers and multi-homed hosts sharing several LANs, names
   ordered against creation order, repeated prefixes, down LANs,
   interfaces with no address and interface indices other than 0. *)

module Addr = Ipv4.Addr
module Lan = Net.Lan
module Node = Net.Node
module Route = Net.Route
module Routing = Net.Routing
module Topology = Net.Topology

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let shuffle rs l =
  List.map (fun x -> (Random.State.bits rs, x)) l
  |> List.sort compare |> List.map snd

(* A random world and the LAN list to route it over. *)
let world seed =
  let rs = Random.State.make [| seed |] in
  let int n = Random.State.int rs n in
  let topo = Topology.create ~seed () in
  let n_lans = 2 + int 5 in
  let lan_names = Array.of_list (shuffle rs (List.init n_lans Fun.id)) in
  let lans =
    Array.init n_lans (fun k ->
        (* nets 1-4 at /24, or all of them 10.0.0.0 at /16: prefixes repeat *)
        let prefix_len = if int 4 = 0 then 16 else 24 in
        Topology.add_lan topo ~prefix_len ~net:(1 + int 4)
          (Printf.sprintf "l%d" lan_names.(k)))
  in
  let pick () = lans.(int n_lans) in
  let node_names = Array.of_list (shuffle rs (List.init 64 Fun.id)) in
  let n_nodes = ref 0 in
  let next_name () =
    incr n_nodes;
    Printf.sprintf "n%02d" node_names.(!n_nodes - 1)
  in
  let host_id = ref 0 in
  let addr_on lan =
    incr host_id;
    Addr.Prefix.host (Lan.prefix lan) !host_id
  in
  let attach node lan =
    (* one in six interfaces carries no address *)
    let addr = if int 6 = 0 then None else Some (addr_on lan) in
    ignore (Node.attach node ?addr lan)
  in
  for _ = 1 to 1 + int 4 do
    let r = Topology.add_router topo (next_name ()) [] in
    for _ = 1 to 1 + int 4 do attach r (pick ()) done
  done;
  Array.iter
    (fun lan ->
       for _ = 1 to int 4 do
         let h =
           if int 4 = 0 then begin
             (* detach and re-attach: the live interface is index 1 *)
             let h = Topology.add_host topo (next_name ()) (pick ()) 200 in
             Node.detach h 0;
             ignore (Node.attach h ~addr:(addr_on lan) lan);
             h
           end
           else Topology.add_host topo (next_name ()) lan (100 + int 100)
         in
         if int 4 = 0 then attach h (pick ())
       done)
    lans;
  Array.iter (fun lan -> if int 5 = 0 then Lan.set_up lan false) lans;
  let listed = Topology.lans topo in
  let listed = if int 2 = 0 then shuffle rs listed else listed in
  let listed = if int 4 = 0 then List.tl listed else listed in
  let listed = if int 3 = 0 then listed @ [ pick () ] else listed in
  (topo, listed)

let pp_entries ppf es = Route.pp ppf (Route.of_entries es)

let same_entries a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Route.entry) (y : Route.entry) ->
          Addr.Prefix.equal x.prefix y.prefix && x.target = y.target)
       a b

let agrees_with_reference seed =
  let topo, lans = world seed in
  let nodes = Topology.nodes topo in
  Routing_ref.compute_graph (Routing_ref.build ~nodes ~lans);
  let expected = List.map (fun n -> Route.entries (Node.routes n)) nodes in
  Routing.compute ~nodes ~lans;
  List.iter2
    (fun node want ->
       let got = Route.entries (Node.routes node) in
       if not (same_entries got want) then
         QCheck.Test.fail_reportf "%s: table@.%a@.reference@.%a"
           (Node.name node) pp_entries got pp_entries want)
    nodes expected;
  let dst_lans = Topology.lans topo in
  List.iter
    (fun (g, rg) ->
       List.iter
         (fun src ->
            let batch = Routing.path_lengths_graph g ~src ~dst_lans in
            List.iter2
              (fun dst_lan from_batch ->
                 let want = Routing_ref.path_length_graph rg ~src ~dst_lan in
                 let got = Routing.path_length_graph g ~src ~dst_lan in
                 if got <> want || from_batch <> want then
                   QCheck.Test.fail_reportf "path %s -> %s differs"
                     (Node.name src) (Lan.name dst_lan))
              dst_lans batch)
         nodes)
    [ (Routing.graph_of_nodes nodes, Routing_ref.graph_of_nodes nodes);
      (Routing.build ~nodes ~lans, Routing_ref.build ~nodes ~lans) ];
  true

let arb_seed =
  QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))

let reference_tests =
  [ qtest
      (QCheck.Test.make ~count:500
         ~name:"tables and path lengths equal the node-pair reference"
         arb_seed agrees_with_reference) ]

let sharing_tests =
  [ Alcotest.test_case "hosts on one LAN share a table, in isolation" `Quick
      (fun () ->
         let topo = Topology.create () in
         let l1 = Topology.add_lan topo ~net:1 "l1" in
         let l2 = Topology.add_lan topo ~net:2 "l2" in
         let _r = Topology.add_router topo "r" [ (l1, 1); (l2, 1) ] in
         let h1 = Topology.add_host topo "h1" l1 10 in
         let h2 = Topology.add_host topo "h2" l1 11 in
         Topology.compute_routes topo;
         check Alcotest.bool "one physical table" true
           (Node.routes h1 == Node.routes h2);
         let probes = [ Addr.host 1 5; Addr.host 2 7; Addr.host 3 1 ] in
         let lookups n = List.map (Route.lookup (Node.routes n)) probes in
         let entries = Route.entries (Node.routes h2) in
         let before = lookups h2 in
         Node.update_routes h1 (fun r ->
             Route.add_host r (Addr.host 2 7) (Route.Via (Addr.host 1 99)));
         Topology.move_host topo h1 l2;
         check Alcotest.bool "first host's table replaced" true
           (Route.lookup (Node.routes h1) (Addr.host 2 7)
            = Some (Route.Via (Addr.host 1 99)));
         check Alcotest.bool "second host's entries unchanged" true
           (same_entries entries (Route.entries (Node.routes h2)));
         check Alcotest.bool "second host's lookups unchanged" true
           (before = lookups h2));
    Alcotest.test_case "routers and differently attached hosts do not share"
      `Quick (fun () ->
         let topo = Topology.create () in
         let l1 = Topology.add_lan topo ~net:1 "l1" in
         let l2 = Topology.add_lan topo ~net:2 "l2" in
         let r = Topology.add_router topo "r" [ (l1, 1); (l2, 1) ] in
         let h1 = Topology.add_host topo "h1" l1 10 in
         let h2 = Topology.add_host topo "h2" l2 10 in
         let h3 = Topology.add_host topo "h3" l1 11 in
         Node.detach h3 0;
         ignore (Node.attach h3 ~addr:(Addr.host 1 11) l1);
         Topology.compute_routes topo;
         let distinct a b = Node.routes a != Node.routes b in
         check Alcotest.bool "router" true (distinct r h1);
         check Alcotest.bool "other LAN" true (distinct h1 h2);
         check Alcotest.bool "other iface index" true (distinct h1 h3);
         check Alcotest.bool "iface index shows in the table" true
           (Route.lookup (Node.routes h3) (Addr.host 1 5)
            = Some (Route.Direct 1))) ]

let suite =
  [ ("routing-reference", reference_tests); ("routing-sharing", sharing_tests) ]
