(* Test-only reference for [Net.Routing]: node-pair adjacency sorted by
   (neighbour name, LAN name), one BFS per node, first hops by walking
   parent pointers and tables assembled with [Route.bulk].  Every BFS walks
   every node pair of every LAN, so it is slow, but each tie-break is
   plain in the code; the property tests hold the oracle to it table for
   table and answer for answer. *)

open Net

type graph = {
  nodes : Node.t array;  (* sorted by name *)
  index : (string, int) Hashtbl.t;
  adj : (int * Lan.t) list array;  (* neighbour, connecting LAN *)
  lans : Lan.t list;  (* as passed to [build], original order *)
  routers_on : (int, int list) Hashtbl.t;
  (* Lan.id -> attached router indices, ascending *)
  dist : int array;  (* BFS scratch, reset by [bfs] *)
  prev : int array;
  via_lan : Lan.t option array;
}

let build ~nodes ~lans =
  let nodes =
    List.sort (fun a b -> String.compare (Node.name a) (Node.name b)) nodes
    |> Array.of_list
  in
  let n = Array.length nodes in
  let index = Hashtbl.create (max 32 n) in
  Array.iteri (fun i node -> Hashtbl.replace index (Node.name node) i) nodes;
  (* Deduplicate the LAN list by identity (callers like [graph_of_nodes]
     collect it from interfaces, with repeats), keeping first-occurrence
     order: edge insertion order decides ties between equal LAN names. *)
  let seen = Hashtbl.create (max 16 (List.length lans)) in
  let uniq_lans =
    List.filter
      (fun lan ->
         if Hashtbl.mem seen (Lan.id lan) then false
         else begin
           Hashtbl.replace seen (Lan.id lan) ();
           true
         end)
      lans
  in
  (* Per-LAN membership from one pass over the interfaces: node indices in
     ascending order, each node at most once per LAN (multi-homing on a
     single LAN counts once). *)
  let members_rev : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i node ->
       let seen_lans = ref [] in
       List.iter
         (fun (_, lan, _) ->
            let id = Lan.id lan in
            if not (List.mem id !seen_lans) then begin
              seen_lans := id :: !seen_lans;
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt members_rev id)
              in
              Hashtbl.replace members_rev id (i :: prev)
            end)
         (Node.ifaces node))
    nodes;
  let members lan =
    match Hashtbl.find_opt members_rev (Lan.id lan) with
    | Some l -> List.rev l
    | None -> []
  in
  let adj = Array.make n [] in
  List.iter
    (fun lan ->
       if Lan.is_up lan then begin
         let ms = members lan in
         List.iter
           (fun u ->
              List.iter
                (fun v -> if u <> v then adj.(u) <- (v, lan) :: adj.(u))
                ms)
           ms
       end)
    uniq_lans;
  Array.iteri
    (fun i l ->
       adj.(i) <-
         List.sort
           (fun (a, la) (b, lb) ->
              match Int.compare a b with
              | 0 -> String.compare (Lan.name la) (Lan.name lb)
              | c -> c)
           l)
    adj;
  let routers_on = Hashtbl.create 64 in
  List.iter
    (fun lan ->
       Hashtbl.replace routers_on (Lan.id lan)
         (List.filter (fun i -> Node.is_router nodes.(i)) (members lan)))
    uniq_lans;
  { nodes; index; adj; lans; routers_on;
    dist = Array.make n max_int;
    prev = Array.make n (-1);
    via_lan = Array.make n None }

(* BFS from [s]; only routers (and [s] itself) are expanded.  Results live
   in the graph's scratch arrays until the next [bfs] call. *)
let bfs g s =
  let n = Array.length g.nodes in
  let dist = g.dist and prev = g.prev and via_lan = g.via_lan in
  Array.fill dist 0 n max_int;
  Array.fill prev 0 n (-1);
  Array.fill via_lan 0 n None;
  dist.(s) <- 0;
  let q = Queue.create () in
  Queue.push s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    if u = s || Node.is_router g.nodes.(u) then
      List.iter
        (fun (v, lan) ->
           if dist.(v) = max_int then begin
             dist.(v) <- dist.(u) + 1;
             prev.(v) <- u;
             via_lan.(v) <- Some lan;
             Queue.push v q
           end)
        g.adj.(u)
  done;
  (dist, prev, via_lan)

let first_hop prev s target =
  let rec walk v = if prev.(v) = s then v else walk prev.(v) in
  if prev.(target) = -1 then None
  else if target = s then None
  else Some (walk target)

let addr_on node lan =
  List.find_map
    (fun (_, l, addr) -> if l == lan then addr else None)
    (Node.ifaces node)

let iface_on node lan =
  List.find_map
    (fun (i, l, _) -> if l == lan then Some i else None)
    (Node.ifaces node)

let compute_graph g =
  let routers_on lan =
    Option.value ~default:[] (Hashtbl.find_opt g.routers_on (Lan.id lan))
  in
  Array.iteri
    (fun s node ->
       let dist, prev, via_lan = bfs g s in
       let pairs = ref [] in
       let add prefix target = pairs := (prefix, target) :: !pairs in
       List.iter
         (fun lan ->
            if Lan.is_up lan then begin
              let prefix = Lan.prefix lan in
              match iface_on node lan with
              | Some i -> add prefix (Route.Direct i)
              | None ->
                let candidates = routers_on lan in
                let best =
                  List.fold_left
                    (fun acc r ->
                       if dist.(r) = max_int then acc
                       else
                         match acc with
                         | None -> Some r
                         | Some b -> if dist.(r) < dist.(b) then Some r
                           else acc)
                    None candidates
                in
                match best with
                | None -> () (* unreachable network *)
                | Some egress ->
                  let hop =
                    match first_hop prev s egress with
                    | Some h -> h
                    | None -> egress (* egress is a direct neighbour *)
                  in
                  (* the LAN over which s reaches [hop] *)
                  let connecting =
                    if prev.(hop) = s then via_lan.(hop) else None
                  in
                  let connecting =
                    match connecting with
                    | Some l -> Some l
                    | None ->
                      (* hop is adjacent to s by construction *)
                      List.find_map
                        (fun (v, l) -> if v = hop then Some l else None)
                        g.adj.(s)
                  in
                  match connecting with
                  | None -> ()
                  | Some l ->
                    match addr_on g.nodes.(hop) l with
                    | None -> () (* neighbour has no address there *)
                    | Some gw -> add prefix (Route.Via gw)
            end)
         g.lans;
       Node.set_routes node (Route.bulk (List.rev !pairs)))
    g.nodes

let path_length_graph g ~src ~dst_lan =
  match Hashtbl.find_opt g.index (Node.name src) with
  | None -> None
  | Some s ->
    if List.exists (fun (_, l, _) -> l == dst_lan) (Node.ifaces src) then
      Some 1
    else begin
      let dist, _, _ = bfs g s in
      let best = ref None in
      Array.iteri
        (fun i node ->
           if Node.is_router node && dist.(i) < max_int
              && List.exists (fun (_, l, _) -> l == dst_lan)
                   (Node.ifaces node)
           then
             match !best with
             | None -> best := Some dist.(i)
             | Some b -> if dist.(i) < b then best := Some dist.(i))
        g.nodes;
      Option.map (fun d -> d + 1) !best
    end

let graph_of_nodes nodes =
  let lans =
    (* collect every LAN any node is attached to *)
    List.concat_map (fun n -> List.map (fun (_, l, _) -> l) (Node.ifaces n))
      nodes
  in
  build ~nodes ~lans
