(* One BFS per source over the bipartite node/LAN graph (every LAN
   traversal costs one hop), expanding only through routers, which matches
   IP: hosts do not forward.  A LAN is a vertex, not a clique of node
   pairs: an expanding node scans each of its unscanned up LANs once and
   reaches every member, so a BFS costs O(N + sum of LAN sizes) where
   pair adjacency cost the sum of squared LAN sizes.

   Tie-breaks are those of a BFS over node-pair adjacency sorted by
   (neighbour name, LAN name): the nodes an expansion newly reaches join
   the queue in ascending name order, and each records the smallest-named
   LAN it shares with its parent (equal names: the later-listed LAN).
   Scanning the parent's LANs in that order gives the second rule, since a
   node not yet reached has no scanned LAN; sorting each expansion's batch
   gives the first.

   Non-routers never expand, so a host's table depends only on its own
   (interface, LAN) attachments: hosts with equal attachments share one
   [Route.t].  Sharing is safe because tables are persistent values —
   [Node.update_routes] swaps in a new one for that node only — and the
   compiled lookup cache belongs to the value, which all sharers agree on. *)

type graph = {
  nodes : Node.t array;  (* sorted by name *)
  index : (string, int) Hashtbl.t;
  router : bool array;
  slot_of : (int, int) Hashtbl.t;  (* Lan.id -> LAN slot *)
  lans : Lan.t array;  (* by slot: listed LANs first, then other attached *)
  members : int array array;  (* slot -> attached nodes, ascending, once *)
  routers : int array array;  (* slot -> the routers among [members] *)
  attach : (int * int * Ipv4.Addr.t option) array array;
  (* node -> (iface, slot, addr) of its active interfaces, by iface *)
  scan : int array array;  (* node -> its up listed slots, in scan order *)
  emit : int array;
  (* The listed LANs (repeats kept) longest prefix first, in list order
     within a length: the order table entries come out in. *)
  group : int array;  (* slot -> id shared by the slots of equal prefix *)
  (* BFS scratch, valid for the current [epoch] *)
  mutable epoch : int;
  seen : int array;  (* node -> epoch it was reached in *)
  scanned : int array;  (* slot -> epoch it was scanned in *)
  claimed : int array;  (* group -> epoch its entry was emitted in *)
  dist : int array;
  parent : int array;
  via : int array;  (* slot a node was reached over *)
  first : int array;  (* first hop from the source toward a node *)
  hop_target : Route.target option array;  (* gateway, for first hops *)
  order : int array;  (* reached nodes in BFS order *)
}

let build ~nodes ~lans =
  let nodes =
    List.sort (fun a b -> String.compare (Node.name a) (Node.name b)) nodes
    |> Array.of_list
  in
  let n = Array.length nodes in
  let index = Hashtbl.create (max 32 n) in
  Array.iteri (fun i node -> Hashtbl.replace index (Node.name node) i) nodes;
  let slot_of = Hashtbl.create 64 and rev_lans = ref [] and n_slots = ref 0 in
  let slot lan =
    match Hashtbl.find_opt slot_of (Lan.id lan) with
    | Some l -> l
    | None ->
      let l = !n_slots in
      incr n_slots;
      Hashtbl.add slot_of (Lan.id lan) l;
      rev_lans := lan :: !rev_lans;
      l
  in
  (* Listed LANs take the first slots, in first-occurrence order. *)
  let listed = List.map slot lans in
  let n_listed = !n_slots in
  let attach =
    Array.map
      (fun node ->
         Array.of_list
           (List.map (fun (i, lan, addr) -> (i, slot lan, addr))
              (Node.ifaces node)))
      nodes
  in
  let lans = Array.of_list (List.rev !rev_lans) in
  let n_lans = Array.length lans in
  let router = Array.map Node.is_router nodes in
  let rev_members = Array.make n_lans [] in
  for i = n - 1 downto 0 do
    Array.iter
      (fun (_, l, _) ->
         match rev_members.(l) with
         | j :: _ when j = i -> ()  (* two interfaces on one LAN *)
         | ms -> rev_members.(l) <- i :: ms)
      attach.(i)
  done;
  let members = Array.map Array.of_list rev_members in
  let routers =
    Array.map
      (fun ms -> Array.of_list (List.filter (fun i -> router.(i)) ms))
      rev_members
  in
  (* Scan order: LAN name, then later-listed first. *)
  let rank = Array.make n_lans 0 in
  List.init n_listed Fun.id
  |> List.sort (fun a b ->
      match String.compare (Lan.name lans.(a)) (Lan.name lans.(b)) with
      | 0 -> Int.compare b a
      | c -> c)
  |> List.iteri (fun r l -> rank.(l) <- r);
  let scan =
    Array.map
      (fun at ->
         Array.to_list at
         |> List.filter_map (fun (_, l, _) ->
             if l < n_listed && Lan.is_up lans.(l) then Some l else None)
         |> List.sort_uniq (fun a b -> Int.compare rank.(a) rank.(b))
         |> Array.of_list)
      attach
  in
  let len l = (Lan.prefix lans.(l)).Ipv4.Addr.Prefix.len in
  let emit =
    Array.of_list
      (List.stable_sort (fun a b -> Int.compare (len b) (len a)) listed)
  in
  let groups = Hashtbl.create 64 in
  let group =
    Array.map
      (fun lan ->
         let p = Lan.prefix lan in
         match Hashtbl.find_opt groups p with
         | Some g -> g
         | None ->
           let g = Hashtbl.length groups in
           Hashtbl.add groups p g;
           g)
      lans
  in
  { nodes; index; router; slot_of; lans; members; routers; attach; scan;
    emit; group;
    epoch = 0;
    seen = Array.make n (-1);
    scanned = Array.make n_lans (-1);
    claimed = Array.make (Hashtbl.length groups) (-1);
    dist = Array.make n 0;
    parent = Array.make n (-1);
    via = Array.make n (-1);
    first = Array.make n (-1);
    hop_target = Array.make n None;
    order = Array.make n 0 }

(* Sort [a.(lo) .. a.(hi - 1)] ascending; one expansion's batch is
   usually already sorted (it came from a single LAN). *)
let sort_range a lo hi =
  let rec sorted i = i >= hi || (a.(i - 1) <= a.(i) && sorted (i + 1)) in
  if not (sorted (lo + 1)) then begin
    let sub = Array.sub a lo (hi - lo) in
    Array.sort Int.compare sub;
    Array.blit sub 0 a lo (hi - lo)
  end

(* BFS from [s]; only routers (and [s] itself) are expanded.  Returns how
   many nodes it reached; results live in the graph's scratch arrays,
   tagged with the new epoch, until the next [bfs] call. *)
let bfs g s =
  g.epoch <- g.epoch + 1;
  let e = g.epoch in
  g.seen.(s) <- e;
  g.dist.(s) <- 0;
  g.parent.(s) <- -1;
  g.order.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = g.order.(!head) in
    incr head;
    if u = s || g.router.(u) then begin
      let batch = !tail and d = g.dist.(u) + 1 in
      Array.iter
        (fun l ->
           if g.scanned.(l) <> e then begin
             g.scanned.(l) <- e;
             Array.iter
               (fun v ->
                  if g.seen.(v) <> e then begin
                    g.seen.(v) <- e;
                    g.dist.(v) <- d;
                    g.parent.(v) <- u;
                    g.via.(v) <- l;
                    g.order.(!tail) <- v;
                    incr tail
                  end)
               g.members.(l)
           end)
        g.scan.(u);
      sort_range g.order batch !tail
    end
  done;
  !tail

(* The nearest reached router attached to slot [l] (ties: smallest name),
   or -1. *)
let egress g l =
  let e = g.epoch in
  Array.fold_left
    (fun best r ->
       if g.seen.(r) <> e then best
       else if best < 0 || g.dist.(r) < g.dist.(best) then r
       else best)
    (-1) g.routers.(l)

let iface_on g i l =
  Array.fold_left
    (fun acc (j, l', _) -> if acc < 0 && l' = l then j else acc)
    (-1) g.attach.(i)

(* Node [i]'s first address on slot [l]. *)
let addr_on g i l =
  Array.fold_left
    (fun acc (_, l', addr) ->
       match acc with Some _ -> acc | None -> if l' = l then addr else None)
    None g.attach.(i)

(* Node [s]'s table.  First hops come from one pass in BFS order (parents
   precede children), each with its gateway target built once.  Walking
   [emit] backwards, the first LAN of a prefix to produce an entry is the
   last listed one — the entry a later duplicate prefix leaves standing —
   and prepending leaves the list longest prefix first. *)
let table g s =
  let reached = bfs g s in
  let e = g.epoch in
  for k = 1 to reached - 1 do
    let v = g.order.(k) in
    let p = g.parent.(v) in
    if p = s then begin
      g.first.(v) <- v;
      (* [None]: the neighbour has no address on the connecting LAN *)
      g.hop_target.(v) <-
        Option.map (fun gw -> Route.Via gw) (addr_on g v g.via.(v))
    end
    else g.first.(v) <- g.first.(p)
  done;
  let target l =
    match iface_on g s l with
    | -1 ->
      (match egress g l with
       | -1 -> None (* unreachable network *)
       | r -> g.hop_target.(g.first.(r)))
    | i -> Some (Route.Direct i)
  in
  let entries = ref [] in
  for k = Array.length g.emit - 1 downto 0 do
    let l = g.emit.(k) in
    let grp = g.group.(l) in
    if g.claimed.(grp) <> e && Lan.is_up g.lans.(l) then
      match target l with
      | None -> ()
      | Some target ->
        g.claimed.(grp) <- e;
        entries := { Route.prefix = Lan.prefix g.lans.(l); target } :: !entries
  done;
  Route.of_entries !entries

(* Full-table sweeps performed process-wide.  Atomic because parallel
   sweep trials build topologies from worker domains; the total after a
   sweep has joined its workers is deterministic (a sum of per-trial
   increments), even though interleavings are not. *)
let recomputes = Atomic.make 0

let recompute_count () = Atomic.get recomputes

let compute_graph g =
  Atomic.incr recomputes;
  let shared = Hashtbl.create 64 in
  Array.iteri
    (fun s node ->
       let routes =
         if g.router.(s) then table g s
         else
           let key = Array.map (fun (i, l, _) -> (i, l)) g.attach.(s) in
           match Hashtbl.find_opt shared key with
           | Some routes -> routes
           | None ->
             let routes = table g s in
             Hashtbl.add shared key routes;
             routes
       in
       Node.set_routes node routes)
    g.nodes

let compute ~nodes ~lans = compute_graph (build ~nodes ~lans)

let path_lengths_graph g ~src ~dst_lans =
  match Hashtbl.find_opt g.index (Node.name src) with
  | None -> List.map (fun _ -> None) dst_lans
  | Some s ->
    ignore (bfs g s);
    List.map
      (fun lan ->
         match Hashtbl.find_opt g.slot_of (Lan.id lan) with
         | None -> None (* no node is attached to it *)
         | Some l when iface_on g s l >= 0 -> Some 1
         | Some l ->
           match egress g l with
           | -1 -> None
           | r -> Some (g.dist.(r) + 1))
      dst_lans

let path_length_graph g ~src ~dst_lan =
  List.hd (path_lengths_graph g ~src ~dst_lans:[dst_lan])

let graph_of_nodes nodes =
  let lans =
    (* collect every LAN any node is attached to *)
    List.concat_map (fun n -> List.map (fun (_, l, _) -> l) (Node.ifaces n))
      nodes
  in
  build ~nodes ~lans

let path_length ~nodes ~src ~dst_lan =
  path_length_graph (graph_of_nodes nodes) ~src ~dst_lan
