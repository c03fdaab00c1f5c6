(* Test-only reference for [Lsr.Router.spf_now]: the SPF the router ran
   before its dense router index, over polymorphic hashtables keyed by
   router id — BFS with the mutual-listing check on first reach, each
   prefix to the least (distance, router id), self-owned prefixes only
   where [Node.iface_to] finds them, and the table assembled with
   [Route.bulk (routes @ preserved)].  Slow, but every tie-break is plain
   in the code; the property tests hold the router to it entry for
   entry. *)

module Addr = Ipv4.Addr
module Node = Net.Node
module Route = Net.Route
module LP = Lsr.Packet

(* The table SPF installs at [node], router id [self], over [lsdb]
   ((origin, links) pairs, one per origin), and the number of routes SPF
   itself contributes to it. *)
let spf ~self ~lsdb ~preserve_host_routes node =
  let self = Addr.to_int self in
  let db : (int, LP.link list) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (o, links) -> Hashtbl.replace db (Addr.to_int o) links) lsdb;
  let links_of r = Option.value ~default:[] (Hashtbl.find_opt db r) in
  let dist : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let entry : (int, Addr.t) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  Hashtbl.replace dist self 0;
  Queue.push self q;
  while not (Queue.is_empty q) do
    let r = Queue.pop q in
    let d = Hashtbl.find dist r in
    List.iter
      (fun (l : LP.link) ->
         List.iter
           (fun naddr ->
              let n = Addr.to_int naddr in
              if not (Hashtbl.mem dist n) then
                match
                  List.find_opt
                    (fun (nl : LP.link) ->
                       Addr.Prefix.equal nl.prefix l.prefix
                       && List.exists (fun a -> Addr.to_int a = r) nl.neighbors)
                    (links_of n)
                with
                | None -> ()
                | Some nl ->
                  Hashtbl.replace dist n (d + 1);
                  Hashtbl.replace entry n
                    (if r = self then nl.addr else Hashtbl.find entry r);
                  Queue.push n q)
           l.neighbors)
      (links_of r)
  done;
  let best : (Addr.Prefix.t, int * int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun r links ->
       match Hashtbl.find_opt dist r with
       | None -> ()
       | Some d ->
         List.iter
           (fun (l : LP.link) ->
              match Hashtbl.find_opt best l.prefix with
              | Some (d', r') when (d', r') <= (d, r) -> ()
              | _ -> Hashtbl.replace best l.prefix (d, r))
           links)
    db;
  let routes =
    Hashtbl.fold
      (fun p (_, r) acc ->
         if r = self then
           match Node.iface_to node p with
           | Some i -> (p, Route.Direct i) :: acc
           | None -> acc
         else (p, Route.Via (Hashtbl.find entry r)) :: acc)
      best []
    |> List.sort (fun (p, _) (p', _) -> Addr.Prefix.compare p p')
  in
  let preserved =
    if not preserve_host_routes then []
    else
      List.filter_map
        (fun (e : Route.entry) ->
           if e.prefix.Addr.Prefix.len = 32 then Some (e.prefix, e.target)
           else None)
        (Route.entries (Node.routes node))
  in
  (Route.bulk (routes @ preserved), List.length routes)
