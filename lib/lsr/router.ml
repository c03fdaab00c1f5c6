module Addr = Ipv4.Addr
module Node = Net.Node
module Lan = Net.Lan
module Route = Net.Route
module Engine = Netsim.Engine

(* A stored LSA link as SPF reads it: the prefix packed to an int key
   and each listed neighbour resolved to its dense slot, so the BFS and
   the prefix election index flat arrays and never hash.  The decoded
   [Packet.link] is not kept: {!links_at} rebuilds it exactly. *)
type dlink = {
  pkey : int;  (* prefix base lsl 6 lor len *)
  daddr : Addr.t;
  nbrs : int array;  (* neighbour slots, in listing order *)
}

type t = {
  node : Node.t;
  cfg : Config.t;
  id : Addr.t;
  stagger : Netsim.Time.t;
  counters : Counters.t;
  (* Volatile protocol state, cleared by reboot. *)
  neighbors : Ipv4.Int_table.t;
  (* [iface lsl 32 lor origin] -> last heard *)
  mutable pending_sync : int list;
  (* neighbor keys (as above) newly heard, owed a database broadcast *)
  (* [build_links] as last computed, valid while the neighbor key set,
     the interface list (physically: Node rebuilds it on change) and
     those interfaces' LAN up states stay as they were. *)
  mutable nbrs_changed : bool;
  mutable memo_ifaces : (int * Lan.t * Addr.t option) list;
  mutable memo_up : bool list;
  mutable memo_links : Packet.link list;
  mutable last_links : Packet.link list option;  (* as last originated *)
  mutable last_origination : Netsim.Time.t;
  mutable force_originate : bool;
  mutable spf_pending : bool;
  (* The LSDB, over a dense router index: every origin or neighbour id
     ever seen gets the next slot for good (reboot empties the LSDB but
     keeps the numbering).  The slot arrays share one capacity. *)
  slots : Ipv4.Int_table.t;  (* router id -> slot *)
  mutable n_slots : int;
  mutable ids : int array;  (* slot -> router id *)
  mutable seqs : int array;  (* slot -> stored sequence number, -1: none *)
  mutable lsas : dlink array array;  (* slot -> stored links *)
  mutable lsdb_count : int;
  (* SPF scratch: [mark.(s) = epoch] iff slot s was reached this run. *)
  mutable epoch : int;
  mutable mark : int array;
  mutable dist : int array;
  mutable hop : Addr.t array;  (* first-hop gateway *)
  mutable queue : int array;
  best : Ipv4.Int_table.t;  (* prefix key -> dist lsl 32 lor router id *)
  (* NVRAM: survives reboot so the router outranks its own stale LSAs. *)
  mutable own_seq : int;
  mutable started : bool;
}

let node t = t.node
let router_id t = t.id
let config t = t.cfg
let counters t = t.counters
let neighbor_count t = Ipv4.Int_table.length t.neighbors
let lsdb_size t = t.lsdb_count

let prefix_key (p : Addr.Prefix.t) = (Addr.to_int p.base lsl 6) lor p.len

let prefix_of_key pkey =
  Addr.Prefix.make (Addr.of_int (pkey lsr 6)) (pkey land 63)

(* Slot of router [id], or -1 if never seen. *)
let find_slot t id = Ipv4.Int_table.find t.slots id ~default:(-1)

let stored_seq t id =
  let s = find_slot t id in
  if s < 0 then -1 else t.seqs.(s)

let links_at t s =
  Array.fold_right
    (fun d acc ->
       { Packet.prefix = prefix_of_key d.pkey; addr = d.daddr;
         neighbors =
           Array.fold_right
             (fun n acc -> Addr.of_int t.ids.(n) :: acc)
             d.nbrs [] }
       :: acc)
    t.lsas.(s) []

let lsdb_seq t origin =
  let seq = stored_seq t (Addr.to_int origin) in
  if seq < 0 then None else Some seq

let lsdb_fold t f acc =
  let acc = ref acc in
  for s = 0 to t.n_slots - 1 do
    if t.seqs.(s) >= 0 then
      acc := f (Addr.of_int t.ids.(s)) t.seqs.(s) (links_at t s) !acc
  done;
  !acc

let slot_for t id =
  let s = find_slot t id in
  if s >= 0 then s
  else begin
    let s = t.n_slots in
    let cap = Array.length t.ids in
    if s = cap then begin
      let grow a fill =
        let b = Array.make (2 * cap) fill in
        Array.blit a 0 b 0 cap;
        b
      in
      t.ids <- grow t.ids 0;
      t.seqs <- grow t.seqs (-1);
      t.lsas <- grow t.lsas [||];
      t.mark <- grow t.mark 0;
      t.dist <- grow t.dist 0;
      t.hop <- grow t.hop Addr.zero;
      t.queue <- grow t.queue 0
    end;
    t.ids.(s) <- id;
    t.n_slots <- s + 1;
    Ipv4.Int_table.replace t.slots id s;
    s
  end

(* Structural equality of decoded links with stored ones, without
   rebuilding either: a neighbour matches iff it is the id of the stored
   slot. *)
let rec same_nbrs ids nbrs k = function
  | [] -> k = Array.length nbrs
  | a :: rest ->
    k < Array.length nbrs
    && Addr.to_int a = ids.(nbrs.(k))
    && same_nbrs ids nbrs (k + 1) rest

let rec same_links ids stored i = function
  | [] -> i = Array.length stored
  | (l : Packet.link) :: rest ->
    i < Array.length stored
    && (let d = stored.(i) in
        d.pkey = prefix_key l.prefix
        && Addr.equal d.daddr l.addr
        && same_nbrs ids d.nbrs 0 l.neighbors)
    && same_links ids stored (i + 1) rest

(* Store an LSA; true when its links differ from those stored before
   (or none were).  Equal links (a refresh) keep the stored form. *)
let install t origin seq links =
  let s = slot_for t origin in
  let had = t.seqs.(s) >= 0 in
  let same = had && same_links t.ids t.lsas.(s) 0 links in
  if not same then begin
    let dlinks =
      Array.of_list
        (List.map
           (fun (l : Packet.link) ->
              { pkey = prefix_key l.prefix; daddr = l.addr;
                nbrs =
                  Array.of_list
                    (List.map (fun a -> slot_for t (Addr.to_int a))
                       l.neighbors) })
           links)
    in
    t.lsas.(s) <- dlinks
  end;
  if not had then t.lsdb_count <- t.lsdb_count + 1;
  t.seqs.(s) <- seq;
  not same

let engine t = Node.engine t.node
let now t = Engine.now (engine t)

(* Which interface a control packet arrived on ([-1]: none): the one
   whose LAN prefix contains the source address.  Node's protocol
   handlers do not carry the arrival interface, but LSR neighbors are by
   construction addressed within the shared LAN's prefix, so this
   inference is exact. *)
let rec arrival_iface src = function
  | [] -> -1
  | (i, lan, _) :: rest ->
    if Addr.Prefix.mem src (Lan.prefix lan) then i
    else arrival_iface src rest

let transmit t ~iface ~src payload =
  let pkt =
    Ipv4.Packet.make ~ttl:1 ~proto:Ipv4.Proto.lsrp ~src ~dst:Addr.broadcast
      payload
  in
  let c = t.counters in
  c.Counters.bytes_sent <- c.Counters.bytes_sent + Ipv4.Packet.total_length pkt;
  Node.broadcast_ip t.node ~iface pkt

let send_hello t ~iface ~src =
  let c = t.counters in
  c.Counters.hellos_sent <- c.Counters.hellos_sent + 1;
  transmit t ~iface ~src (Packet.encode (Packet.Hello { origin = t.id }))

(* Broadcast one LSA on every up, addressed interface except [skip]
   (split horizon: never back out the interface it arrived on; [-1]
   skips none). *)
let flood t ?(skip = -1) msg =
  let payload = Packet.encode msg in
  let c = t.counters in
  List.iter
    (fun (i, lan, addr_opt) ->
       match addr_opt with
       | Some src when Lan.is_up lan && i <> skip ->
         c.Counters.lsas_sent <- c.Counters.lsas_sent + 1;
         transmit t ~iface:i ~src payload
       | _ -> ())
    (Node.ifaces t.node)

(* {2 SPF} *)

let rec mem_slot a x i =
  i < Array.length a && (Array.unsafe_get a i = x || mem_slot a x (i + 1))

(* Index of the first of [n]'s links on prefix [pkey] that lists slot
   [r], or [-1]: the bidirectionality check that keeps a crashed
   router's lingering LSA from attracting traffic (nobody alive still
   lists it). *)
let rec mutual_link links pkey r i =
  if i >= Array.length links then -1
  else
    let l = Array.unsafe_get links i in
    if l.pkey = pkey && mem_slot l.nbrs r 0 then i
    else mutual_link links pkey r (i + 1)

(* Breadth-first over the dense index from [self]: an edge R—N across
   prefix P exists only when both LSAs list each other on P, checked
   when N is first reached.  First reach fixes N's distance and first
   hop (N's address on that link when R is [self], else R's first hop);
   returns the number of slots reached, in [t.queue]. *)
let bfs t self =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  let mark = t.mark and dist = t.dist and hop = t.hop and queue = t.queue
  and lsas = t.lsas in
  mark.(self) <- epoch;
  dist.(self) <- 0;
  queue.(0) <- self;
  let tail = ref 1 and head = ref 0 in
  while !head < !tail do
    let r = queue.(!head) in
    incr head;
    let links = lsas.(r) in
    for li = 0 to Array.length links - 1 do
      let l = links.(li) in
      let nbrs = l.nbrs in
      for ni = 0 to Array.length nbrs - 1 do
        let n = nbrs.(ni) in
        if mark.(n) <> epoch then begin
          let nlinks = lsas.(n) in
          let nl = mutual_link nlinks l.pkey r 0 in
          if nl >= 0 then begin
            mark.(n) <- epoch;
            dist.(n) <- dist.(r) + 1;
            hop.(n) <- (if r = self then nlinks.(nl).daddr else hop.(r));
            queue.(!tail) <- n;
            incr tail
          end
        end
      done
    done
  done;
  !tail

(* Sort key over packed prefix keys: longest first, then ascending base
   — the order [Route.entries] lists a table in. *)
let emit_order pkey = ((32 - (pkey land 63)) lsl 38) lor pkey

let spf_now t =
  if Node.is_up t.node then begin
    let c = t.counters in
    c.Counters.spf_runs <- c.Counters.spf_runs + 1;
    let self_id = Addr.to_int t.id in
    let self = slot_for t self_id in
    let reached = bfs t self in
    (* Destination prefixes: every network any reachable router claims to
       be attached to, owned by the closest such router (ties to the
       lowest router id — the distributed analogue of the oracle's
       tie-break on node name).  [dist lsl 32 lor id] orders exactly as
       the pair (dist, id). *)
    let best = t.best in
    Ipv4.Int_table.reset best;
    for q = 0 to reached - 1 do
      let r = t.queue.(q) in
      let v = (t.dist.(r) lsl 32) lor t.ids.(r) in
      Array.iter
        (fun l ->
           if v < Ipv4.Int_table.find best l.pkey ~default:max_int then
             Ipv4.Int_table.replace best l.pkey v)
        t.lsas.(r)
    done;
    let order = Array.make (Ipv4.Int_table.length best) 0 in
    let n = ref 0 in
    Ipv4.Int_table.iter
      (fun pkey _ ->
         order.(!n) <- emit_order pkey;
         incr n)
      best;
    (* not [Array.sort]: its heap sort raises an exception per sift *)
    Array.stable_sort Int.compare order;
    (* Host routes already installed survive when configured; as with
       [Route.bulk (routes @ preserved)], a preserved /32 overrides an
       SPF /32 on the same prefix and the /32s SPF keeps come first. *)
    let preserved =
      if not t.cfg.Config.preserve_host_routes then []
      else
        List.filter
          (fun (e : Route.entry) -> e.prefix.Addr.Prefix.len = 32)
          (Route.entries (Node.routes t.node))
    in
    let installed = ref 0 and hosts = ref [] and nets = ref [] in
    for k = Array.length order - 1 downto 0 do
      let pkey = order.(k) land ((1 lsl 38) - 1) in
      let len = pkey land 63 in
      let prefix = prefix_of_key pkey in
      let id = Ipv4.Int_table.find best pkey ~default:0 land 0xFFFF_FFFF in
      let target =
        if id = self_id then
          Option.map (fun i -> Route.Direct i) (Node.iface_to t.node prefix)
        else
          Some
            (Route.Via t.hop.(Ipv4.Int_table.find t.slots id ~default:0))
      in
      match target with
      | None -> ()
      | Some target ->
        incr installed;
        let e = { Route.prefix; target } in
        if len < 32 then nets := e :: !nets
        else if
          not
            (List.exists
               (fun (p : Route.entry) -> Addr.Prefix.equal p.prefix prefix)
               preserved)
        then hosts := e :: !hosts
    done;
    c.Counters.routes_installed <- c.Counters.routes_installed + !installed;
    Node.set_routes t.node
      (Route.of_entries (!hosts @ preserved @ !nets))
  end

let schedule_spf t =
  if not t.spf_pending then begin
    t.spf_pending <- true;
    ignore
      (Engine.schedule_after (engine t) ~delay:t.cfg.Config.spf_delay
         (fun () ->
            t.spf_pending <- false;
            spf_now t))
  end

(* {2 Origination and flooding} *)

let key_iface key = key lsr 32
let key_origin key = key land 0xFFFF_FFFF

let rec same_up ifaces ups =
  match (ifaces, ups) with
  | [], [] -> true
  | (_, lan, _) :: ifaces, up :: ups ->
    Lan.is_up lan = up && same_up ifaces ups
  | _ -> false

let build_links t =
  let ifaces = Node.ifaces t.node in
  if
    t.nbrs_changed || ifaces != t.memo_ifaces
    || not (same_up ifaces t.memo_up)
  then begin
    t.memo_links <-
      List.filter_map
        (fun (i, lan, addr_opt) ->
           match addr_opt with
           | Some addr when Lan.is_up lan ->
             let nbrs =
               Ipv4.Int_table.fold
                 (fun key _ acc ->
                    if key_iface key = i then key_origin key :: acc else acc)
                 t.neighbors []
               |> List.sort_uniq Int.compare
               |> List.map Addr.of_int
             in
             Some { Packet.prefix = Lan.prefix lan; addr; neighbors = nbrs }
           | _ -> None)
        ifaces;
    t.nbrs_changed <- false;
    t.memo_ifaces <- ifaces;
    t.memo_up <- List.map (fun (_, lan, _) -> Lan.is_up lan) ifaces
  end;
  t.memo_links

let settled t =
  (not t.spf_pending)
  && (not t.force_originate)
  && t.pending_sync = []
  && t.last_links = Some (build_links t)

let reoriginate t =
  let links = build_links t in
  let changed = t.last_links <> Some links in
  t.own_seq <- t.own_seq + 1;
  t.last_links <- Some links;
  t.last_origination <- now t;
  t.force_originate <- false;
  ignore (install t (Addr.to_int t.id) t.own_seq links);
  let c = t.counters in
  c.Counters.lsas_originated <- c.Counters.lsas_originated + 1;
  flood t (Packet.Lsa { origin = t.id; seq = t.own_seq; links });
  (* A pure refresh carries no news; only a content change costs SPF. *)
  if changed then schedule_spf t

(* Bring a new neighbor's database up to date: broadcast every stored LSA
   on the interface it appeared on.  Duplicates cost one suppressed flood
   at routers that already have them. *)
let db_sync t iface =
  match List.find_opt (fun (i, _, _) -> i = iface) (Node.ifaces t.node) with
  | Some (_, lan, Some src) when Lan.is_up lan ->
    let c = t.counters in
    lsdb_fold t (fun o seq links acc -> (o, seq, links) :: acc) []
    |> List.sort (fun (o, _, _) (o', _, _) -> Addr.compare o o')
    |> List.iter (fun (origin, seq, links) ->
        c.Counters.lsas_sent <- c.Counters.lsas_sent + 1;
        transmit t ~iface ~src
          (Packet.encode (Packet.Lsa { origin; seq; links })))
  | _ -> ()

(* {2 Receive paths} *)

let on_hello t iface origin =
  let o = Addr.to_int origin in
  if o <> Addr.to_int t.id then begin
    let key = (iface lsl 32) lor o in
    let fresh = not (Ipv4.Int_table.mem t.neighbors key) in
    Ipv4.Int_table.replace t.neighbors key (now t);
    if fresh then begin
      t.nbrs_changed <- true;
      let c = t.counters in
      c.Counters.neighbors_up <- c.Counters.neighbors_up + 1;
      if not (List.mem key t.pending_sync) then
        t.pending_sync <- key :: t.pending_sync
    end
  end

let on_lsa t iface origin seq links =
  let c = t.counters in
  if Addr.equal origin t.id then begin
    (* An echo of our own LSA.  With the sequence number in NVRAM this is
       normally stale; defend anyway by outbidding anything newer. *)
    if seq >= t.own_seq then begin
      t.own_seq <- seq;
      t.force_originate <- true
    end
    else c.Counters.floods_suppressed <- c.Counters.floods_suppressed + 1
  end
  else
    let o = Addr.to_int origin in
    if stored_seq t o >= seq then
      c.Counters.floods_suppressed <- c.Counters.floods_suppressed + 1
    else begin
      let changed = install t o seq links in
      flood t ~skip:iface (Packet.Lsa { origin; seq; links });
      (* Refresh floods renew the sequence number but carry the same
         content; SPF is owed only when the links actually changed. *)
      if changed then schedule_spf t
    end

let handle t pkt =
  let c = t.counters in
  c.Counters.bytes_received <-
    c.Counters.bytes_received + Ipv4.Packet.total_length pkt;
  let iface = arrival_iface pkt.Ipv4.Packet.src (Node.ifaces t.node) in
  if iface >= 0 then
    match Packet.decode pkt.Ipv4.Packet.payload with
    | exception Invalid_argument _ -> ()
    | Packet.Hello { origin } ->
      c.Counters.hellos_received <- c.Counters.hellos_received + 1;
      on_hello t iface origin
    | Packet.Lsa { origin; seq; links } ->
      c.Counters.lsas_received <- c.Counters.lsas_received + 1;
      on_lsa t iface origin seq links

(* {2 The tick} *)

let tick t =
  if Node.is_up t.node then begin
    let c = t.counters in
    let now_ = now t in
    let dead_after = t.cfg.Config.dead_count * t.cfg.Config.hello_interval in
    let dead =
      Ipv4.Int_table.fold
        (fun key last_heard acc ->
           if now_ - last_heard > dead_after then key :: acc else acc)
        t.neighbors []
    in
    List.iter
      (fun key ->
         Ipv4.Int_table.remove t.neighbors key;
         t.nbrs_changed <- true;
         c.Counters.neighbors_down <- c.Counters.neighbors_down + 1)
      dead;
    let links = build_links t in
    if
      t.force_originate
      || t.last_links <> Some links
      || now_ - t.last_origination >= t.cfg.Config.refresh_interval
    then reoriginate t;
    (* Database synchronisation, coalesced per interface and designated:
       for each newly-heard neighbor O on a LAN, the responder is the
       lowest-id live participant other than O.  Exactly one (sometimes,
       transiently, two) full-database broadcast per LAN answers however
       many routers appeared at once — without the rule, a cold-started
       256-router backbone would see N full databases broadcast to N
       receivers.  Excluding O from the election keeps a rebooted
       lowest-id router from electing itself to serve its own (empty)
       database while everyone else stays silent. *)
    let pending = t.pending_sync in
    t.pending_sync <- [];
    let self_id = Addr.to_int t.id in
    let syncs =
      List.filter_map
        (fun key ->
           if not (Ipv4.Int_table.mem t.neighbors key) then None
           else
             let iface = key_iface key in
             let min_other =
               Ipv4.Int_table.fold
                 (fun k _ acc ->
                    if key_iface k = iface && k <> key then
                      min (key_origin k) acc
                    else acc)
                 t.neighbors self_id
             in
             if min_other = self_id then Some iface else None)
        pending
      |> List.sort_uniq Int.compare
    in
    List.iter (db_sync t) syncs;
    List.iter
      (fun (i, lan, addr_opt) ->
         match addr_opt with
         | Some src when Lan.is_up lan -> send_hello t ~iface:i ~src
         | _ -> ())
      (Node.ifaces t.node)
  end

let create ?(config = Config.default) ?(stagger = Netsim.Time.zero) node =
  let cap = 16 in
  let t =
    { node; cfg = config; id = Node.primary_addr node; stagger;
      counters = Counters.create ();
      neighbors = Ipv4.Int_table.create (); pending_sync = [];
      nbrs_changed = true; memo_ifaces = []; memo_up = []; memo_links = [];
      last_links = None; last_origination = Netsim.Time.zero;
      force_originate = false; spf_pending = false;
      slots = Ipv4.Int_table.create ~capacity:cap (); n_slots = 0;
      ids = Array.make cap 0; seqs = Array.make cap (-1);
      lsas = Array.make cap [||]; lsdb_count = 0;
      epoch = 0; mark = Array.make cap 0; dist = Array.make cap 0;
      hop = Array.make cap Addr.zero; queue = Array.make cap 0;
      best = Ipv4.Int_table.create ~capacity:64 ();
      own_seq = 0; started = false }
  in
  Node.set_proto_handler node Ipv4.Proto.lsrp (fun _ pkt -> handle t pkt);
  Node.on_reboot node (fun _ ->
      Ipv4.Int_table.reset t.neighbors;
      t.nbrs_changed <- true;
      Array.fill t.seqs 0 t.n_slots (-1);
      Array.fill t.lsas 0 t.n_slots [||];
      t.lsdb_count <- 0;
      t.pending_sync <- [];
      t.last_links <- None;
      t.force_originate <- true);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    let e = engine t in
    ignore
      (Engine.schedule_after e ~delay:t.stagger (fun () ->
           tick t;
           Engine.every e ~interval:t.cfg.Config.hello_interval (fun () ->
               tick t)))
  end
