module Time = Netsim.Time
module Engine = Netsim.Engine

type forward_action =
  | Forward
  | Replace of Ipv4.Packet.t
  | Consume
  | Drop of string

type icmp_quote = Quote_min | Quote_full

type iface_state = {
  lan : Lan.t;
  mac : Mac.t;
  addr : Ipv4.Addr.t option;
  mutable active : bool;
}

type t = {
  engine : Engine.t;
  mac_alloc : Mac.Alloc.t;
  name : string;
  router : bool;
  proc_delay : Time.t;
  option_slow_factor : int;
  icmp_quote : icmp_quote;
  arp_timeout : Time.t;
  arp_entry_ttl : Time.t;
  tr : Netsim.Trace.t option;
  mutable ifaces : iface_state array;
  mutable extra_addrs : Ipv4.Addr.t list;
  mutable addrs : Ipv4.Addr.t array;
  (* [addresses] as an array: active interface addresses in slot order,
     then [extra_addrs].  Rebuilt by [refresh_addrs] on every change, so
     per-frame [has_address] never walks the slots a roaming host's past
     attachments left behind. *)
  mutable live : (int * Lan.t * Ipv4.Addr.t option) list;
  (* [ifaces]: the active interfaces, ascending by index.  Rebuilt with
     [addrs], so per-packet readers (link-state receive, agents) share
     one list instead of deriving it per call. *)
  mutable table : Route.t;
  arp_cache : (Ipv4.Addr.t, Mac.t * Time.t) Hashtbl.t;
  (* binding plus the time it was learned *)
  mutable arp_pending : (Ipv4.Addr.t * int * Ipv4.Packet.t) list;
  reassembly : Ipv4.Packet.Reassembly.t;
  arp_tries : (Ipv4.Addr.t, int) Hashtbl.t;
  proto_handlers : (int, t -> Ipv4.Packet.t -> unit) Hashtbl.t;
  (* [None] means the built-in default (refuse / plain Forward).  Kept
     as options so the forwarding fast path can see at a glance that no
     stack is watching and skip the full decode (see [fast_rx]). *)
  mutable accept_ip : (t -> Ipv4.Packet.t -> bool) option;
  mutable rewrite_forward : (t -> Ipv4.Packet.t -> forward_action) option;
  mutable arp_proxy : Ipv4.Addr.t -> bool;
  mutable reboot_hooks : (t -> unit) list;
  mutable deliver_taps : (t -> Ipv4.Packet.t -> unit) list;
  mutable forward_taps : (t -> Ipv4.Packet.t -> unit) list;
  mutable transmit_taps : (t -> Ipv4.Packet.t -> unit) list;
  mutable broadcast_taps : (t -> Ipv4.Packet.t -> unit) list;
  mutable drop_taps : (t -> string -> Ipv4.Packet.t -> unit) list;
  (* Fault injection: when set, a [false] verdict loses the outgoing
     packet (counted as a drop) just before it would reach the wire. *)
  mutable fault_filter : (t -> Ipv4.Packet.t -> bool) option;
  mutable up : bool;
  mutable n_forwarded : int;
  mutable n_fast_forwarded : int;
  (* subset of [n_forwarded] that took the zero-copy view path *)
  mutable n_delivered : int;
  mutable n_originated : int;
  mutable n_dropped : int;
}

let arp_max_tries = 3

let create ~engine ~mac_alloc ?trace ?(router = false) ?proc_delay
    ?(option_slow_factor = 8) ?(icmp_quote = Quote_min)
    ?(arp_timeout = Time.of_ms 500) ?(arp_entry_ttl = Time.of_sec 60.0)
    name =
  let proc_delay =
    match proc_delay with
    | Some d -> d
    | None -> if router then Time.of_us 50 else Time.of_us 20
  in
  { engine; mac_alloc; name; router; proc_delay; option_slow_factor;
    icmp_quote;
    arp_timeout; arp_entry_ttl; tr = trace;
    ifaces = [||]; extra_addrs = []; addrs = [||]; live = [];
    table = Route.empty;
    arp_cache = Hashtbl.create 16;
    arp_pending = [];
    reassembly = Ipv4.Packet.Reassembly.create ();
    arp_tries = Hashtbl.create 8;
    proto_handlers = Hashtbl.create 8;
    accept_ip = None;
    rewrite_forward = None;
    arp_proxy = (fun _ -> false);
    reboot_hooks = [];
    deliver_taps = [];
    forward_taps = [];
    transmit_taps = [];
    broadcast_taps = [];
    drop_taps = [];
    fault_filter = None;
    up = true;
    n_forwarded = 0; n_fast_forwarded = 0; n_delivered = 0;
    n_originated = 0; n_dropped = 0 }

let name t = t.name
let engine t = t.engine
let is_router t = t.router
let trace t = t.tr

let tracef t kind fmt =
  Netsim.Trace.emitf t.tr ~at:(Engine.now t.engine) ~node:t.name ~kind fmt

(* --- addresses --- *)

let refresh_addrs t =
  let on_ifaces =
    Array.to_list t.ifaces
    |> List.filter_map (fun i -> if i.active then i.addr else None)
  in
  t.addrs <- Array.of_list (on_ifaces @ t.extra_addrs);
  t.live <-
    Array.to_list (Array.mapi (fun i s -> (i, s)) t.ifaces)
    |> List.filter_map (fun (i, s) ->
        if s.active then Some (i, s.lan, s.addr) else None)

let addresses t = Array.to_list t.addrs

let has_address t a =
  let rec scan i =
    i < Array.length t.addrs
    && (Ipv4.Addr.equal t.addrs.(i) a || scan (i + 1))
  in
  scan 0

let add_address t a =
  if not (List.exists (Ipv4.Addr.equal a) t.extra_addrs) then begin
    (* append: the first-claimed (home) address stays primary even when a
       temporary address is added later *)
    t.extra_addrs <- t.extra_addrs @ [a];
    refresh_addrs t
  end

let remove_address t a =
  t.extra_addrs <-
    List.filter (fun x -> not (Ipv4.Addr.equal x a)) t.extra_addrs;
  refresh_addrs t

let primary_addr t =
  if Array.length t.addrs = 0 then failwith (t.name ^ ": no address");
  t.addrs.(0)

(* --- routing --- *)

let routes t = t.table
let set_routes t table = t.table <- table
let update_routes t f = t.table <- f t.table

(* --- hooks --- *)

let set_proto_handler t proto h = Hashtbl.replace t.proto_handlers proto h
let clear_proto_handler t proto = Hashtbl.remove t.proto_handlers proto
let set_accept_ip t f = t.accept_ip <- Some f
let set_rewrite_forward t f = t.rewrite_forward <- Some f
let set_arp_proxy t f = t.arp_proxy <- f
let on_reboot t f = t.reboot_hooks <- f :: t.reboot_hooks
(* Taps multicast in registration order so a late observer (say, an
   invariant checker) cannot silently displace an earlier one (say, the
   workload metrics). *)
let on_deliver t f = t.deliver_taps <- t.deliver_taps @ [f]
let on_forward t f = t.forward_taps <- t.forward_taps @ [f]
let on_transmit t f = t.transmit_taps <- t.transmit_taps @ [f]
let on_broadcast t f = t.broadcast_taps <- t.broadcast_taps @ [f]
let on_drop t f = t.drop_taps <- t.drop_taps @ [f]
let set_fault_filter t f = t.fault_filter <- f

(* --- interface lookups --- *)

let iface t i =
  if i < 0 || i >= Array.length t.ifaces || not t.ifaces.(i).active then
    invalid_arg (Printf.sprintf "%s: no active interface %d" t.name i);
  t.ifaces.(i)

let ifaces t = t.live

let iface_lan t i = (iface t i).lan
let iface_mac t i = (iface t i).mac
let iface_addr t i = (iface t i).addr

let iface_to t prefix =
  let found = ref None in
  Array.iteri
    (fun i s ->
       if s.active && !found = None
          && Ipv4.Addr.Prefix.equal (Lan.prefix s.lan) prefix
       then found := Some i)
    t.ifaces;
  !found

let iface_for_next_hop t next_hop =
  let found = ref None in
  Array.iteri
    (fun i s ->
       if s.active && !found = None
          && Ipv4.Addr.Prefix.mem next_hop (Lan.prefix s.lan)
       then found := Some i)
    t.ifaces;
  !found

(* --- drops and counters --- *)

let drop t reason pkt =
  t.n_dropped <- t.n_dropped + 1;
  tracef t "drop" "%s: %a" reason Ipv4.Packet.pp pkt;
  List.iter (fun f -> f t reason pkt) t.drop_taps

(* --- ARP cache with entry aging --- *)

let arp_learn t addr mac =
  Hashtbl.replace t.arp_cache addr (mac, Engine.now t.engine)

let arp_fresh t addr =
  match Hashtbl.find_opt t.arp_cache addr with
  | Some (mac, at)
    when Stdlib.( < )
        (Time.to_us (Engine.now t.engine) - Time.to_us at)
        (Time.to_us t.arp_entry_ttl) ->
    Some mac
  | Some _ ->
    Hashtbl.remove t.arp_cache addr;
    None
  | None -> None

(* --- transmit --- *)

let send_arp_request t i target_ip =
  let s = iface t i in
  let sender_ip = Option.value ~default:Ipv4.Addr.zero s.addr in
  let a = Arp.request ~sender_mac:s.mac ~sender_ip ~target_ip in
  tracef t "arp-tx" "%a" Arp.pp a;
  Lan.send s.lan (Frame.arp ~src:s.mac ~dst:Mac.broadcast a)

(* Weak-host loopback: a packet addressed to one of our own addresses is
   delivered locally, never put on the wire (a router tunneling to its
   own address — the home agent doubling as its region's regional agent —
   would otherwise ARP for itself and blackhole the packet).  Tied to
   [deliver_local] below, which is mutually recursive with this send
   group through [forward_now]. *)
let deliver_local_ref : (t -> Ipv4.Packet.t -> unit) ref =
  ref (fun _ _ -> assert false)

(* ICMP error generation, used by forwarding failures.  Never generated in
   response to another ICMP error (RFC 1122) or to a broadcast. *)
let rec frame_out t i ~dst_mac pkt =
  let s = iface t i in
  let mtu = Lan.mtu s.lan in
  if Ipv4.Packet.total_length pkt > mtu then
    if pkt.Ipv4.Packet.dont_fragment then begin
      t.n_dropped <- t.n_dropped + 1;
      tracef t "drop" "needs fragmentation but DF set: %a" Ipv4.Packet.pp
        pkt;
      List.iter (fun f -> f t "df-mtu" pkt) t.drop_taps;
      (* ICMP destination unreachable, "fragmentation needed and DF set"
         (type 3 code 4) *)
      if not (has_address t pkt.Ipv4.Packet.src) then
        icmp_error t
          (fun original ->
             Ipv4.Icmp.Dest_unreachable { code = 4; original })
          pkt
    end
    else
      List.iter
        (fun fragment -> frame_out t i ~dst_mac fragment)
        (Ipv4.Packet.fragment pkt ~mtu)
  else begin
    match t.fault_filter with
    | Some f when not (f t pkt) -> drop t "fault-loss" pkt
    | _ ->
      List.iter (fun f -> f t pkt) t.transmit_taps;
      let frame =
        Frame.ip ~src:s.mac ~dst:dst_mac (Ipv4.Packet.encode pkt)
      in
      Lan.send s.lan frame
  end

and icmp_error t make_msg (offending : Ipv4.Packet.t) =
  let is_icmp_error =
    offending.Ipv4.Packet.proto = Ipv4.Proto.icmp
    && (match Ipv4.Icmp.decode_opt offending.Ipv4.Packet.payload with
        | Some (Ipv4.Icmp.Dest_unreachable _ | Ipv4.Icmp.Time_exceeded _
               | Ipv4.Icmp.Redirect _) -> true
        | Some _ | None -> false
        | exception Invalid_argument _ -> true)
  in
  if (not is_icmp_error)
     && not (Ipv4.Addr.equal offending.Ipv4.Packet.src Ipv4.Addr.broadcast)
     && not (Ipv4.Addr.is_zero offending.Ipv4.Packet.src)
     && addresses t <> []
  then begin
    let encoded = Ipv4.Packet.encode offending in
    let quoted =
      match t.icmp_quote with
      | Quote_full -> encoded
      | Quote_min ->
        let n = min (Bytes.length encoded)
            (Ipv4.Packet.header_length offending + 8) in
        Bytes.sub encoded 0 n
    in
    let msg = make_msg quoted in
    let reply =
      Ipv4.Packet.make ~proto:Ipv4.Proto.icmp ~src:(primary_addr t)
        ~dst:offending.Ipv4.Packet.src (Ipv4.Icmp.encode msg)
    in
    tracef t "icmp-tx" "%a to %a" Ipv4.Icmp.pp msg Ipv4.Addr.pp
      offending.Ipv4.Packet.src;
    route_and_send t reply
  end

and resolve_and_emit t i ~next_hop pkt =
  match arp_fresh t next_hop with
  | Some mac -> frame_out t i ~dst_mac:mac pkt
  | None ->
    t.arp_pending <- (next_hop, i, pkt) :: t.arp_pending;
    if not (Hashtbl.mem t.arp_tries next_hop) then begin
      Hashtbl.replace t.arp_tries next_hop 1;
      send_arp_request t i next_hop;
      arm_arp_timer t i next_hop
    end

and arm_arp_timer t i next_hop =
  ignore
    (Engine.schedule_after t.engine ~delay:t.arp_timeout (fun () ->
         match Hashtbl.find_opt t.arp_tries next_hop with
         | None -> () (* resolved meanwhile *)
         | Some tries when tries < arp_max_tries ->
           Hashtbl.replace t.arp_tries next_hop (tries + 1);
           if t.up then begin
             send_arp_request t i next_hop;
             arm_arp_timer t i next_hop
           end
         | Some _ ->
           Hashtbl.remove t.arp_tries next_hop;
           let stuck, rest =
             List.partition
               (fun (ip, _, _) -> Ipv4.Addr.equal ip next_hop)
               t.arp_pending
           in
           t.arp_pending <- rest;
           List.iter
             (fun (_, _, pkt) ->
                drop t "arp-timeout" pkt;
                if t.router && not (has_address t pkt.Ipv4.Packet.src) then
                  icmp_error t
                    (fun original -> Ipv4.Icmp.host_unreachable ~original)
                    pkt)
             stuck))

and route_and_send t pkt =
  if not t.up then ()
  else if has_address t pkt.Ipv4.Packet.dst then begin
    tracef t "loopback" "%a" Ipv4.Packet.pp pkt;
    !deliver_local_ref t pkt
  end
  else
    match Route.lookup t.table pkt.Ipv4.Packet.dst with
    | None ->
      drop t "no-route" pkt;
      if not (has_address t pkt.Ipv4.Packet.src) then
        icmp_error t
          (fun original ->
             Ipv4.Icmp.Dest_unreachable { code = 0; original })
          pkt
    | Some (Route.Direct i) ->
      (match iface t i with
       | exception Invalid_argument _ -> drop t "iface-down" pkt
       | _ -> resolve_and_emit t i ~next_hop:pkt.Ipv4.Packet.dst pkt)
    | Some (Route.Via gw) ->
      match iface_for_next_hop t gw with
      | None -> drop t "gateway-unreachable" pkt
      | Some i -> resolve_and_emit t i ~next_hop:gw pkt

(* --- public senders --- *)

let delayed t ~slow f =
  let d =
    if slow then
      Time.of_us (Time.to_us t.proc_delay * t.option_slow_factor)
    else t.proc_delay
  in
  ignore (Engine.schedule_after t.engine ~delay:d (fun () -> if t.up then f ()))

let send t pkt =
  t.n_originated <- t.n_originated + 1;
  tracef t "tx" "%a" Ipv4.Packet.pp pkt;
  delayed t ~slow:(Ipv4.Packet.has_options pkt) (fun () ->
      route_and_send t pkt)

let forward_now t pkt =
  delayed t ~slow:(Ipv4.Packet.has_options pkt) (fun () ->
      route_and_send t pkt)

let send_ip_to_mac t ~iface:i ~dst_mac pkt =
  delayed t ~slow:false (fun () -> frame_out t i ~dst_mac pkt)

let broadcast_ip t ~iface:i pkt =
  delayed t ~slow:false (fun () ->
      match iface t i with
      | exception Invalid_argument _ -> drop t "iface-down" pkt
      | s ->
        (match t.fault_filter with
         | Some f when not (f t pkt) -> drop t "fault-loss" pkt
         | _ ->
           List.iter (fun f -> f t pkt) t.broadcast_taps;
           let frame =
             Frame.ip ~src:s.mac ~dst:Mac.broadcast (Ipv4.Packet.encode pkt)
           in
           Lan.send s.lan frame))

let gratuitous_arp t ~iface:i ip =
  let s = iface t i in
  let a = Arp.gratuitous ~mac:s.mac ~ip in
  tracef t "arp-tx" "gratuitous %a" Arp.pp a;
  Lan.send s.lan (Frame.arp ~src:s.mac ~dst:Mac.broadcast a)

(* Drop any cached entry first: a probe asks whether the target is on
   the LAN *now*, and a stale cached answer would make the verification
   vacuous. *)
let arp_probe t ~iface:i target =
  Hashtbl.remove t.arp_cache target;
  send_arp_request t i target

let arp_cache_lookup t a = arp_fresh t a
let arp_cache_size t = Hashtbl.length t.arp_cache

(* --- receive path --- *)

let flush_arp_pending t resolved_ip =
  Hashtbl.remove t.arp_tries resolved_ip;
  let ready, rest =
    List.partition
      (fun (ip, _, _) -> Ipv4.Addr.equal ip resolved_ip)
      t.arp_pending
  in
  t.arp_pending <- rest;
  (* restore scheduling order *)
  List.iter
    (fun (_, i, pkt) -> resolve_and_emit t i ~next_hop:resolved_ip pkt)
    (List.rev ready)

let handle_arp t i (a : Arp.t) =
  (* Learn the sender binding from every ARP we hear: replies and
     gratuitous broadcasts update caches (Section 2 relies on this). *)
  (match a.Arp.op with
   | Arp.Reply ->
     arp_learn t a.Arp.sender_ip a.Arp.sender_mac;
     flush_arp_pending t a.Arp.sender_ip
   | Arp.Request ->
     (* Standard ARP: learn requester binding only if we already track it
        or the request is addressed to us (keeps caches small). *)
     if Hashtbl.mem t.arp_cache a.Arp.sender_ip then
       arp_learn t a.Arp.sender_ip a.Arp.sender_mac);
  match a.Arp.op with
  | Arp.Reply -> ()
  | Arp.Request ->
    let target = a.Arp.target_ip in
    let mine =
      match (iface t i).addr with
      | Some my -> Ipv4.Addr.equal my target || has_address t target
      | None -> has_address t target
    in
    if mine || t.arp_proxy target then begin
      arp_learn t a.Arp.sender_ip a.Arp.sender_mac;
      let s = iface t i in
      let reply =
        Arp.reply ~sender_mac:s.mac ~sender_ip:target
          ~target_mac:a.Arp.sender_mac ~target_ip:a.Arp.sender_ip
      in
      tracef t "arp-tx" "%a%s" Arp.pp reply
        (if mine then "" else " (proxy)");
      Lan.send s.lan (Frame.arp ~src:s.mac ~dst:a.Arp.sender_mac reply)
    end

let builtin_icmp t (pkt : Ipv4.Packet.t) =
  match Ipv4.Icmp.decode_opt pkt.Ipv4.Packet.payload with
  | None -> () (* unknown type: silently discarded, RFC 1122 *)
  | exception Invalid_argument _ -> drop t "bad-icmp" pkt
  | Some (Ipv4.Icmp.Echo_request { ident; seq; data }) ->
    let reply = Ipv4.Icmp.Echo_reply { ident; seq; data } in
    let out =
      Ipv4.Packet.make ~proto:Ipv4.Proto.icmp ~src:(primary_addr t)
        ~dst:pkt.Ipv4.Packet.src (Ipv4.Icmp.encode reply)
    in
    forward_now t out
  | Some _ -> () (* errors/replies with no registered handler: ignore *)

(* RFC 791 loose-source-route: a listed hop receives the packet addressed
   to itself, records its own address in the consumed slot, redirects the
   packet at the next listed address, and forwards. *)
let advance_lsrr t (pkt : Ipv4.Packet.t) =
  let rec go acc = function
    | [] -> None
    | (Ipv4.Ip_option.Lsrr { pointer; route } as o) :: rest ->
      (match Ipv4.Ip_option.lsrr_next o with
       | None -> None
       | Some (next_dst, _) ->
         let idx = (pointer - 4) / 4 in
         let route' = Array.copy route in
         route'.(idx) <- primary_addr t;
         let o' = Ipv4.Ip_option.Lsrr { pointer = pointer + 4;
                                        route = route' } in
         Some
           { pkt with
             Ipv4.Packet.dst = next_dst;
             options = List.rev_append acc (o' :: rest) })
    | o :: rest -> go (o :: acc) rest
  in
  go [] pkt.Ipv4.Packet.options

let rec deliver_local t (pkt : Ipv4.Packet.t) =
  if Ipv4.Packet.is_fragment pkt then begin
    (* reassemble at the destination; forwarders never see this path *)
    let now = Time.to_us (Engine.now t.engine) in
    ignore
      (Ipv4.Packet.Reassembly.expire t.reassembly ~now
         ~older_than_us:30_000_000);
    match Ipv4.Packet.Reassembly.add t.reassembly ~now pkt with
    | Some whole -> deliver_local t whole
    | None -> () (* waiting for the rest *)
  end
  else deliver_local_whole t pkt

and deliver_local_whole t (pkt : Ipv4.Packet.t) =
  match advance_lsrr t pkt with
  | Some pkt' ->
    tracef t "lsrr" "source-routing on to %a" Ipv4.Addr.pp
      pkt'.Ipv4.Packet.dst;
    t.n_forwarded <- t.n_forwarded + 1;
    List.iter (fun f -> f t pkt') t.forward_taps;
    forward_now t pkt'
  | None ->
    t.n_delivered <- t.n_delivered + 1;
    tracef t "rx" "%a" Ipv4.Packet.pp pkt;
    List.iter (fun f -> f t pkt) t.deliver_taps;
    match Hashtbl.find_opt t.proto_handlers pkt.Ipv4.Packet.proto with
    | Some h -> h t pkt
    | None ->
      if pkt.Ipv4.Packet.proto = Ipv4.Proto.icmp then builtin_icmp t pkt
      else drop t "no-proto-handler" pkt

let () = deliver_local_ref := deliver_local
let inject_local t pkt = if t.up then deliver_local t pkt

let forward t (pkt : Ipv4.Packet.t) =
  match Ipv4.Packet.decr_ttl pkt with
  | None ->
    drop t "ttl-expired" pkt;
    icmp_error t
      (fun original -> Ipv4.Icmp.Time_exceeded { code = 0; original })
      pkt
  | Some pkt ->
    match
      (match t.rewrite_forward with Some f -> f t pkt | None -> Forward)
    with
    | Consume -> ()
    | Drop reason -> drop t reason pkt
    | Replace pkt' ->
      t.n_forwarded <- t.n_forwarded + 1;
      tracef t "fwd" "rewritten: %a" Ipv4.Packet.pp pkt';
      List.iter (fun f -> f t pkt') t.forward_taps;
      forward_now t pkt'
    | Forward ->
      t.n_forwarded <- t.n_forwarded + 1;
      tracef t "fwd" "%a" Ipv4.Packet.pp pkt;
      List.iter (fun f -> f t pkt) t.forward_taps;
      forward_now t pkt

let rx_ip t (pkt : Ipv4.Packet.t) =
  if Ipv4.Addr.equal pkt.Ipv4.Packet.dst Ipv4.Addr.broadcast
     || has_address t pkt.Ipv4.Packet.dst
  then deliver_local t pkt
  else if (match t.accept_ip with Some f -> f t pkt | None -> false)
  then begin
    tracef t "intercept" "%a" Ipv4.Packet.pp pkt;
    deliver_local t pkt
  end
  else if t.router then forward t pkt
  else drop t "not-mine" pkt

(* The classical receive path: full decode, then the hook-driven stack. *)
let rx_ip_bytes t bytes =
  match Ipv4.Packet.decode bytes with
  | pkt -> rx_ip t pkt
  | exception Invalid_argument msg ->
    tracef t "drop" "malformed packet: %s" msg;
    t.n_dropped <- t.n_dropped + 1

(* --- zero-copy forwarding fast path ---

   A transit router whose stack is not watching (no accept_ip claim, no
   rewrite hook, no forward taps, tracing off) forwards a packet without
   ever decoding it: validate the header through a {!Ipv4.Packet.View},
   rewrite TTL and patch the checksum in place, and hand the *received*
   buffer straight to the outgoing frame.  Mutating the received buffer
   is sound because a unicast frame's payload has exactly one owner
   after delivery (DESIGN.md Section 11): LAN monitors have already run
   synchronously, and anything they keep is decoded (copied), never the
   raw buffer.  Every condition the fast path cannot preserve
   byte-for-byte — options, fragmentation at the egress MTU, TTL
   expiry, ARP misses, fault filters, transmit taps — falls back to the
   classical path on the same bytes, so wire semantics, counters, drops
   and ICMP errors are identical either way; only allocation and CPU
   cost differ.  Hooks installed between receipt and the (delayed)
   transmit are honoured by re-checking at emit time, mirroring where
   the classical path consults them. *)

module View = Ipv4.Packet.View

let fast_forward_eligible t =
  t.router
  && (match t.accept_ip with None -> true | Some _ -> false)
  && (match t.rewrite_forward with None -> true | Some _ -> false)
  && (match t.forward_taps with [] -> true | _ :: _ -> false)
  && not (Netsim.Trace.active t.tr)

let fast_frame_out t i ~dst_mac v =
  let s = iface t i in
  let needs_slow_emit =
    View.total_length v > Lan.mtu s.lan
    || (match t.fault_filter with Some _ -> true | None -> false)
    || (match t.transmit_taps with [] -> false | _ :: _ -> true)
  in
  if needs_slow_emit then frame_out t i ~dst_mac (View.decode v)
  else Lan.send s.lan (Frame.ip ~src:s.mac ~dst:dst_mac (View.to_wire v))

let fast_resolve_and_emit t i ~next_hop v =
  match arp_fresh t next_hop with
  | Some mac -> fast_frame_out t i ~dst_mac:mac v
  | None ->
    (* ARP miss: park the decoded packet on the classical pending queue;
       the eventual flush re-encodes it to the same bytes. *)
    resolve_and_emit t i ~next_hop (View.decode v)

let fast_route_and_send t v =
  if not t.up then ()
  else
    let dst = View.dst v in
    match Route.lookup t.table dst with
    | None ->
      let pkt = View.decode v in
      drop t "no-route" pkt;
      if not (has_address t pkt.Ipv4.Packet.src) then
        icmp_error t
          (fun original ->
             Ipv4.Icmp.Dest_unreachable { code = 0; original })
          pkt
    | Some (Route.Direct i) ->
      (match iface t i with
       | exception Invalid_argument _ -> drop t "iface-down" (View.decode v)
       | _ -> fast_resolve_and_emit t i ~next_hop:dst v)
    | Some (Route.Via gw) ->
      match iface_for_next_hop t gw with
      | None -> drop t "gateway-unreachable" (View.decode v)
      | Some i -> fast_resolve_and_emit t i ~next_hop:gw v

let fast_forward t v =
  t.n_forwarded <- t.n_forwarded + 1;
  t.n_fast_forwarded <- t.n_fast_forwarded + 1;
  View.decr_ttl v;
  delayed t ~slow:false (fun () -> fast_route_and_send t v)

let fast_rx t bytes =
  let v = View.make bytes in
  if not (View.valid v)
     (* options may be malformed (decode rejects them) and cost the
        slow-path delay factor; whole-buffer views only, so the egress
        frame carries no trailing bytes the classical encode would trim *)
     || View.has_options v
     || View.total_length v <> Bytes.length bytes
  then rx_ip_bytes t bytes
  else
    let dst = View.dst v in
    if Ipv4.Addr.equal dst Ipv4.Addr.broadcast || has_address t dst
       || View.ttl v <= 1
    then rx_ip_bytes t bytes
    else fast_forward t v

let on_frame t i (frame : Frame.t) =
  if t.up then
    match frame.Frame.content with
    | Frame.Arp a -> handle_arp t i a
    | Frame.Ip bytes ->
      (* A MAC-broadcast frame's payload is shared by every station on
         the LAN and must never be mutated in place. *)
      if fast_forward_eligible t && not (Mac.is_broadcast frame.Frame.dst)
      then fast_rx t bytes
      else rx_ip_bytes t bytes

(* --- attachment --- *)

let attach t ?addr lan =
  let mac = Mac.Alloc.fresh t.mac_alloc in
  let s = { lan; mac; addr; active = true } in
  let i = Array.length t.ifaces in
  t.ifaces <- Array.append t.ifaces [| s |];
  refresh_addrs t;
  Lan.attach lan mac (fun frame -> on_frame t i frame);
  i

let detach t i =
  let s = iface t i in
  s.active <- false;
  refresh_addrs t;
  Lan.detach s.lan s.mac

(* --- failure injection --- *)

let is_up t = t.up
let set_up t v = t.up <- v

let reboot t =
  Hashtbl.reset t.arp_cache;
  Hashtbl.reset t.arp_tries;
  t.arp_pending <- [];
  tracef t "reboot" "state cleared";
  List.iter (fun f -> f t) t.reboot_hooks

let crash_for t d =
  set_up t false;
  tracef t "crash" "down for %a" Time.pp d;
  ignore
    (Engine.schedule_after t.engine ~delay:d (fun () ->
         set_up t true;
         reboot t))

(* --- counters --- *)

let packets_forwarded t = t.n_forwarded
let packets_fast_forwarded t = t.n_fast_forwarded
let packets_delivered t = t.n_delivered
let packets_originated t = t.n_originated
let packets_dropped t = t.n_dropped

let pp ppf t =
  Format.fprintf ppf "%s%s [%s] fwd=%d rx=%d tx=%d drop=%d" t.name
    (if t.router then " (router)" else "")
    (String.concat "," (List.map Ipv4.Addr.to_string (addresses t)))
    t.n_forwarded t.n_delivered t.n_originated t.n_dropped
