(* Host-time spans recorded from outside the library, around the
   benchmark's own calls into each layer's public functions.

   A span is (id, parent, name, start, end) plus optional numeric
   attributes — the per-slice counter deltas.  Spans stay in memory and
   are written out once, when the run ends; a disabled recorder runs the
   wrapped call and records nothing. *)

type span = {
  id : int;
  parent : int;  (* 0 for a root span *)
  name : string;
  start_s : float;  (* host seconds since the recorder was created *)
  mutable end_s : float;
  mutable attrs : (string * float) list;
}

type t = {
  enabled : bool;
  t0 : float;
  mutable next_id : int;
  mutable open_ : int list;  (* innermost first *)
  mutable spans : span list;  (* newest first *)
}

type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let create ~enabled =
  { enabled; t0 = Unix.gettimeofday (); next_id = 1; open_ = [];
    spans = [] }

let record ?(attrs = fun () -> []) t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> 0 in
    let s =
      { id; parent; name; start_s = Unix.gettimeofday () -. t.t0;
        end_s = nan; attrs = [] }
    in
    t.spans <- s :: t.spans;
    t.open_ <- id :: t.open_;
    let finish () =
      s.end_s <- Unix.gettimeofday () -. t.t0;
      t.open_ <- List.tl t.open_;
      s.attrs <- attrs ()
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let tracer t = { span = (fun name f -> record t name f) }

let spans t = List.rev t.spans

let duration s = s.end_s -. s.start_s

let max_duration t name =
  List.fold_left
    (fun acc s -> if s.name = name then Float.max acc (duration s) else acc)
    0.0 t.spans

(* Self time: the span's duration minus what its direct children cover. *)
let self_time t s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
    (duration s) t.spans

let write t ~path ~header =
  let oc = open_out path in
  Printf.fprintf oc "{%s,\n \"spans\": [" header;
  List.iteri
    (fun i s ->
       Printf.fprintf oc
         "%s\n  {\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": \
          %.9f, \"end_s\": %.9f, \"self_s\": %.9f, \"attrs\": {%s}}"
         (if i = 0 then "" else ",")
         s.id s.parent s.name s.start_s s.end_s (self_time t s)
         (String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v)
               s.attrs)))
    (spans t);
  output_string oc "\n ]}\n";
  close_out oc
