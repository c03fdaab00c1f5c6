(* The heap entry is the handle: [live] is cleared by [cancel] and by the
   pop that fires it.  Cancelled entries stay in the heap as tombstones
   until they reach the top or [compact] sweeps them out. *)
type 'a handle = { at : Time.t; seq : int; payload : 'a; mutable live : bool }

type 'a t = {
  mutable heap : 'a handle array;
  mutable size : int; (* entries in the heap, tombstones included *)
  mutable n_live : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; n_live = 0; next_seq = 0 }
let is_empty q = q.n_live = 0
let length q = q.n_live

let lt a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

(* Sifts move a hole instead of swapping: [e] is written once, where it
   lands. *)
let sift_up q i e =
  let h = q.heap in
  let rec go i =
    let p = (i - 1) / 2 in
    if i > 0 && lt e h.(p) then begin h.(i) <- h.(p); go p end else h.(i) <- e
  in
  go i

let sift_down q i e =
  let h = q.heap and n = q.size in
  let rec go i =
    let l = (2 * i) + 1 in
    if l >= n then h.(i) <- e
    else begin
      let c = if l + 1 < n && lt h.(l + 1) h.(l) then l + 1 else l in
      if lt h.(c) e then begin h.(i) <- h.(c); go c end else h.(i) <- e
    end
  in
  go i

(* Drop every tombstone and re-heapify.  (time, seq) is a total order, so
   the pop order of the survivors cannot change. *)
let compact q =
  let n = ref 0 in
  for i = 0 to q.size - 1 do
    if q.heap.(i).live then begin q.heap.(!n) <- q.heap.(i); incr n end
  done;
  q.size <- !n;
  for i = (!n / 2) - 1 downto 0 do sift_down q i q.heap.(i) done

let push q at payload =
  let e = { at; seq = q.next_seq; payload; live = true } in
  q.next_seq <- q.next_seq + 1;
  if q.size = Array.length q.heap then begin
    let nheap = Array.make (max 16 (2 * q.size)) e in
    Array.blit q.heap 0 nheap 0 q.size;
    q.heap <- nheap
  end;
  q.size <- q.size + 1;
  q.n_live <- q.n_live + 1;
  sift_up q (q.size - 1) e;
  e

let cancel q h =
  h.live
  && begin
    h.live <- false;
    q.n_live <- q.n_live - 1;
    if 2 * q.n_live < q.size then compact q;
    true
  end

let remove_top q =
  q.size <- q.size - 1;
  if q.size > 0 then sift_down q 0 q.heap.(q.size)

(* Discard tombstones at the top: afterwards the top, if any, is live. *)
let rec skip_dead q =
  if q.size > 0 && not q.heap.(0).live then (remove_top q; skip_dead q)

let take q =
  let top = q.heap.(0) in
  remove_top q;
  top.live <- false;
  q.n_live <- q.n_live - 1;
  top

let pop q =
  skip_dead q;
  if q.size = 0 then None
  else
    let e = take q in
    Some (e.at, e.payload)

let peek_time q =
  skip_dead q;
  if q.size = 0 then None else Some q.heap.(0).at

let rec drain q ~until fire =
  skip_dead q;
  if q.size > 0 && q.heap.(0).at <= until then begin
    let e = take q in
    fire e.at e.payload;
    drain q ~until fire
  end
