(** Priority queue of timed events.

    A binary min-heap ordered by (time, sequence number): events scheduled
    for the same instant fire in the order they were scheduled, which keeps
    simulations deterministic.

    The heap entry is the handle, so pushing allocates one record and
    cancelling flips its [live] flag in O(1).  A cancelled entry stays in
    the heap as a tombstone until it reaches the top or until tombstones
    exceed half the heap, when the heap is compacted and re-heapified;
    neither changes the pop order.  [length] is an O(1) live counter. *)

type 'a t

type 'a handle
(** Identifies a scheduled event so it can be cancelled.  A handle holds
    its payload, so compare handles with [==], never with [=]. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int
(** Number of live (non-cancelled, not yet popped) events. *)

val push : 'a t -> Time.t -> 'a -> 'a handle
(** [push q at x] schedules [x] at time [at]. *)

val cancel : 'a t -> 'a handle -> bool
(** [cancel q h] removes the event; returns [false] if it already fired or
    was already cancelled. *)

val pop : 'a t -> (Time.t * 'a) option
(** Earliest live event, removing it. *)

val peek_time : 'a t -> Time.t option
(** Time of the earliest live event. *)

val drain : 'a t -> until:Time.t -> (Time.t -> 'a -> unit) -> unit
(** [drain q ~until fire] pops the earliest live event and calls
    [fire at x] on it, again and again, while the earliest live event is
    due at or before [until].  Events [fire] pushes are drained too when
    due.  One heap probe per event and no allocation; if [fire] raises,
    the event is already removed and the rest stay queued. *)
