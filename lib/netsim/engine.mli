(** The discrete-event simulation engine.

    An engine owns the clock and an event queue of thunks.  Components
    schedule callbacks at absolute or relative times; [run] drains the queue
    in timestamp order, advancing the clock to each event as it fires.

    {1 Domain safety}

    [create] is safe to call from any domain, so parallel sweeps
    ({!Parallel.Sweep}) give every trial its own engine.  A given [t] is
    single-domain-only: nothing here is synchronised, so all calls on one
    engine — scheduling, [run], accessors — must come from the domain that
    created it.  Engines share no mutable state with each other. *)

type t

type handle = (unit -> unit) Event_queue.handle
(** A scheduled callback, for {!cancel}.  It holds the callback, so
    compare handles with [==] or match on options, never with [=]. *)

val create : ?seed:int -> unit -> t
(** Fresh engine with clock at {!Time.zero}.  [seed] (default 42) seeds the
    root random stream from which components [split]. *)

val now : t -> Time.t

val rng : t -> Rng.t
(** The engine's root random stream.  Components needing isolation should
    [Rng.split] it once at setup. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** Schedule at an absolute time, which must be [>= now]. *)

val schedule_after : t -> delay:Time.t -> (unit -> unit) -> handle
val cancel : t -> handle -> bool

val every : t -> interval:Time.t -> ?until:Time.t -> (unit -> unit) -> unit
(** [every t ~interval f] runs [f] at [now + interval, now + 2*interval, ...],
    stopping after [until] when given.  Used for periodic agent
    advertisements. *)

val run : ?until:Time.t -> t -> unit
(** Drain the event queue.  With [until], stops (leaving later events
    queued) once the next event would fire after [until], and sets the
    clock to [until].  Each fired event costs one heap probe and no
    allocation in the engine itself. *)

val pending : t -> int
(** Events currently queued. *)

val events_processed : t -> int
(** Total events fired since creation. *)
