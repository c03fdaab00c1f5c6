(** Compact open-addressed map from non-negative [int] keys to [int]
    payloads.

    This is the memory-lean backing store for per-mobile-host state
    ([Mhrp.Location_cache], [Mhrp.Home_agent], the compiled host-route
    tables in [Net.Route]).  A binding occupies exactly two flat-array
    slots (two words), versus the ~7 words per binding of a generic
    [Hashtbl] over boxed entries; steady-state operations ([find],
    [replace] of an existing key, [remove]) allocate nothing.

    Keys are packed {!Addr.t} values (see {!Addr.to_key}): tagged
    immediates in [\[0, 0xFFFF_FFFF\]].  Negative keys are rejected ([-1]
    is the internal empty-slot sentinel).  Values are arbitrary ints —
    callers pack small records (address + tick, prefix index, ...) into
    the 63 available bits.

    Collisions resolve by linear probing over a power-of-two capacity;
    removal repairs the probe sequence by backward shifting, so there
    are no tombstones and long-lived tables never degrade.  The table
    grows (doubling) at 3/4 load and never shrinks.

    Allocation-free means the probes are top-level recursive functions
    that take the arrays, mask and key as arguments.  The release build
    has no flambda, so a local [let rec] that closes over them is a
    fresh closure on every call (6 minor words per [find] before this
    rule); hot paths here and in callers use no local recursive
    closures.

    Determinism: the slot layout — and hence {!iter}/{!fold} order — is
    a pure function of the operation history, identical across runs and
    domains.  Callers that expose ordering must sort, exactly as they
    did over [Hashtbl]. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()] makes an empty table.  [capacity] is a size
    hint, rounded up to a power of two (minimum 8). *)

val length : t -> int
(** Number of bindings. *)

val capacity : t -> int
(** Current slot count (a power of two, [>= length]). *)

val footprint_bytes : t -> int
(** Heap bytes pinned by the table's arrays (slots plus headers), for
    deterministic state-size accounting. *)

val mem : t -> int -> bool

val find : t -> int -> default:int -> int
(** Allocation-free lookup: the bound value, or [default] if absent. *)

val find_opt : t -> int -> int option

val replace : t -> int -> int -> unit
(** Insert or overwrite.  Raises [Invalid_argument] on a negative key. *)

val remove : t -> int -> unit
(** Remove if present; no-op otherwise. *)

val reset : t -> unit
(** Drop all bindings, keeping the current capacity. *)

val iter : (int -> int -> unit) -> t -> unit
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
