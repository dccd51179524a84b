(** Bounded batches of tuples — the unit flowing between execution
    operators in the vectorized engine.

    A batch is an array of {!Env.t} plus an optional {e selection
    vector}: filters narrow a batch by listing the surviving indexes
    instead of copying tuples, so predicate chains touch each tuple once
    and allocate no intermediate arrays of environments. Transforming
    operators ([map]) produce dense batches. *)

type t

val empty : t

val of_array : Env.t array -> t
(** The array is owned by the batch; do not mutate it afterwards. *)

val length : t -> int
(** Live (selected) tuples. *)

val is_empty : t -> bool

val get : t -> int -> Env.t
(** [get t i] is the [i]-th live tuple (selection applied). *)

val iter : (Env.t -> unit) -> t -> unit

val to_array : t -> Env.t array
(** Live tuples; the backing array itself when nothing is deselected. *)

val map : (Env.t -> Env.t) -> t -> t

val filter : (Env.t -> bool) -> t -> t
(** Refines the selection vector; the backing array is shared, no tuple
    is copied. Returns the batch unchanged when nothing is dropped. *)
