(** Volcano-style demand-driven iterators, batch-at-a-time.

    The execution model is the Volcano pull protocol the paper plans to
    transfer to the Open OODB system, vectorized: every algorithm is an
    iterator over bounded {!Batch.t}s of {!Env.t} tuples, composed into
    a tree mirroring the physical plan. One [next_batch] call per batch
    replaces one closure call per tuple at every operator boundary; with
    batch size 1 the engine degrades to exactly the paper's
    tuple-at-a-time behavior.

    Every iterator carries the {!Env.layout} of the tuples it produces,
    fixed when it is built: its consumer resolves binding names against
    it once. *)

type t

val make_batched :
  layout:Env.layout ->
  open_:(unit -> unit) ->
  next_batch:(unit -> Batch.t option) ->
  close:(unit -> unit) ->
  t
(** The constructor. [next_batch] returns [None] when exhausted; empty
    batches are legal but consumers skip them. *)

val layout : t -> Env.layout

val with_layout : t -> Env.layout -> t
(** The same iterator, its tuples read under another layout of the same
    slots (e.g. with fewer materialized objects). *)

val open_ : t -> unit

val next_batch : t -> Batch.t option
(** Never returns an empty batch. *)

val close : t -> unit

val to_array : t -> Env.t array
(** Open, drain batch-wise, close. If the iterator tree raises
    mid-drain, the tree is closed before the exception is re-raised, so
    no operator leaks open children. *)

val to_list : t -> Env.t list
(** {!to_array} as a list. *)

val of_array_thunk : layout:Env.layout -> batch_size:int -> (unit -> Env.t array) -> t
(** Materializing source: the thunk runs at open time; output is served
    in batches of [batch_size]. *)
