(** Tuples flowing between execution operators.

    A tuple is a fixed array of slots, one object record per binding;
    which binding lives in which slot is the {!layout} of the operator
    that produced it, computed once when the iterator tree is built.
    Operators resolve binding names to slot indexes at that point, so no
    name is compared per tuple.

    Whether a slot's object is materialized is part of the layout too:
    it is the runtime counterpart of the optimizer's presence-in-memory
    property, and every tuple of an operator has the same one. A slot
    that is not materialized still holds the object's record (OID tables
    are resident, {!Store.peek} is free), but reading one of its fields
    is a plan bug, and the executor raises {!Not_materialized} to
    surface it (the property machinery makes this unreachable for plans
    the optimizer emits). A slot is {!absent} when the producer had no
    object to bind in it (a collapsed path whose reference is [Null]). *)

module Value = Oodb_storage.Value
module Store = Oodb_storage.Store

exception Not_materialized of string

exception Unbound of string

type t = Store.obj array
(** Never mutated once built: operators share tuples between outputs. *)

type layout = {
  names : string array;  (** binding of each slot *)
  objs : bool array;  (** whether the slot's object is materialized *)
}

val absent : Store.obj
(** The filler of a slot with nothing bound (compared physically). *)

val reference : Store.t -> Value.oid -> Store.obj
(** A bare reference: the object's record, fetched free of charge, or a
    record carrying only the OID when the reference dangles. *)

val layout : (string * bool) list -> layout
(** Bindings in slot order, each with its [objs] flag. *)

val append : layout -> layout -> layout
(** Slots of the left tuple, then those of the right ({!merge}). *)

val bindings : layout -> string list

val index : layout -> string -> int
(** Slot of the first binding with that name; [-1] when there is none. *)

val oid : layout -> string -> t -> Value.oid
(** [oid l b] resolves [b] once; the resulting closure reads the slot's
    OID. @raise Unbound when called on a tuple without [b]. *)

val obj : layout -> string -> t -> Store.obj
(** Like {!oid} for the materialized object.
    @raise Unbound / Not_materialized *)

val merge : t -> t -> t
(** Disjoint union (right slots after left ones). *)

val extend : t -> Store.obj -> t
(** The tuple with one more slot after its last. *)
