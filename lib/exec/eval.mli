(** Predicate and scalar evaluation over tuples.

    Each function takes the layout of the tuples it will see and
    resolves every binding to its slot once; the returned closure does
    no name lookup per tuple. *)

module Value = Oodb_storage.Value
module Pred = Oodb_algebra.Pred

val operand : Env.layout -> Pred.operand -> Env.t -> Value.t
(** [Field] reads a materialized object's attribute ([Null] if missing);
    [Self] yields the binding's OID as a [Ref].
    @raise Env.Not_materialized / Env.Unbound on plan bugs, when the
    closure is applied. *)

val atom : Env.layout -> Pred.atom -> Env.t -> bool
(** Three-valued-logic shortcut: comparisons involving [Null] are false
    (except [Null == Null] and [Null != x]). *)

val pred : Env.layout -> Pred.t -> Env.t -> bool
(** Conjunction, evaluated left to right with short-circuit. *)
