(** Logical transformation rules.

    The rule set contains the known relational transformations (selection
    pushing and merging, join commutativity and associativity, set-
    operator commutativity) "plus some new ones pertaining to the
    materialize operator" (paper §3): Mat-Mat commutativity, moving Mat
    through joins, and the Mat-to-Join rule that turns a reference
    traversal into a value-based join against a scannable collection of
    the target class (assuming referential containment of references in
    that collection, which the data generator guarantees).

    Each rule has a stable name so experiments can disable it — the paper
    "simulates" weaker optimizers by disabling [join-commute] (Table 2)
    and friends. *)

val names : string list
(** All rule names, in registration order. *)

type join_graph
(** The join graph of the queries a memo closes over, as connected
    components: its nodes are the bindings that [Get], [Mat] and
    [Unnest] introduce, its edges the predicate atoms (in [Select] and
    [Join] alike) over two or more bindings, and a [Mat] or [Unnest]
    output is linked to its source. *)

val join_graph : Oodb_algebra.Logical.t list -> join_graph
(** Components of each query, taken from the prepared input (after
    argument transformation). *)

val all :
  Oodb_cost.Config.t -> Oodb_catalog.Catalog.t -> join_graph -> Model.Engine.trule list
(** The rule set for a memo over the queries of the given graph.
    [join-assoc] enumerates connected join subplans only: it builds an
    inner join without a predicate only when no component has bindings
    on both sides — a cross product the query itself asks for. With
    several queries in one memo, the cross product is kept unless every
    query that binds both sides links them. *)
