(** Rule-soundness certifier: evidence-backed verdicts that every
    registered optimizer rule preserves query semantics.

    Transformation rules are certified per harvested rewrite instance —
    statically (both sides must carry the same {!Oodb_algebra.Typing.t}
    and estimated cardinality) and denotationally (both sides must
    produce the same row multiset under the reference interpreter
    {!Interp} on every enumerated micro-database,
    {!Oodb_workloads.Datagen.micro_family}). Implementation rules and
    enforcers are certified per plan occurrence: winning plans over a
    family of rule-toggle option variants are executed on each
    micro-database and compared against the interpreter's answer for
    the original query. Uncertifiable rules carry a concrete
    counterexample: the database, both sides, both row multisets. *)

type kind =
  | Transformation
  | Implementation
  | Enforcer

type counterexample = {
  cx_variant : int;  (** index into the micro-database family *)
  cx_db : string;  (** extent cardinalities of the mismatching database *)
  cx_setting : string;  (** rewrite instance, or query + option variant *)
  cx_lhs : string;  (** input expression (or query) *)
  cx_rhs : string;  (** rule output (or executed plan) *)
  cx_expected : Interp.row list;
  cx_actual : Interp.row list;
}

type status =
  | Certified
      (** every static check discharged and every denotational check
          passed *)
  | Bounded_only of string
      (** denotational checks passed on every micro-database but a
          static check could not be discharged (reason given) —
          certification is bounded, not static *)
  | No_instances  (** the corpus never exercised the rule *)
  | Static_refuted of string
      (** a static check failed outright: type not preserved,
          cardinality not preserved, or the applicability guard raised *)
  | Refuted of counterexample  (** a concrete semantic mismatch *)

val uncertified : status -> bool
(** [true] for the CI-failing statuses: {!No_instances},
    {!Static_refuted}, {!Refuted}. *)

type rule_report = {
  rr_rule : string;
  rr_kind : kind;
  rr_instances : int;
      (** distinct rewrite instances harvested (transformations) or
          winning-plan occurrences (implementations/enforcers) *)
  rr_checks : int;  (** denotational / execution comparisons run *)
  rr_status : status;
}

(** Rule-set meta-analysis over the same harvest. *)
type meta = {
  m_overlaps : (string * string * int) list;
      (** rule pairs that both produced an alternative at the same memo
          site, with the site count — overlapping left-hand sides are a
          confluence risk *)
  m_pingpong : (string * string * int) list;
      (** pairs where one rule rewrites x to y and the other rewrites y
          back to x within a group — a termination risk absorbed by memo
          deduplication *)
  m_dead : string list;  (** enabled rules the corpus never exercised *)
}

type report = {
  cert_rules : rule_report list;
  cert_meta : meta;
  cert_dbs : int;
  cert_queries : int;
}

val corpus : (string * Oodb_algebra.Logical.t) list
(** Default certification corpus: the paper workload
    ({!Oodb_workloads.Queries.all}) plus synthetic set-operation
    queries, without which setop-commute and setop-assoc would go
    unexercised, and the paper's Figure 1 join of two extents on a
    reference link, which join-to-mat needs. *)

val run :
  ?options:Open_oodb.Options.t ->
  ?extra_trules:
    (Oodb_cost.Config.t -> Oodb_catalog.Catalog.t -> Open_oodb.Model.Engine.trule list) ->
  ?dbs:Oodb_exec.Db.t list ->
  ?queries:(string * Oodb_algebra.Logical.t) list ->
  ?max_instances:int ->
  ?physical:bool ->
  unit ->
  report
(** Certify the rule set. [extra_trules] appends rules to the default
    set — the certifier's own test injects a deliberately unsound rule
    this way and asserts it is refuted. [dbs] defaults to
    {!Oodb_workloads.Datagen.micro_family} (pass a smaller family for
    fast tests). [max_instances] caps harvested instances per rule per
    memo site sweep (default 6). [physical:false] skips the
    implementation/enforcer pass. *)

val ok : report -> bool
(** No rule has an {!uncertified} status. *)

val pp_report : Format.formatter -> report -> unit

val pp_counterexample : Format.formatter -> counterexample -> unit

val to_json : report -> Oodb_util.Json.t
(** Machine-readable report, uploaded as a CI artifact. *)

val kind_name : kind -> string

val status_name : status -> string
