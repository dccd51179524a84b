(** Benchmark history records and the noise-aware regression gate.

    The benchmark appends one schema-versioned record per run to a JSONL
    file ([BENCH_history.jsonl]): git SHA, date, per-query min/median
    wall times, memo group counts, rules fired, and the plan-cache hit
    rate. [oodb bench-compare] then diffs two records and exits nonzero
    on a regression, so CI can gate on measured performance rather than
    on eyeballs.

    The gate is deliberately noise-aware: it compares the {e min} over
    trials (the statistic least contaminated by scheduler jitter), and a
    metric only counts as regressed when it blows up {e relatively}
    (ratio above [1 + threshold]) {e and} by an absolute floor
    ([min_seconds]) — so sub-millisecond wobble never fails a build. *)

module Json = Oodb_util.Json

val schema_version : int
(** Currently 4 (v2 added [mean_qerror]; v3 added [search_scale]; v4
    added [provenance_overhead_pct] and [whynot_smoke]). {!of_json}
    accepts any version from 1 up to the current one — older records
    simply read the fields they predate as absent — and rejects records
    from the future. *)

type query_rec = {
  q_name : string;
  q_opt_min : float;  (** min optimization seconds over trials *)
  q_opt_median : float;
  q_exec_min : float;  (** min execution seconds over trials *)
  q_exec_median : float;
  q_rows : int;  (** result rows — a safety check that runs are comparable *)
  q_groups : int;  (** memo groups of the (cold) search *)
  q_rules_fired : int;
  q_mean_qerror : float;
      (** mean per-node q-error of a profiled execution; [nan] when not
          recorded (v1 baselines, unprofiled runs) — encoded as [null],
          and excluded from comparison when either side lacks it *)
}

type scale_rec = {
  s_shape : string;
      (** join-graph shape: ["chain"], ["cycle"] or ["star"]; records
          without the field measured chains and load as ["chain"] *)
  s_width : int;  (** join width (number of joined collections) *)
  s_opt_seconds : float;  (** one cold optimization under the default search *)
  s_groups : int;
  s_mexprs : int;
  s_candidates : int;  (** physical plans costed (the paper's "plans") *)
  s_pruned : int;  (** candidates refused by branch-and-bound *)
}
(** One row of the wide-join scaling sweep: how optimization time and
    memo size grow with join width, per join-graph shape. Older records also carry an
    [exhaustive_seconds] field; loading ignores it. *)

type record = {
  r_git_sha : string;
  r_date : string;  (** ISO 8601 *)
  r_batch_size : int;
  r_cache_hit_rate : float;  (** served / lookups over the run's cache phase *)
  r_queries : query_rec list;
  r_search_scale : scale_rec list;  (** [[]] on v1/v2 records *)
  r_provenance_overhead_pct : float;
      (** optimizer CPU-time overhead of provenance recording on the
          width-16 chain join (width 8 before the closure enumerated
          connected subplans only), in percent (min over trials, on vs off);
          [nan] (encoded [null]) on v1–v3 records and unmeasured runs.
          Advisory: the bench warns past 5% but never fails on it. *)
  r_whynot_smoke : (string * float) list;
      (** wall seconds of representative why-not classifications
          (optimize + classify), by scenario name; [[]] on v1–v3
          records *)
}

(** {1 Serialization} *)

val to_json : record -> Json.t

val scale_json : scale_rec -> Json.t
(** One [search_scale] row, as embedded in {!to_json} — also reusable by
    benchmark artifacts that carry the sweep outside a history record. *)

val of_json : Json.t -> (record, string) result
(** Validates the schema version, every field's presence and type, and
    that [queries] is non-empty. *)

val of_line : string -> (record, string) result

val append : string -> record -> unit
(** Append one minified-JSON line to the (created-if-missing) file. *)

val load : string -> (record list, string) result
(** Parse a whole JSONL file; blank lines are skipped; the first invalid
    line fails the load with its line number. *)

(** {1 Comparison} *)

type delta = {
  d_query : string;
  d_metric : string;
      (** ["opt_min_seconds"], ["exec_min_seconds"] or ["mean_qerror"] *)
  d_old : float;
  d_new : float;
  d_ratio : float;  (** new / old; [infinity] when old is 0 *)
  d_regressed : bool;
}

type comparison = {
  c_old_sha : string;
  c_new_sha : string;
  c_threshold : float;
  c_min_seconds : float;
  c_deltas : delta list;
  c_missing : string list;  (** queries in old but not new *)
  c_added : string list;  (** queries in new but not old *)
}

val default_threshold : float
(** 0.5 — flag at a 50% slowdown. *)

val default_min_seconds : float
(** 1e-3 — and only if the absolute slowdown exceeds a millisecond. *)

val qerror_floor : float
(** 0.5 — absolute floor, in q units, for the [mean_qerror] delta. *)

val compare_records :
  ?threshold:float ->
  ?min_seconds:float ->
  old_rec:record ->
  new_rec:record ->
  unit ->
  comparison
(** Match queries by name and diff the min-of-trials wall times. A delta
    regresses iff [new > old * (1 + threshold)] and
    [new - old > min_seconds]. When both records carry a [mean_qerror],
    it is diffed too, with {!qerror_floor} as the absolute floor in
    place of [min_seconds]. [search_scale] rows are matched by width
    (reported as [chainN]) and diff [opt_seconds]. *)

val regressed : comparison -> bool

val pp_comparison : Format.formatter -> comparison -> unit
(** Per-delta table with a trailing [RESULT: ok/regression detected]. *)

val comparison_json : comparison -> Json.t
