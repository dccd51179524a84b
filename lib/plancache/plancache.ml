module Engine = Open_oodb.Model.Engine
module Optimizer = Open_oodb.Optimizer
module Catalog = Oodb_catalog.Catalog
module Logical = Oodb_algebra.Logical
module Options = Open_oodb.Options
module Physprop = Open_oodb.Physprop
module Metrics = Oodb_obs.Metrics
module Span = Oodb_obs.Span
module Json = Oodb_util.Json

type quality = {
  q_execs : int;
  q_max_qerror : float;
  q_mean_qerror : float;
  q_last_epoch : int;
}

type entry = {
  e_fingerprint : string;
  e_plan : Engine.plan option;
  e_stats : Engine.stats;
  e_quality : quality option;
}

type t = {
  mem : entry Lru.t;
  cache_dir : string option;
  mutable disk_hits : int;
  mutable disk_rejects : int;
  mutable qerror_evictions : int;
}

let default_capacity = 256

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let create ?(capacity = default_capacity) ?dir () =
  Option.iter mkdirs dir;
  { mem = Lru.create ~capacity;
    cache_dir = dir;
    disk_hits = 0;
    disk_rejects = 0;
    qerror_evictions = 0 }

let of_env ?capacity () =
  match Sys.getenv_opt "OODB_PLANCACHE_DIR" with
  | Some d when d <> "" -> create ?capacity ~dir:d ()
  | Some _ | None -> create ?capacity ()

let dir t = t.cache_dir

(* ------------------------------------------------------------------ *)
(* Disk tier                                                           *)

(* A persisted entry is [(magic, entry)] marshalled; readers demand the
   magic and that the entry echoes the fingerprint it is filed under, so
   a renamed, truncated or old-format file degrades to a miss. Plans and
   stats are pure data (no closures), which is what makes Marshal safe
   here — the memo [ctx] is not, and is deliberately not cached. *)
(* v4: Engine.stats lost its subgoal-prune counter, changing the
   marshalled entry layout; v3 and older files degrade to misses. *)
let magic = "oodb-plancache-v4"

let entry_path d hex = Filename.concat d (hex ^ ".plan")

let disk_read d hex =
  let path = entry_path d hex in
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let tag, (e : entry) = (Marshal.from_channel ic : string * entry) in
          if String.equal tag magic && String.equal e.e_fingerprint hex then Some e else None)
    with _ -> None

(* Best-effort: a full disk or read-only directory must not fail the
   query, so IO errors are swallowed and the entry just stays in memory. *)
let disk_write d hex e =
  let path = entry_path d hex in
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> Marshal.to_channel oc (magic, e) []);
    Sys.rename tmp path
  with _ -> ( try Sys.remove tmp with _ -> ())

(* ------------------------------------------------------------------ *)
(* Lookup / insert                                                     *)

(* [validate] guards the disk tier only: in-memory entries were produced
   (and plan-linted) by this process, but a disk entry may predate a
   catalog or format change, so a validation failure deletes the file
   and degrades to a miss.

   [qerror_limit] guards both tiers: an entry whose recorded quality
   shows a worse max q-error was mispriced badly enough that serving it
   again just repeats the mistake — evict it everywhere so the caller
   re-plans (with corrected statistics, when feedback is installed). *)
let lookup ?(validate = fun _ -> true) ?qerror_limit t fp =
  let hex = Fingerprint.to_hex fp in
  let over e =
    match qerror_limit, e.e_quality with
    | Some limit, Some q -> q.q_max_qerror > limit
    | _ -> false
  in
  let qerror_evict ~count_miss =
    Lru.remove t.mem hex;
    (* with the entry gone this counts the miss the eviction behaves as
       (skipped on the disk path, where [find] above already missed) *)
    if count_miss then ignore (Lru.find t.mem hex : entry option);
    Option.iter
      (fun d -> try Sys.remove (entry_path d hex) with Sys_error _ -> ())
      t.cache_dir;
    t.qerror_evictions <- t.qerror_evictions + 1;
    None
  in
  (* Quality-gate the memory tier with a counter-free peek first, so a
     gated eviction registers as the miss it behaves as, not a hit. *)
  match Lru.peek t.mem hex with
  | Some e when over e -> qerror_evict ~count_miss:true
  | _ -> (
    match Lru.find t.mem hex with
    | Some e -> Some e
    | None -> (
    match t.cache_dir with
    | None -> None
    | Some d -> (
      match disk_read d hex with
      | None -> None
      | Some e ->
        if not (validate e) then begin
          t.disk_rejects <- t.disk_rejects + 1;
          (try Sys.remove (entry_path d hex) with Sys_error _ -> ());
          None
        end
        else if over e then qerror_evict ~count_miss:false
        else begin
          t.disk_hits <- t.disk_hits + 1;
          ignore (Lru.add t.mem hex e : string option);
          Some e
        end)))

let insert_counting t fp e =
  let hex = Fingerprint.to_hex fp in
  let e = { e with e_fingerprint = hex } in
  let evicted = Lru.add t.mem hex e in
  Option.iter (fun d -> disk_write d hex e) t.cache_dir;
  evicted

let insert t fp e = ignore (insert_counting t fp e : string option)

(* ------------------------------------------------------------------ *)
(* Plan quality                                                         *)

let merge_quality epoch ~max_qerror ~mean_qerror = function
  | None ->
    { q_execs = 1;
      q_max_qerror = max_qerror;
      q_mean_qerror = mean_qerror;
      q_last_epoch = epoch }
  | Some q ->
    let n = float_of_int q.q_execs in
    { q_execs = q.q_execs + 1;
      q_max_qerror = Float.max q.q_max_qerror max_qerror;
      q_mean_qerror = ((q.q_mean_qerror *. n) +. mean_qerror) /. (n +. 1.);
      q_last_epoch = epoch }

let note_execution t fp ~epoch ~max_qerror ~mean_qerror =
  let hex = Fingerprint.to_hex fp in
  let updated e =
    { e with
      e_quality = Some (merge_quality epoch ~max_qerror ~mean_qerror e.e_quality) }
  in
  match Lru.peek t.mem hex with
  | Some e ->
    let e = updated e in
    Lru.update t.mem hex (fun _ -> e);
    Option.iter (fun d -> disk_write d hex e) t.cache_dir
  | None -> (
    (* Not resident (evicted, or a fresh process with only the disk
       tier): update the persisted copy in place without promoting it. *)
    match t.cache_dir with
    | None -> ()
    | Some d -> (
      match disk_read d hex with
      | None -> ()
      | Some e -> disk_write d hex (updated e)))

let quality_json q =
  Json.Obj
    [ ("executions", Json.Int q.q_execs);
      ("max_qerror", Json.float q.q_max_qerror);
      ("mean_qerror", Json.float q.q_mean_qerror);
      ("last_validated_epoch", Json.Int q.q_last_epoch) ]

let entries t = List.map snd (Lru.items t.mem)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  disk_hits : int;
  disk_rejects : int;
  qerror_evictions : int;
  entries : int;
  capacity : int;
}

(* Every disk hit first registered as an in-memory miss, so the served /
   cold split is [mem.hits + disk_hits] vs [mem.misses - disk_hits]. *)
let stats t =
  let c = Lru.counters t.mem in
  { hits = c.Lru.hits + t.disk_hits;
    misses = c.Lru.misses - t.disk_hits;
    insertions = c.Lru.insertions;
    evictions = c.Lru.evictions;
    disk_hits = t.disk_hits;
    disk_rejects = t.disk_rejects;
    qerror_evictions = t.qerror_evictions;
    entries = Lru.length t.mem;
    capacity = Lru.capacity t.mem }

let stats_json s =
  Json.Obj
    [ ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("insertions", Json.Int s.insertions);
      ("evictions", Json.Int s.evictions);
      ("disk_hits", Json.Int s.disk_hits);
      ("disk_rejects", Json.Int s.disk_rejects);
      ("qerror_evictions", Json.Int s.qerror_evictions);
      ("entries", Json.Int s.entries);
      ("capacity", Json.Int s.capacity) ]

let clear t = Lru.clear t.mem

(* ------------------------------------------------------------------ *)
(* Cache-aware optimization                                            *)

type outcome = {
  plan : Engine.plan option;
  stats : Engine.stats;
  opt_seconds : float;
  cached : bool;
}

(* [Group_created] fires exactly once per memo group, and creating a
   group is the only point the engine derives logical properties — so
   this counter is the per-call derivation count the regression tests
   assert on (zero on a cache hit, which skips the engine entirely). *)
let derivation_sink registry (ev : Engine.event) =
  match ev with
  | Engine.Group_created _ -> Metrics.incr registry "plancache/derivations"
  | _ -> ()

let mincr registry name =
  match registry with None -> () | Some r -> Metrics.incr r name

let mhist registry name v =
  match registry with None -> () | Some r -> Metrics.observe_hist r name v

let trace_of registry = Option.map derivation_sink registry

let outcome_of_cold (o : Optimizer.outcome) =
  { plan = o.Optimizer.plan;
    stats = o.Optimizer.stats;
    opt_seconds = o.Optimizer.opt_seconds;
    cached = false }

let entry_of_cold hex (o : Optimizer.outcome) =
  { e_fingerprint = hex;
    e_plan = o.Optimizer.plan;
    e_stats = o.Optimizer.stats;
    e_quality = None }

(* A disk-tier plan must still typecheck against the current catalog
   (plan lint re-derives every operator's bindings and fields): the
   cache directory can outlive a schema or index change the fingerprint
   did not capture. *)
let entry_typechecks cat e =
  match e.e_plan with
  | None -> true
  | Some p -> ( match Open_oodb.Planlint.plan cat p with Ok () -> true | Error _ -> false)

let optimize ?(options = Options.default) ?(required = Physprop.empty) ?qerror_limit
    ?registry ?spans (t : t) cat expr =
  if not options.Options.cache then begin
    mincr registry "plancache/bypass";
    outcome_of_cold
      (Optimizer.optimize ~options ~required ?trace:(trace_of registry) ?spans cat expr)
  end
  else begin
    let t0 = Sys.time () in
    let disk_before = t.disk_hits in
    let rejects_before = t.disk_rejects in
    let qevict_before = t.qerror_evictions in
    let fp =
      Span.with_span spans ~cat:"plancache" "fingerprint" (fun () ->
          Fingerprint.make ~catalog:cat ~options ~required expr)
    in
    let found =
      Span.with_span spans ~cat:"plancache" "cache-lookup" (fun () ->
          lookup ~validate:(entry_typechecks cat) ?qerror_limit t fp)
    in
    (* Latency to a hit/miss verdict: fingerprinting plus both tiers. *)
    mhist registry "plancache/lookup_seconds" (Sys.time () -. t0);
    if t.disk_rejects > rejects_before then mincr registry "plancache/disk_reject";
    if t.qerror_evictions > qevict_before then
      mincr registry "plancache/qerror_eviction";
    match found with
    | Some e ->
      mincr registry "plancache/hit";
      if t.disk_hits > disk_before then mincr registry "plancache/disk_hit";
      { plan = e.e_plan; stats = e.e_stats; opt_seconds = Sys.time () -. t0; cached = true }
    | None ->
      mincr registry "plancache/miss";
      let cold =
        Optimizer.optimize ~options ~required ?trace:(trace_of registry) ?spans cat expr
      in
      let evicted = insert_counting t fp (entry_of_cold (Fingerprint.to_hex fp) cold) in
      mincr registry "plancache/insert";
      if Option.is_some evicted then mincr registry "plancache/eviction";
      { (outcome_of_cold cold) with opt_seconds = Sys.time () -. t0 }
  end

let optimize_all ?(options = Options.default) ?(required = Physprop.empty) ?qerror_limit
    ?registry ?spans (t : t) cat qs =
  if not options.Options.cache then begin
    List.iter (fun _ -> mincr registry "plancache/bypass") qs;
    List.map outcome_of_cold
      (Optimizer.optimize_all ~options ~required ?trace:(trace_of registry) ?spans cat qs)
  end
  else begin
    (* Serve hits individually; batch every miss through one shared memo
       (memo-level MQO), then fill results back in input order. *)
    let n = List.length qs in
    let results : outcome option array = Array.make n None in
    let misses =
      List.concat
        (List.mapi
           (fun i q ->
             let t0 = Sys.time () in
             let fp =
               Span.with_span spans ~cat:"plancache" "fingerprint" (fun () ->
                   Fingerprint.make ~catalog:cat ~options ~required q)
             in
             let rejects_before = t.disk_rejects in
             let qevict_before = t.qerror_evictions in
             let found =
               Span.with_span spans ~cat:"plancache" "cache-lookup" (fun () ->
                   lookup ~validate:(entry_typechecks cat) ?qerror_limit t fp)
             in
             mhist registry "plancache/lookup_seconds" (Sys.time () -. t0);
             if t.disk_rejects > rejects_before then
               mincr registry "plancache/disk_reject";
             if t.qerror_evictions > qevict_before then
               mincr registry "plancache/qerror_eviction";
             match found with
             | Some e ->
               mincr registry "plancache/hit";
               results.(i) <-
                 Some
                   { plan = e.e_plan;
                     stats = e.e_stats;
                     opt_seconds = Sys.time () -. t0;
                     cached = true };
               []
             | None ->
               mincr registry "plancache/miss";
               [ (i, q, fp, Sys.time () -. t0) ])
           qs)
    in
    (match misses with
    | [] -> ()
    | _ :: _ ->
      let batch =
        Optimizer.optimize_batch ~options ?trace:(trace_of registry) ?spans cat
          (List.map (fun (_, q, _, _) -> (q, required)) misses)
      in
      List.iter2
        (fun (i, _q, fp, lookup_seconds) (o : Optimizer.outcome) ->
          let evicted = insert_counting t fp (entry_of_cold (Fingerprint.to_hex fp) o) in
          mincr registry "plancache/insert";
          if Option.is_some evicted then mincr registry "plancache/eviction";
          results.(i) <-
            Some { (outcome_of_cold o) with opt_seconds = lookup_seconds +. o.Optimizer.opt_seconds })
        misses batch;
      (match registry with
      | None -> ()
      | Some r ->
        Metrics.incr ~by:(List.length misses) r "plancache/mqo/roots";
        (match List.rev batch with
        | last :: _ -> Metrics.set r "plancache/mqo/groups" (float_of_int last.Optimizer.stats.Engine.groups)
        | [] -> ())));
    Array.to_list results
    |> List.map (function Some o -> o | None -> invalid_arg "Plancache.optimize_all: unfilled slot")
  end
