module Json = Oodb_util.Json

let schema_version = 4

type query_rec = {
  q_name : string;
  q_opt_min : float;
  q_opt_median : float;
  q_exec_min : float;
  q_exec_median : float;
  q_rows : int;
  q_groups : int;
  q_rules_fired : int;
  q_mean_qerror : float;  (* nan when not recorded (schema v1 baselines) *)
}

type scale_rec = {
  s_shape : string;  (* join-graph shape: chain, cycle or star *)
  s_width : int;
  s_opt_seconds : float;  (* one cold run of the default search *)
  s_groups : int;
  s_mexprs : int;
  s_candidates : int;
  s_pruned : int;
}

type record = {
  r_git_sha : string;
  r_date : string;
  r_batch_size : int;
  r_cache_hit_rate : float;
  r_queries : query_rec list;
  r_search_scale : scale_rec list;  (* [] on v1/v2 records *)
  r_provenance_overhead_pct : float;  (* nan on v1-v3 records *)
  r_whynot_smoke : (string * float) list;  (* [] on v1-v3 records *)
}

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let query_json q =
  Json.Obj
    [ ("name", Json.String q.q_name);
      ("opt_min_seconds", Json.float q.q_opt_min);
      ("opt_median_seconds", Json.float q.q_opt_median);
      ("exec_min_seconds", Json.float q.q_exec_min);
      ("exec_median_seconds", Json.float q.q_exec_median);
      ("rows", Json.Int q.q_rows);
      ("memo_groups", Json.Int q.q_groups);
      ("rules_fired", Json.Int q.q_rules_fired);
      (* Json.float encodes the nan of an unprofiled run as null *)
      ("mean_qerror", Json.float q.q_mean_qerror) ]

let scale_json s =
  Json.Obj
    [ ("shape", Json.String s.s_shape);
      ("width", Json.Int s.s_width);
      ("opt_seconds", Json.float s.s_opt_seconds);
      ("memo_groups", Json.Int s.s_groups);
      ("memo_mexprs", Json.Int s.s_mexprs);
      ("plans", Json.Int s.s_candidates);
      ("pruned", Json.Int s.s_pruned) ]

let to_json r =
  Json.Obj
    [ ("schema_version", Json.Int schema_version);
      ("git_sha", Json.String r.r_git_sha);
      ("date", Json.String r.r_date);
      ("batch_size", Json.Int r.r_batch_size);
      ("cache_hit_rate", Json.float r.r_cache_hit_rate);
      ("queries", Json.List (List.map query_json r.r_queries));
      ("search_scale", Json.List (List.map scale_json r.r_search_scale));
      (* Json.float encodes the nan of an unmeasured run as null *)
      ("provenance_overhead_pct", Json.float r.r_provenance_overhead_pct);
      ( "whynot_smoke",
        Json.List
          (List.map
             (fun (name, seconds) ->
               Json.Obj
                 [ ("name", Json.String name); ("seconds", Json.float seconds) ])
             r.r_whynot_smoke) ) ]

let ( let* ) = Result.bind

let field name conv j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let to_string_opt = function Json.String s -> Some s | _ -> None

let query_of_json j =
  let* q_name = field "name" to_string_opt j in
  let* q_opt_min = field "opt_min_seconds" Json.to_float j in
  let* q_opt_median = field "opt_median_seconds" Json.to_float j in
  let* q_exec_min = field "exec_min_seconds" Json.to_float j in
  let* q_exec_median = field "exec_median_seconds" Json.to_float j in
  let* q_rows = field "rows" Json.to_int j in
  let* q_groups = field "memo_groups" Json.to_int j in
  let* q_rules_fired = field "rules_fired" Json.to_int j in
  (* Absent (v1 record) or null (unprofiled run) both read as nan. *)
  let q_mean_qerror =
    match Json.member "mean_qerror" j with
    | Some v -> Option.value (Json.to_float v) ~default:Float.nan
    | None -> Float.nan
  in
  Ok { q_name; q_opt_min; q_opt_median; q_exec_min; q_exec_median; q_rows;
       q_groups; q_rules_fired; q_mean_qerror }

let scale_of_json j =
  (* Records before the star and cycle sweeps measured chains only. *)
  let* s_shape =
    match Json.member "shape" j with None -> Ok "chain" | Some _ -> field "shape" to_string_opt j
  in
  let* s_width = field "width" Json.to_int j in
  (* Older records also carry "exhaustive_seconds"; it is ignored. *)
  let* s_opt_seconds = field "opt_seconds" Json.to_float j in
  let* s_groups = field "memo_groups" Json.to_int j in
  let* s_mexprs = field "memo_mexprs" Json.to_int j in
  let* s_candidates = field "plans" Json.to_int j in
  let* s_pruned = field "pruned" Json.to_int j in
  Ok { s_shape; s_width; s_opt_seconds; s_groups; s_mexprs; s_candidates; s_pruned }

let rec all_ok = function
  | [] -> Ok []
  | Error e :: _ -> Error e
  | Ok x :: tl ->
    let* rest = all_ok tl in
    Ok (x :: rest)

let of_json j =
  let* version = field "schema_version" Json.to_int j in
  (* v1 records (no mean_qerror) still load, so an existing history file
     keeps serving as a baseline across the schema bump. *)
  if version < 1 || version > schema_version then
    Error (Printf.sprintf "schema_version %d, expected 1..%d" version schema_version)
  else
    let* r_git_sha = field "git_sha" to_string_opt j in
    let* r_date = field "date" to_string_opt j in
    let* r_batch_size = field "batch_size" Json.to_int j in
    let* r_cache_hit_rate = field "cache_hit_rate" Json.to_float j in
    let* queries = field "queries" Json.to_list j in
    let* r_queries = all_ok (List.map query_of_json queries) in
    (* Absent on v1/v2 records: an existing history file keeps serving
       as a baseline across the schema bump, with no scale deltas. *)
    let* r_search_scale =
      match Json.member "search_scale" j with
      | None -> Ok []
      | Some v -> (
        match Json.to_list v with
        | None -> Error "field \"search_scale\" has the wrong type"
        | Some l -> all_ok (List.map scale_of_json l))
    in
    (* Absent on v1-v3 records, null when the run skipped the overhead
       measurement — both read as nan / []. *)
    let r_provenance_overhead_pct =
      match Json.member "provenance_overhead_pct" j with
      | Some v -> Option.value (Json.to_float v) ~default:Float.nan
      | None -> Float.nan
    in
    let* r_whynot_smoke =
      match Json.member "whynot_smoke" j with
      | None -> Ok []
      | Some v -> (
        match Json.to_list v with
        | None -> Error "field \"whynot_smoke\" has the wrong type"
        | Some l ->
          all_ok
            (List.map
               (fun entry ->
                 let* name = field "name" to_string_opt entry in
                 let* seconds = field "seconds" Json.to_float entry in
                 Ok (name, seconds))
               l))
    in
    if r_queries = [] then Error "empty \"queries\""
    else
      Ok { r_git_sha; r_date; r_batch_size; r_cache_hit_rate; r_queries; r_search_scale;
           r_provenance_overhead_pct; r_whynot_smoke }

let of_line line =
  let* j = Json.of_string line in
  of_json j

(* ------------------------------------------------------------------ *)
(* JSONL file I/O                                                      *)

let append path r =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string ~minify:true (to_json r));
      output_char oc '\n')

let load path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "%s: no such file" path)
  else if Sys.is_directory path then Error (Printf.sprintf "%s: is a directory" path)
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | "" -> loop (lineno + 1) acc
          | line -> (
            match of_line line with
            | Ok r -> loop (lineno + 1) (r :: acc)
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
        in
        loop 1 [])
  end

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

type delta = {
  d_query : string;
  d_metric : string;
  d_old : float;
  d_new : float;
  d_ratio : float;
  d_regressed : bool;
}

type comparison = {
  c_old_sha : string;
  c_new_sha : string;
  c_threshold : float;
  c_min_seconds : float;
  c_deltas : delta list;
  c_missing : string list;
  c_added : string list;
}

let default_threshold = 0.5

let default_min_seconds = 1e-3

(* Absolute noise floor for the mean-q-error delta, in q units: a plan
   whose mean q-error drifts by less than half a q is not a planning
   regression worth failing on. *)
let qerror_floor = 0.5

let compare_records ?(threshold = default_threshold)
    ?(min_seconds = default_min_seconds) ~old_rec ~new_rec () =
  let delta_with ~floor q metric old_v new_v =
    let ratio = if old_v > 0. then new_v /. old_v else Float.infinity in
    (* Noise gate: both a relative blow-up and an absolute floor — a
       0.1 ms wobble on a sub-millisecond query is not a regression. *)
    let regressed =
      new_v > old_v *. (1. +. threshold) && new_v -. old_v > floor
    in
    { d_query = q; d_metric = metric; d_old = old_v; d_new = new_v;
      d_ratio = ratio; d_regressed = regressed }
  in
  let delta = delta_with ~floor:min_seconds in
  let deltas =
    List.concat_map
      (fun (nq : query_rec) ->
        match
          List.find_opt (fun oq -> String.equal oq.q_name nq.q_name)
            old_rec.r_queries
        with
        | None -> []
        | Some oq ->
          (* Compare the min-of-trials: the most noise-robust statistic
             of the ones recorded. *)
          [ delta nq.q_name "opt_min_seconds" oq.q_opt_min nq.q_opt_min;
            delta nq.q_name "exec_min_seconds" oq.q_exec_min nq.q_exec_min ]
          @
          (* Only when both sides recorded it: a v1 baseline or an
             unprofiled run carries nan, which must not fabricate a
             delta. *)
          (if Float.is_nan oq.q_mean_qerror || Float.is_nan nq.q_mean_qerror
           then []
           else
             [ delta_with ~floor:qerror_floor nq.q_name "mean_qerror"
                 oq.q_mean_qerror nq.q_mean_qerror ]))
      new_rec.r_queries
  in
  let deltas =
    deltas
    @ List.concat_map
        (fun (ns : scale_rec) ->
          match
            List.find_opt
              (fun os -> os.s_shape = ns.s_shape && os.s_width = ns.s_width)
              old_rec.r_search_scale
          with
          | None -> []
          | Some os ->
            [ delta
                (Printf.sprintf "%s%d" ns.s_shape ns.s_width)
                "opt_seconds" os.s_opt_seconds ns.s_opt_seconds ])
        new_rec.r_search_scale
  in
  let names r = List.map (fun q -> q.q_name) r.r_queries in
  let missing =
    List.filter (fun n -> not (List.mem n (names new_rec))) (names old_rec)
  in
  let added =
    List.filter (fun n -> not (List.mem n (names old_rec))) (names new_rec)
  in
  { c_old_sha = old_rec.r_git_sha;
    c_new_sha = new_rec.r_git_sha;
    c_threshold = threshold;
    c_min_seconds = min_seconds;
    c_deltas = deltas;
    c_missing = missing;
    c_added = added }

let regressed c = List.exists (fun d -> d.d_regressed) c.c_deltas

let pp_comparison ppf c =
  Format.fprintf ppf "bench-compare %s -> %s (threshold +%.0f%%, floor %gs)@."
    c.c_old_sha c.c_new_sha (100. *. c.c_threshold) c.c_min_seconds;
  List.iter
    (fun d ->
      let unit = if Filename.check_suffix d.d_metric "_seconds" then "s" else "" in
      Format.fprintf ppf "  %-24s %-18s %10.6f%s -> %10.6f%s  %5.2fx%s@." d.d_query
        d.d_metric d.d_old unit d.d_new unit d.d_ratio
        (if d.d_regressed then "  REGRESSION" else ""))
    c.c_deltas;
  List.iter (fun n -> Format.fprintf ppf "  %s: missing from new record@." n)
    c.c_missing;
  List.iter (fun n -> Format.fprintf ppf "  %s: new query (no baseline)@." n)
    c.c_added;
  if regressed c then
    Format.fprintf ppf "RESULT: regression detected@."
  else Format.fprintf ppf "RESULT: ok@."

let comparison_json c =
  Json.Obj
    [ ("old_sha", Json.String c.c_old_sha);
      ("new_sha", Json.String c.c_new_sha);
      ("threshold", Json.float c.c_threshold);
      ("min_seconds", Json.float c.c_min_seconds);
      ("regressed", Json.Bool (regressed c));
      ( "deltas",
        Json.List
          (List.map
             (fun d ->
               Json.Obj
                 [ ("query", Json.String d.d_query);
                   ("metric", Json.String d.d_metric);
                   ("old", Json.float d.d_old);
                   ("new", Json.float d.d_new);
                   ("ratio", Json.float d.d_ratio);
                   ("regressed", Json.Bool d.d_regressed) ])
             c.c_deltas) );
      ("missing", Json.List (List.map (fun n -> Json.String n) c.c_missing));
      ("added", Json.List (List.map (fun n -> Json.String n) c.c_added)) ]
