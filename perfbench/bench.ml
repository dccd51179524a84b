(* The repository benchmark: one workload per invocation.

     bench.exe --workload paper|joins|scenario --seed N --seconds S --trace 0|1

   Set-up (several times; the median is setup_s), then the oracle
   answer of every distinct query, one untimed warm-up pass, then timed
   passes of the seeded sequence until [--seconds] have passed and at
   least 100 queries ran. --trace 0 prints the end-to-end metrics;
   --trace 1 alternates traced and untraced passes and prints the
   per-layer metrics. The last line of standard output is the JSON
   result. *)

open Perfbench
module Span = Oodb_util.Span
module Json = Oodb_util.Json
module Plancache = Oodb_plancache.Plancache
module Engine = Open_oodb.Model.Engine
module Profile = Oodb_obs.Profile

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg r = Arg.Int (fun v -> r := Some v) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " paper | joins | scenario");
      ("--seed", int_arg seed, " input seed");
      ("--seconds", int_arg seconds, " length of the timed part");
      ("--trace", int_arg trace, " 0: end-to-end metrics, 1: per-layer metrics") ]
    (fun a -> die "unexpected argument %S" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then
    die "--workload must be one of %s" (String.concat ", " Workloads.names);
  let get name = function Some v -> v | None -> die "%s is required" name in
  let seconds = get "--seconds" !seconds and trace = get "--trace" !trace in
  if seconds < 1 then die "--seconds must be at least 1";
  if trace <> 0 && trace <> 1 then die "--trace must be 0 or 1";
  (!workload, get "--seed" !seed, seconds, trace = 1)

(* ------------------------------------------------------------------ *)

type pass = {
  traced : bool;
  outcomes : (int * Pipeline.outcome) array;  (** CPU times as measured *)
  kernel_ms : float array;  (** host-speed samples taken between the pass's queries *)
  layers : Layers.t option;
}

let kernel_samples_per_pass = 6

(* Runs the sequence once; with [traced], inside a fresh collector. *)
let run_pass ~(w : Workloads.t) ~expected ~tally ~traced =
  w.Workloads.before_pass ();
  let c = if traced then Some (Layers.collector ()) else None in
  let spans = Option.map (fun c -> c.Layers.spans) c in
  let every = max 1 (Array.length w.Workloads.sequence / kernel_samples_per_pass) in
  let kernel_ms = ref [] in
  let outcomes =
    Array.mapi
      (fun k i ->
        if k mod every = 0 then kernel_ms := Host.sample () :: !kernel_ms;
        let q = w.Workloads.queries.(i) in
        let o =
          match expected.(i) with
          | Error e -> Pipeline.failed ~compile_s:0.0 ~exec_s:0.0 ("oracle: " ^ e)
          | Ok expect ->
            let o, rows =
              Span.with_span spans ~cat:"bench" "query" (fun () -> Pipeline.run ?spans q)
            in
            Pipeline.check ~expect q o rows
        in
        Check.record tally o.Pipeline.result;
        (i, o))
      w.Workloads.sequence
  in
  (outcomes, Array.of_list !kernel_ms, c)

let pass_of ~traced (outcomes, kernel_ms, c) =
  { traced; outcomes; kernel_ms; layers = Option.map Layers.of_collector c }

let factor p = Host.factor p.kernel_ms

(* Query times scaled to the reference host speed of [Host]. *)
let scaled p =
  let f = factor p in
  Array.map
    (fun (i, o) ->
      (i, { o with Pipeline.compile_s = o.Pipeline.compile_s *. f; exec_s = o.Pipeline.exec_s *. f }))
    p.outcomes

let ok outcomes =
  Array.of_list (List.filter (fun (_, o) -> Result.is_ok o.Pipeline.result) (Array.to_list outcomes))

let ok_outcomes passes = ok (Array.concat (List.map scaled passes))

let query_s (o : Pipeline.outcome) = o.Pipeline.compile_s +. o.Pipeline.exec_s

let qps_of ok = float_of_int (Array.length ok) /. Stats.sum (Array.map (fun (_, o) -> query_s o) ok)

let qps passes = qps_of (ok_outcomes passes)

(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let result_json ~tally metrics =
  let fields =
    List.map
      (fun mt -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" mt.name mt.value mt.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.Check.failed = 0) tally.Check.attempted tally.Check.failed (String.concat ", " fields)

let print_fail_rate tally =
  Printf.printf "fail_rate %.6f share (%d of %d queries)%s\n" (Check.fail_rate tally)
    tally.Check.failed tally.Check.attempted
    (match tally.Check.first_failure with Some f -> "; first: " ^ f | None -> "")

(* No query succeeded, so there is nothing to measure. *)
let give_up ~tally =
  print_fail_rate tally;
  print_endline (result_json ~tally []);
  exit 1

let print_host passes =
  let samples = Array.concat (List.map (fun p -> p.kernel_ms) passes) in
  Printf.printf
    "host: kernel round %.3f ms (median of %d samples; reference %.1f ms); qps as measured %.2f\n"
    (Stats.median samples) (Array.length samples) Host.reference_ms
    (qps_of (ok (Array.concat (List.map (fun p -> p.outcomes) passes))))

let print_metrics metrics =
  List.iter (fun mt -> Printf.printf "  %-28s %16.6f %s\n" mt.name mt.value mt.unit_) metrics

let end_to_end ~(w : Workloads.t) ~setup_s ~first passes =
  let raw = ok (Array.concat (List.map (fun p -> p.outcomes) passes)) in
  let ok = ok_outcomes passes in
  let name_of (i, _) = w.Workloads.queries.(i).Pipeline.name in
  (* The scaled percentile is the metric; the one of the unscaled CPU
     times is printed beside it, so a change can be confirmed on both. *)
  let pct ~label ~pct f =
    let xs = Array.map (fun (_, o) -> f o) ok and rs = Array.map (fun (_, o) -> f o) raw in
    let i = Stats.percentile_index ~pct xs and j = Stats.percentile_index ~pct rs in
    Printf.printf "  %-16s landed on %s; as measured %.4f ms on %s\n" label (name_of ok.(i))
      (rs.(j) *. 1000.0) (name_of raw.(j));
    xs.(i) *. 1000.0
  in
  let first_ok = ok_outcomes [ first ] |> Array.map snd in
  let mean f = Stats.mean (Array.map f first_ok) in
  Printf.printf "percentiles over %d queries (each has >= %d samples beyond p90):\n"
    (Array.length ok) (Stats.beyond ~pct:90 (Array.length ok));
  let query_p50 = pct ~label:"query_ms_p50" ~pct:50 query_s in
  let query_p90 = pct ~label:"query_ms_p90" ~pct:90 query_s in
  let compile_p50 = pct ~label:"compile_ms_p50" ~pct:50 (fun o -> o.Pipeline.compile_s) in
  let compile_p90 = pct ~label:"compile_ms_p90" ~pct:90 (fun o -> o.Pipeline.compile_s) in
  let exec_p50 = pct ~label:"exec_ms_p50" ~pct:50 (fun o -> o.Pipeline.exec_s) in
  let exec_p90 = pct ~label:"exec_ms_p90" ~pct:90 (fun o -> o.Pipeline.exec_s) in
  [ m "qps" "1/s" (qps passes);
    m "query_ms_p50" "ms" query_p50;
    m "query_ms_p90" "ms" query_p90;
    m "compile_ms_p50" "ms" compile_p50;
    m "compile_ms_p90" "ms" compile_p90;
    m "exec_ms_p50" "ms" exec_p50;
    m "exec_ms_p90" "ms" exec_p90;
    m "sim_io_s_per_query" "sim_s"
      (mean (fun o ->
           match o.Pipeline.io with
           | Some io -> io.Oodb_exec.Executor.simulated_seconds
           | None -> 0.0));
    m "est_cost_s_per_query" "sim_s" (mean (fun o -> o.Pipeline.est_cost));
    m "peak_heap_mb" "MB"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    m "setup_s" "s" setup_s ]

(* Per-layer metrics. Counters come from the first traced pass, which
   follows the same deterministic history in every run with one seed;
   times are means over all traced passes. *)
let per_layer ~first ~gc ~(cache : Plancache.stats option * Plancache.stats option) ~lt ~nt
    ~overhead_pct ~kernel_ms =
  let l1 = Option.get first.layers in
  let n1 = float_of_int (Array.length first.outcomes) in
  let span_us name = (Layers.find lt name).Layers.incl_s /. nt *. 1e6 in
  let self_ms name = (Layers.find lt name).Layers.self_s /. nt *. 1e3 in
  let alloc_kw layer = (Layers.layer l1 layer).Layers.words /. n1 /. 1e3 in
  let outs = Array.map snd first.outcomes in
  let per_query f = Stats.sum (Array.map f outs) /. n1 in
  let search f =
    per_query (fun o -> match o.Pipeline.search with Some s -> float_of_int (f s) | None -> 0.0)
  in
  let io f = per_query (fun o -> match o.Pipeline.io with Some io -> float_of_int (f io) | None -> 0.0) in
  let rec nodes f (n : Profile.node) = f n + List.fold_left (fun a c -> a + nodes f c) 0 n.Profile.children in
  let prof f = per_query (fun o -> match o.Pipeline.profile with Some p -> float_of_int (nodes f p) | None -> 0.0) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let open Oodb_exec.Executor in
  let hits = io (fun r -> r.buffer_hits) and misses = io (fun r -> r.buffer_misses) in
  let tried = search (fun s -> s.Engine.trule_tried) and fired = search (fun s -> s.Engine.trule_fired) in
  let cands = search (fun s -> s.Engine.candidates)
  and pruned = search (fun s -> s.Engine.pruned_candidates) in
  let cache_hit_rate, cache_evictions =
    match cache with
    | Some a, Some b ->
      let h = b.Plancache.hits - a.Plancache.hits and ms = b.Plancache.misses - a.Plancache.misses in
      (ratio (float_of_int h) (float_of_int (h + ms)), float_of_int (b.Plancache.evictions - a.Plancache.evictions))
    | _ -> (0.0, 0.0)
  in
  let minor, major = gc in
  let layer_rows =
    List.concat_map
      (fun layer ->
        let a = Layers.layer lt layer in
        [ m (layer ^ ".self_ms") "ms" (a.Layers.self_s /. nt *. 1e3);
          m (layer ^ ".calls") "count" (float_of_int (Layers.layer l1 layer).Layers.calls /. n1);
          m (layer ^ ".alloc_kw") "kw" (alloc_kw layer) ])
      Layers.layers
  in
  layer_rows
  @ [ m "zql.parse_us" "us" (span_us "zql/parse");
      m "zql.simplify_us" "us" (span_us "zql/simplify");
      m "plancache.fingerprint_us" "us" (span_us "plancache/fingerprint");
      m "plancache.lookup_us" "us" (span_us "plancache/cache-lookup");
      m "plancache.hit_rate" "share" cache_hit_rate;
      m "plancache.evictions" "count" cache_evictions;
      m "core.prepare_lint_ms" "ms" (self_ms "core/compile");
      m "volcano.intern_ms" "ms" (self_ms "volcano/intern");
      m "volcano.closure_ms" "ms" (self_ms "volcano/logical-closure");
      m "volcano.search_ms" "ms" (self_ms "volcano/physical-search");
      m "volcano.groups" "count" (search (fun s -> s.Engine.groups));
      m "volcano.mexprs" "count" (search (fun s -> s.Engine.mexprs));
      m "volcano.trule_tried" "count" tried;
      m "volcano.trule_fired" "count" fired;
      m "volcano.fire_ratio" "share" (ratio fired tried);
      m "volcano.closure_steps" "count" (search (fun s -> s.Engine.closure_steps));
      m "volcano.candidates" "count" cands;
      m "volcano.pruned_candidates" "count" pruned;
      m "volcano.prune_ratio" "share" (ratio pruned cands);
      m "volcano.phys_memo_hits" "count" (search (fun s -> s.Engine.phys_memo_hits));
      m "volcano.enforcer_uses" "count" (search (fun s -> s.Engine.enforcer_uses));
      m "exec.build_us" "us" (span_us "exec/build");
      m "exec.drain_ms" "ms" (span_us "exec/run" /. 1e3);
      m "exec.rows" "count" (io (fun r -> r.rows));
      m "exec.batches" "count" (prof (fun n -> n.Profile.batches));
      m "exec.op_tuples" "count" (prof (fun n -> n.Profile.actual_rows));
      m "storage.seq_reads" "count" (io (fun r -> r.seq_reads));
      m "storage.rand_reads" "count" (io (fun r -> r.rand_reads));
      m "storage.spill_writes" "count" (io (fun r -> r.writes));
      m "storage.buffer_hits" "count" hits;
      m "storage.buffer_misses" "count" misses;
      m "storage.buffer_hit_ratio" "share" (ratio hits (hits +. misses));
      m "storage.buffer_evictions" "count" (io (fun r -> r.buffer_evictions));
      m "gc.minor_collections" "count" (float_of_int minor /. n1);
      m "gc.major_collections" "count" (float_of_int major /. n1);
      m "trace.overhead_pct" "%" overhead_pct;
      m "host.kernel_ms" "ms" kernel_ms ]

let print_layer_table lt ~n =
  Printf.printf "%-10s %12s %10s %14s   (per query, over traced passes)\n" "layer" "self_ms" "calls"
    "minor_kw";
  List.iter
    (fun layer ->
      let a = Layers.layer lt layer in
      Printf.printf "%-10s %12.4f %10.1f %14.1f\n" layer (a.Layers.self_s /. n *. 1e3)
        (float_of_int a.Layers.calls /. n) (a.Layers.words /. n /. 1e3))
    (Layers.layers @ [ "bench" ]);
  print_endline
    "storage and gc have no spans: the simulated disk and buffer pool run inside exec's operator \
     spans, and the collector inside every layer; both are reported as counts."

let write_trace ~workload ~seed c =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
  let oc = open_out path in
  output_string oc (Json.to_string ~minify:true (Span.to_chrome c.Layers.spans));
  close_out oc;
  path

(* The oracle's answer for every distinct query of the sequence. It runs
   in a child process, so its memory (over 1 GB for the nested-loop
   joins of the scenario corpus) stays out of the measured process's
   heap and out of peak_heap_mb. *)
let oracle (w : Workloads.t) =
  let n = Array.length w.Workloads.queries in
  let wanted = List.sort_uniq compare (Array.to_list w.Workloads.sequence) in
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let answers =
      List.map
        (fun i ->
          ( i,
            match Pipeline.expected w.Workloads.queries.(i) with
            | d -> Ok d
            | exception e -> Error (Printexc.to_string e) ))
        wanted
    in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (answers : (int * (Check.digest, string) result) list) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let answers =
      try Some (Marshal.from_channel ic : (int * (Check.digest, string) result) list)
      with End_of_file | Failure _ -> None
    in
    close_in ic;
    (match (Unix.waitpid [] pid, answers) with
    | (_, Unix.WEXITED 0), Some _ -> ()
    | _ -> die "the oracle process failed");
    let expected = Array.make n (Error "not in the sequence") in
    List.iter (fun (i, r) -> expected.(i) <- r) (Option.get answers);
    expected

(* ------------------------------------------------------------------ *)

let () =
  let workload, seed, seconds, trace = parse_args () in
  let reps = Workloads.setup_reps workload in
  let setups = Array.make reps 0.0 and kernel_ms = Array.make (3 * reps) 0.0 in
  let w = ref None in
  for i = 0 to reps - 1 do
    w := None;
    Gc.full_major ();
    let t0 = Sys.time () in
    let x = Workloads.setup workload ~seed in
    setups.(i) <- Sys.time () -. t0;
    for k = 0 to 2 do
      kernel_ms.((3 * i) + k) <- Host.sample ()
    done;
    w := Some x
  done;
  let w = Option.get !w in
  let setup_s = Stats.median setups *. Host.factor kernel_ms in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n" workload seed seconds (Bool.to_int trace);
  Printf.printf "setup: %d builds, median %.4f s (%.4f s as measured)\n" reps setup_s
    (Stats.median setups);
  let t_oracle = Unix.gettimeofday () in
  let expected = oracle w in
  Printf.printf "oracle: %d distinct queries in %.2f s; a pass is %d queries\n%!"
    (Array.fold_left (fun a r -> if Result.is_ok r then a + 1 else a) 0 expected)
    (Unix.gettimeofday () -. t_oracle) (Array.length w.Workloads.sequence);
  let tally = Check.tally () in
  ignore (run_pass ~w ~expected ~tally ~traced:false);
  let cache_stats () = Option.map Plancache.stats w.Workloads.cache in
  let start = Unix.gettimeofday () in
  let passes = ref [] in
  let timed_queries () = List.fold_left (fun a p -> a + Array.length p.outcomes) 0 !passes in
  let more () =
    Unix.gettimeofday () -. start < float_of_int seconds
    || timed_queries () < Stats.min_samples
    || List.length !passes < 2
  in
  let metrics =
    if not trace then begin
      while more () do
        passes := pass_of ~traced:false (run_pass ~w ~expected ~tally ~traced:false) :: !passes
      done;
      let passes = List.rev !passes in
      Printf.printf "timed: %d passes, %d queries; qps per pass: %s\n" (List.length passes)
        (timed_queries ())
        (String.concat " " (List.map (fun p -> Printf.sprintf "%.1f" (qps [ p ])) passes));
      print_host passes;
      if Array.length (ok_outcomes passes) = 0 then give_up ~tally;
      end_to_end ~w ~setup_s ~first:(List.hd passes) passes
    end
    else begin
      let gc0 = Gc.quick_stat () and cache0 = cache_stats () in
      let outcomes, kernel_ms, c = run_pass ~w ~expected ~tally ~traced:true in
      let gc1 = Gc.quick_stat () and cache1 = cache_stats () in
      let c = Option.get c in
      let path = write_trace ~workload ~seed c in
      let first = { traced = true; outcomes; kernel_ms; layers = Some (Layers.of_collector c) } in
      passes := [ first ];
      while more () do
        let traced = List.length !passes mod 2 = 0 in
        passes := pass_of ~traced (run_pass ~w ~expected ~tally ~traced) :: !passes
      done;
      let traced, untraced = List.partition (fun p -> p.traced) !passes in
      if Array.length (ok_outcomes traced) = 0 || Array.length (ok_outcomes untraced) = 0 then
        give_up ~tally;
      let q_t = qps traced and q_u = qps untraced in
      let overhead_pct = (q_u /. q_t -. 1.0) *. 100.0 in
      let lt = Layers.create () in
      List.iter (fun p -> Option.iter (Layers.merge ~scale:(factor p) ~into:lt) p.layers) traced;
      let nt = float_of_int (List.fold_left (fun a p -> a + Array.length p.outcomes) 0 traced) in
      Printf.printf
        "traced: %d passes (%.2f qps), untraced: %d passes (%.2f qps); tracing overhead %.1f%%\n"
        (List.length traced) q_t (List.length untraced) q_u overhead_pct;
      Printf.printf "chrome trace of the first traced pass: %s\n" path;
      print_host !passes;
      print_layer_table lt ~n:nt;
      let gc =
        ( gc1.Gc.minor_collections - gc0.Gc.minor_collections,
          gc1.Gc.major_collections - gc0.Gc.major_collections )
      in
      per_layer ~first ~gc ~cache:(cache0, cache1) ~lt ~nt ~overhead_pct
        ~kernel_ms:(Stats.median (Array.concat (List.map (fun p -> p.kernel_ms) !passes)))
    end
  in
  print_metrics metrics;
  print_fail_rate tally;
  print_endline (result_json ~tally metrics)
