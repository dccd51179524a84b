(* Execution-engine tests over a small generated database. *)

module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Pred = Oodb_algebra.Pred
module Logical = Oodb_algebra.Logical
module Physprop = Open_oodb.Physprop
module Physical = Open_oodb.Physical
module Engine = Open_oodb.Model.Engine
module Db = Oodb_exec.Db
module Env = Oodb_exec.Env
module Eval = Oodb_exec.Eval
module Iterator = Oodb_exec.Iterator
module Operators = Oodb_exec.Operators
module Executor = Oodb_exec.Executor
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options

let db () = Lazy.force Helpers.small_db

let cat () = Db.catalog (db ())

(* Manual plan node (costs irrelevant for execution). *)
let node alg children delivered =
  { Engine.alg;
    children;
    cost = Oodb_cost.Cost.zero;
    delivered = Physprop.in_memory delivered }

(* ------------------------------------------------------------------ *)
(* Env / Eval                                                           *)

let test_env_basics () =
  let d = db () in
  let store = Db.store d in
  let oid = List.hd (Store.oids store ~coll:"Cities") in
  let l = Env.layout [ ("c", true); ("x", false) ] in
  let env = [| Store.peek store oid; Env.reference store 99 |] in
  Alcotest.(check int) "oid" oid (Env.oid l "c" env);
  Alcotest.(check bool) "obj" true ((Env.obj l "c" env).Store.oid = oid);
  Alcotest.(check int) "ref oid" 99 (Env.oid l "x" env);
  Alcotest.check_raises "not materialized" (Env.Not_materialized "x") (fun () ->
      ignore (Env.obj l "x" env));
  Alcotest.check_raises "unbound" (Env.Unbound "nope") (fun () -> ignore (Env.oid l "nope" env));
  Alcotest.(check (list string)) "bindings" [ "c"; "x" ] (Env.bindings l);
  let partial = [| Env.absent; Env.reference store 99 |] in
  Alcotest.check_raises "absent slot raises" (Env.Unbound "c") (fun () ->
      ignore (Env.oid l "c" partial))

let test_eval () =
  let d = db () in
  let store = Db.store d in
  let oid = List.hd (Store.oids store ~coll:"Cities") in
  let l = Env.layout [ ("c", true) ] in
  let env = [| Store.peek store oid |] in
  let name = Store.field (Store.peek store oid) "name" in
  Alcotest.(check bool) "eq" true
    (Eval.atom l (Pred.atom Pred.Eq (Pred.Field ("c", "name")) (Pred.Const name)) env);
  Alcotest.(check bool) "self" true
    (Eval.atom l (Pred.atom Pred.Eq (Pred.Self "c") (Pred.Const (Value.Ref oid))) env);
  Alcotest.(check bool) "missing field is null" true
    (Eval.operand l (Pred.Field ("c", "no_such_field")) env = Value.Null);
  Alcotest.(check bool) "null comparisons false" false
    (Eval.atom l
       (Pred.atom Pred.Lt (Pred.Field ("c", "no_such_field")) (Pred.Const (Value.Int 1)))
       env)

(* ------------------------------------------------------------------ *)
(* Operators                                                            *)

(* Drain an iterator into its tuples paired with its layout, so tests
   can read slots by binding name. *)
let drain it =
  let l = Iterator.layout it in
  List.map (fun e -> (l, e)) (Iterator.to_list it)

let oid (l, e) b = Env.oid l b e

let obj (l, e) b = Env.obj l b e

let test_file_scan_counts () =
  let d = db () in
  let it = Operators.file_scan d ~coll:"Cities" ~binding:"c" ~batch_size:8 in
  let envs = drain it in
  Alcotest.(check int) "all cities" (Store.cardinality (Db.store d) ~coll:"Cities")
    (List.length envs)

let test_index_scan_equals_filter () =
  let d = db () in
  let store = Db.store d in
  (* pick the time of the first task so the result is non-empty *)
  let t0 = List.hd (Store.oids store ~coll:"Tasks") in
  let key = Store.field (Store.peek store t0) "time" in
  let via_index =
    drain
      (Operators.index_scan d ~coll:"Tasks" ~binding:"t" ~index:"tasks_time" ~key ~residual:[] ~derefs:[] ~batch_size:8)
    |> List.map (fun e -> oid e "t")
    |> List.sort compare
  in
  let via_scan =
    drain
      (Operators.filter
         [ Pred.atom Pred.Eq (Pred.Field ("t", "time")) (Pred.Const key) ]
         (Operators.file_scan d ~coll:"Tasks" ~binding:"t" ~batch_size:8))
    |> List.map (fun e -> oid e "t")
    |> List.sort compare
  in
  Alcotest.(check bool) "non-empty" true (via_scan <> []);
  Alcotest.(check (list int)) "same objects" via_scan via_index

let test_assembly_materializes () =
  let d = db () in
  let it =
    Operators.assembly d
      ~paths:[ { Physical.ap_src = "c"; ap_field = Some "mayor"; ap_out = "m" } ]
      ~window:4
      (Operators.file_scan d ~coll:"Cities" ~binding:"c" ~batch_size:8)
  in
  let envs = drain it in
  Alcotest.(check int) "cardinality preserved" (Store.cardinality (Db.store d) ~coll:"Cities")
    (List.length envs);
  List.iter
    (fun env ->
      let c = obj env "c" and m = obj env "m" in
      Alcotest.(check bool) "mayor resolved" true
        (Value.as_ref (Store.field c "mayor") = Some m.Store.oid))
    envs

let test_assembly_window_sizes_agree () =
  let d = db () in
  let run window =
    Operators.assembly d
      ~paths:[ { Physical.ap_src = "c"; ap_field = Some "mayor"; ap_out = "m" } ]
      ~window
      (Operators.file_scan d ~coll:"Cities" ~binding:"c" ~batch_size:8)
    |> drain
    |> List.map (fun e -> (oid e "c", oid e "m"))
  in
  Alcotest.(check bool) "window 1 == window 64" true (run 1 = run 64)

let test_unnest () =
  let d = db () in
  let store = Db.store d in
  let it =
    Operators.alg_unnest d ~src:"t" ~field:"team_members" ~out:"m" ~batch_size:8
      (Operators.file_scan d ~coll:"Tasks" ~binding:"t" ~batch_size:8)
  in
  let envs = drain it in
  let expected =
    List.fold_left
      (fun acc t ->
        acc + List.length (Value.set_elements (Store.field (Store.peek store t) "team_members")))
      0 (Store.oids store ~coll:"Tasks")
  in
  Alcotest.(check int) "one pair per member" expected (List.length envs);
  (* unnest output is a reference, not materialized *)
  match envs with
  | env :: _ ->
    Alcotest.check_raises "not in memory" (Env.Not_materialized "m") (fun () ->
        ignore (obj env "m"))
  | [] -> Alcotest.fail "no members"

let test_hash_join_equals_pointer_join () =
  let d = db () in
  let link = Pred.atom Pred.Eq (Pred.Field ("e", "dept")) (Pred.Self "d") in
  let hash =
    Operators.hash_join d Oodb_cost.Config.default [ link ]
      ~build:(Operators.file_scan d ~coll:"Departments" ~binding:"d" ~batch_size:8)
      ~probe:(Operators.file_scan d ~coll:"Employees" ~binding:"e" ~batch_size:8)
    |> drain
    |> List.map (fun env -> (oid env "e", oid env "d"))
    |> List.sort compare
  in
  let pointer =
    Operators.pointer_join d ~src:"e" ~field:(Some "dept") ~out:"d" ~residual:[]
      (Operators.file_scan d ~coll:"Employees" ~binding:"e" ~batch_size:8)
    |> drain
    |> List.map (fun env -> (oid env "e", oid env "d"))
    |> List.sort compare
  in
  Alcotest.(check bool) "non-empty" true (hash <> []);
  Alcotest.(check bool) "same pairs" true (hash = pointer)

let test_hash_join_residual () =
  let d = db () in
  let link = Pred.atom Pred.Eq (Pred.Field ("e", "dept")) (Pred.Self "d") in
  let residual = Pred.atom Pred.Ge (Pred.Field ("e", "age")) (Pred.Const (Value.Int 40)) in
  let rows =
    Operators.hash_join d Oodb_cost.Config.default [ link; residual ]
      ~build:(Operators.file_scan d ~coll:"Departments" ~binding:"d" ~batch_size:8)
      ~probe:(Operators.file_scan d ~coll:"Employees" ~binding:"e" ~batch_size:8)
    |> drain
  in
  List.iter
    (fun env ->
      match Store.field (obj env "e") "age" with
      | Value.Int a -> Alcotest.(check bool) "residual applied" true (a >= 40)
      | _ -> Alcotest.fail "age missing")
    rows

let test_setops () =
  let d = db () in
  let scan () = Operators.file_scan d ~coll:"Countries" ~binding:"n" ~batch_size:8 in
  let filter lo it =
    Operators.filter [ Pred.atom Pred.Ge (Pred.Self "n") (Pred.Const (Value.Ref lo)) ] it
  in
  let store = Db.store d in
  let oids = Store.oids store ~coll:"Countries" in
  let mid = List.nth oids (List.length oids / 2) in
  let n_all = List.length oids in
  let high () = filter mid (scan ()) in
  let union = drain (Operators.hash_union ~batch_size:8 (scan ()) (high ())) in
  Alcotest.(check int) "union dedups" n_all (List.length union);
  let inter = drain (Operators.hash_intersect ~batch_size:8 (scan ()) (high ())) in
  let n_high = List.length (drain (high ())) in
  Alcotest.(check int) "intersection" n_high (List.length inter);
  let diff = drain (Operators.hash_difference ~batch_size:8 (scan ()) (high ())) in
  Alcotest.(check int) "difference" (n_all - n_high) (List.length diff)

(* The inputs of a set operation may deliver their bindings in different
   slot orders (different join orders): identity keys must agree across
   them, and right-input tuples must be re-slotted into the output
   layout. *)
let test_setops_across_join_orders () =
  let d = db () in
  let link = Pred.atom Pred.Eq (Pred.Field ("e", "dept")) (Pred.Self "d") in
  let scan coll b = Operators.file_scan d ~coll ~binding:b ~batch_size:8 in
  let join build probe =
    Operators.hash_join d Oodb_cost.Config.default [ link ] ~build ~probe
  in
  let de () = join (scan "Departments" "d") (scan "Employees" "e") in
  let ed () = join (scan "Employees" "e") (scan "Departments" "d") in
  let pairs envs = List.sort compare (List.map (fun env -> (oid env "e", oid env "d")) envs) in
  let expected = pairs (drain (de ())) in
  Alcotest.(check bool) "non-empty" true (expected <> []);
  Alcotest.(check bool) "same pairs either order" true (pairs (drain (ed ())) = expected);
  let check name it = Alcotest.(check bool) name true (pairs (drain it) = expected) in
  check "union, d-e first" (Operators.hash_union ~batch_size:8 (de ()) (ed ()));
  check "union, e-d first" (Operators.hash_union ~batch_size:8 (ed ()) (de ()));
  check "union of nothing and e-d"
    (Operators.hash_union ~batch_size:8
       (Operators.filter [ Pred.atom Pred.Eq (Pred.Self "e") (Pred.Const Value.Null) ] (de ()))
       (ed ()));
  check "intersection" (Operators.hash_intersect ~batch_size:8 (de ()) (ed ()));
  Alcotest.(check int) "difference" 0
    (List.length (drain (Operators.hash_difference ~batch_size:8 (ed ()) (de ()))))

let test_sort () =
  let d = db () in
  let it =
    Operators.sort
      { Physprop.ord_binding = "n"; ord_field = Some "name" }
      ~batch_size:8
      (Operators.file_scan d ~coll:"Countries" ~binding:"n" ~batch_size:8)
  in
  let names =
    drain it |> List.map (fun env -> Store.field (obj env "n") "name")
  in
  let sorted = List.sort Value.compare names in
  Alcotest.(check bool) "sorted output" true (names = sorted)

let test_trim_enforces_properties () =
  let d = db () in
  (* a scan trimmed to nothing must raise on field access *)
  let it = Operators.trim [] (Operators.file_scan d ~coll:"Cities" ~binding:"c" ~batch_size:8) in
  Iterator.open_ it;
  (match Iterator.next_batch it with
  | Some b ->
    Alcotest.check_raises "demoted to reference" (Env.Not_materialized "c") (fun () ->
        ignore (Env.obj (Iterator.layout it) "c" (Oodb_exec.Batch.get b 0)))
  | None -> Alcotest.fail "no tuples");
  Iterator.close it

(* A failing operator must not leak its children: [Iterator.to_list]
   (the executor's drain) closes the whole tree before re-raising. The
   spy records whether the scan underneath the exploding filter got its
   [close]. *)
let test_failing_predicate_closes_tree () =
  let d = db () in
  let closed = ref false in
  let inner = Operators.file_scan d ~coll:"Cities" ~binding:"c" ~batch_size:4 in
  let spy =
    Iterator.make_batched ~layout:(Iterator.layout inner)
      ~open_:(fun () ->
        closed := false;
        Iterator.open_ inner)
      ~next_batch:(fun () -> Iterator.next_batch inner)
      ~close:(fun () ->
        closed := true;
        Iterator.close inner)
  in
  (* the predicate references an unbound binding, so evaluation raises *)
  let boom =
    [ Pred.atom Pred.Eq (Pred.Field ("zzz", "f")) (Pred.Const (Value.Int 1)) ]
  in
  let it = Operators.filter boom spy in
  Alcotest.check_raises "predicate raises" (Env.Unbound "zzz") (fun () ->
      ignore (Iterator.to_list it));
  Alcotest.(check bool) "scan closed despite exception" true !closed

(* ------------------------------------------------------------------ *)
(* Executor on optimizer output                                         *)

let test_run_measured_resets () =
  let d = db () in
  let q = Oodb_workloads.Queries.q2 in
  let plan = Opt.plan_exn (Opt.optimize (cat ()) q) in
  let _, r1 = Executor.run_measured d plan in
  let _, r2 = Executor.run_measured d plan in
  Alcotest.(check int) "deterministic io" (r1.Executor.seq_reads + r1.Executor.rand_reads)
    (r2.Executor.seq_reads + r2.Executor.rand_reads)

let test_all_queries_execute () =
  let d = db () in
  let c = cat () in
  ignore c;
  List.iter
    (fun (name, q) ->
      let plan = Opt.plan_exn (Opt.optimize (Db.catalog d) q) in
      let rows = Executor.run d plan in
      Alcotest.(check bool) (name ^ " executes") true (List.length rows >= 0))
    Oodb_workloads.Queries.all

let test_malformed_plan_rejected () =
  let d = db () in
  let bad = node (Physical.Filter []) [] [] in
  Alcotest.(check bool) "arity checked" true
    (try
       ignore (Executor.run d bad);
       false
     with Invalid_argument _ -> true)

let test_missing_index_rejected () =
  let d = db () in
  let bad =
    node
      (Physical.Index_scan
         { coll = "Cities";
           binding = "c";
           index = "no_such_index";
           key = Value.Int 1;
           residual = [];
           derefs = [] })
      [] [ "c" ]
  in
  Alcotest.(check bool) "missing physical index" true
    (try
       ignore (Executor.run d bad);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Analyze (statistics refresh)                                         *)

let test_analyze () =
  (* a fresh db so catalog mutations don't leak into shared fixtures *)
  let d = Oodb_workloads.Datagen.generate ~scale:0.02 ~buffer_pages:64 () in
  let cat = Db.catalog d in
  let distinct_names = Oodb_exec.Analyze.distinct_values d ~coll:"Persons" ~field:"name" in
  Alcotest.(check bool) "plausible distinct count" true (distinct_names > 1);
  let avg = Oodb_exec.Analyze.average_set_size d ~coll:"Tasks" ~field:"team_members" in
  Alcotest.(check bool) "teams non-empty" true (avg > 1.0);
  let report = Oodb_exec.Analyze.refresh d in
  Alcotest.(check bool) "updated something" true
    (report.Oodb_exec.Analyze.attributes_updated > 0
    && report.Oodb_exec.Analyze.set_attributes_updated > 0
    && report.Oodb_exec.Analyze.indexes_updated = 3);
  Alcotest.(check (option int)) "measured stat stored" (Some distinct_names)
    (Oodb_catalog.Catalog.distinct cat ~cls:"Person" ~field:"name");
  (* the deliberately unstatisticized attribute stays that way *)
  Alcotest.(check (option int)) "Task.time untouched" None
    (Oodb_catalog.Catalog.distinct cat ~cls:"Task" ~field:"time");
  (* the optimizer still works against refreshed statistics *)
  let o = Opt.optimize cat Oodb_workloads.Queries.q2 in
  Alcotest.(check bool) "plan found" true (o.Opt.plan <> None)


let () =
  Alcotest.run "exec"
    [ ( "env",
        [ Alcotest.test_case "bindings and slots" `Quick test_env_basics;
          Alcotest.test_case "predicate evaluation" `Quick test_eval ] );
      ( "operators",
        [ Alcotest.test_case "file scan" `Quick test_file_scan_counts;
          Alcotest.test_case "index scan == filter" `Quick test_index_scan_equals_filter;
          Alcotest.test_case "assembly materializes" `Quick test_assembly_materializes;
          Alcotest.test_case "assembly window invariance" `Quick test_assembly_window_sizes_agree;
          Alcotest.test_case "unnest reveals references" `Quick test_unnest;
          Alcotest.test_case "hash join == pointer join" `Quick test_hash_join_equals_pointer_join;
          Alcotest.test_case "hash join residual" `Quick test_hash_join_residual;
          Alcotest.test_case "set operations" `Quick test_setops;
          Alcotest.test_case "set operations across join orders" `Quick
            test_setops_across_join_orders;
          Alcotest.test_case "sort" `Quick test_sort;
          Alcotest.test_case "trim enforces properties" `Quick test_trim_enforces_properties;
          Alcotest.test_case "exception closes iterator tree" `Quick
            test_failing_predicate_closes_tree ] );
      ( "executor",
        [ Alcotest.test_case "measured runs reset stats" `Quick test_run_measured_resets;
          Alcotest.test_case "all paper queries execute" `Quick test_all_queries_execute;
          Alcotest.test_case "malformed plans rejected" `Quick test_malformed_plan_rejected;
          Alcotest.test_case "missing index rejected" `Quick test_missing_index_rejected ] );
      ("analyze", [ Alcotest.test_case "statistics refresh" `Quick test_analyze ]) ]

