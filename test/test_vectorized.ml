(* Differential testing of the vectorized execution engine.

   Batch size is an execution knob, never a semantic one: the same plan
   must produce the same row multiset at every batch size, with size 1
   degrading to the classic tuple-at-a-time engine. This suite checks
   that invariant over the paper workload on two catalogs and over a
   seeded random query population (the same generator walk the plan
   cache's fuzz uses), verifying every optimized plan with the static
   checker before executing it. *)

module Value = Oodb_storage.Value
module Pred = Oodb_algebra.Pred
module Logical = Oodb_algebra.Logical
module Config = Oodb_cost.Config
module Db = Oodb_exec.Db
module Executor = Oodb_exec.Executor
module Opt = Open_oodb.Optimizer
module Verify = Oodb_verify.Verify
module Prng = Oodb_util.Prng
module Q = Oodb_workloads.Queries

let batch_sizes = [ 1; 7; 64; 1024 ]

let config_of batch_size = { Config.default with Config.batch_size }

let run_at db plan batch_size =
  Executor.run ~config:(config_of batch_size) db plan

let check_plan name cat plan =
  match Verify.plan cat plan with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "%s: plan fails verification:@.%a" name Verify.pp_violations vs

(* Same rows at every batch size, with batch 1 as the reference. *)
let check_batch_invariance name db plan =
  check_plan name (Db.catalog db) plan;
  let reference = run_at db plan 1 in
  List.iter
    (fun bs ->
      Helpers.check_same_rows
        (Printf.sprintf "%s: batch %d == batch 1" name bs)
        reference (run_at db plan bs))
    (List.filter (fun bs -> bs <> 1) batch_sizes)

let test_workload_batch_invariance_small () =
  let db = Lazy.force Helpers.small_db in
  List.iter
    (fun (name, q) ->
      let plan = Opt.plan_exn (Opt.optimize (Db.catalog db) q) in
      check_batch_invariance name db plan)
    Q.all

let test_workload_batch_invariance_medium () =
  let db = Lazy.force Helpers.medium_db in
  List.iter
    (fun (name, q) ->
      let plan = Opt.plan_exn (Opt.optimize (Db.catalog db) q) in
      check_batch_invariance name db plan)
    Q.all

(* Rule configurations change plan shapes (merge join vs hash join,
   assembly on/off); every shape must be batch-invariant, not just the
   default winner's. *)
let test_rule_configs_batch_invariant () =
  let db = Lazy.force Helpers.small_db in
  let configs =
    [ ("default", Open_oodb.Options.default);
      ("no-assembly", Open_oodb.Options.disable "mat-assembly" Open_oodb.Options.default);
      ("no-hash-join", Open_oodb.Options.disable "hash-join" Open_oodb.Options.default);
      ( "no-pointer-join",
        Open_oodb.Options.disable "pointer-join" Open_oodb.Options.default ) ]
  in
  List.iter
    (fun (cname, options) ->
      List.iter
        (fun (qname, q) ->
          match (Opt.optimize ~options (Db.catalog db) q).Opt.plan with
          | None -> ()
          | Some plan ->
            check_batch_invariance (Printf.sprintf "%s/%s" cname qname) db plan)
        Q.all)
    configs

(* ------------------------------------------------------------------ *)
(* Fuzz: seeded random queries (the shared Helpers.Fuzz population;
   fewer seeds than the fingerprint tests because each one executes at
   four batch sizes) *)

let n_fuzz = 80

let test_fuzz_batch_invariance () =
  let db = Lazy.force Helpers.small_db in
  let cat = Db.catalog db in
  for seed = 1 to n_fuzz do
    let q = Helpers.Fuzz.gen_expr ~seed ~root_name:"x" in
    (match Logical.well_formed cat q with
    | Ok () -> ()
    | Error m -> Alcotest.failf "seed %d: ill-formed query: %s" seed m);
    match (Opt.optimize cat q).Opt.plan with
    | None -> Alcotest.failf "seed %d: no plan" seed
    | Some plan -> check_batch_invariance (Printf.sprintf "seed %d" seed) db plan
  done

(* Assembly cuts its child's batches into windows itself: a window that
   straddles child batches must lose and duplicate nothing, and the
   child is pulled once per batch plus the final exhausted pull, as a
   tuple-at-a-time consumer would pull it. *)
let test_assembly_windows_across_batches () =
  let db = Lazy.force Helpers.small_db in
  let module Iterator = Oodb_exec.Iterator in
  let module Operators = Oodb_exec.Operators in
  let n = Oodb_storage.Store.cardinality (Db.store db) ~coll:"Cities" in
  let run window =
    let pulls = ref 0 in
    let scan = Operators.file_scan db ~coll:"Cities" ~binding:"c" ~batch_size:8 in
    let counted =
      Iterator.make_batched ~layout:(Iterator.layout scan)
        ~open_:(fun () -> Iterator.open_ scan)
        ~next_batch:(fun () ->
          incr pulls;
          Iterator.next_batch scan)
        ~close:(fun () -> Iterator.close scan)
    in
    let it =
      Operators.assembly db
        ~paths:[ { Open_oodb.Physical.ap_src = "c"; ap_field = Some "mayor"; ap_out = "m" } ]
        ~window counted
    in
    let l = Iterator.layout it in
    let pairs =
      List.map
        (fun env -> (Oodb_exec.Env.oid l "c" env, Oodb_exec.Env.oid l "m" env))
        (Iterator.to_list it)
    in
    (pairs, !pulls)
  in
  let reference, _ = run 64 in
  Alcotest.(check int) "every city" n (List.length reference);
  List.iter
    (fun window ->
      let pairs, pulls = run window in
      let what = Printf.sprintf "window %d" window in
      Alcotest.(check bool) (what ^ " == window 64") true (pairs = reference);
      Alcotest.(check int) (what ^ " child pulls") (((n + 7) / 8) + 1) pulls)
    [ 1; 3; 5; 8; 13 ]

let () =
  Alcotest.run "vectorized"
    [ ( "workload",
        [ Alcotest.test_case "small catalog, batch sizes {1,7,64,1024}" `Quick
            test_workload_batch_invariance_small;
          Alcotest.test_case "medium catalog, batch sizes {1,7,64,1024}" `Quick
            test_workload_batch_invariance_medium;
          Alcotest.test_case "alternate rule configurations" `Quick
            test_rule_configs_batch_invariant ] );
      ( "fuzz",
        [ Alcotest.test_case "seeded random plans batch-invariant" `Quick
            test_fuzz_batch_invariance ] );
      ( "protocol",
        [ Alcotest.test_case "assembly windows across child batches" `Quick
            test_assembly_windows_across_batches ] ) ]
