(* End-to-end optimizer tests: the plan shapes and cost relations of the
   paper's four example queries (Figures 6-13, Tables 2-3). *)

module Value = Oodb_storage.Value
module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module Cost = Oodb_cost.Cost
module Catalog = Oodb_catalog.Catalog
module OC = Oodb_catalog.Open_oodb_catalog
module Q = Oodb_workloads.Queries
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Physical = Open_oodb.Physical
module Physprop = Open_oodb.Physprop
module Engine = Open_oodb.Model.Engine
module Model = Open_oodb.Model

let cat () = OC.catalog_with_indexes ()

let plan ?options ?required q = Opt.plan_exn (Opt.optimize ?options ?required (cat ()) q)

let total p = Cost.total p.Engine.cost

(* ------------------------------------------------------------------ *)
(* Query 1 (Figures 5-7, Table 2)                                       *)

let test_q1_fig6_shape () =
  (* Fig 6: project over two hash joins; departments filtered and their
     plants assembled on the small side; employees and jobs scanned *)
  Helpers.check_shape "figure 6"
    [ "project"; "hash-join"; "hash-join"; "filter"; "assembly"; "file-scan"; "file-scan";
      "file-scan" ]
    (plan Q.q1)

let test_q1_fig6_details () =
  let p = plan Q.q1 in
  let algs = Helpers.algs p in
  (* the assembly resolves d.plant on the department side, not per employee *)
  Alcotest.(check bool) "assembles e.dept.plant" true
    (List.exists
       (function
         | Physical.Assembly { paths = [ { Physical.ap_out = "e.dept.plant"; _ } ]; _ } -> true
         | _ -> false)
       algs);
  (* jobs and departments are file-scanned via their extents *)
  let scanned =
    List.filter_map (function Physical.File_scan { coll; _ } -> Some coll | _ -> None) algs
  in
  Alcotest.(check bool) "scans Departments/Employees/Jobs" true
    (List.sort compare scanned = [ "Departments"; "Employees"; "Jobs" ])

let test_q1_naive_is_fig7 () =
  (* disabling mat-to-join leaves only pointer chasing: Fig 7's plan *)
  let options = Options.disable "mat-to-join" Options.default in
  let p = plan ~options Q.q1 in
  Alcotest.(check bool) "no joins" true
    (List.for_all (function Physical.Hash_join _ -> false | _ -> true) (Helpers.algs p));
  Alcotest.(check bool) "at least 3x worse than optimal" true (total p > 3.0 *. total (plan Q.q1))

let test_q1_table2_ordering () =
  let all = total (plan Q.q1) in
  let naive = total (plan ~options:(Options.disable "mat-to-join" Options.default) Q.q1) in
  let no_window =
    total
      (plan
         ~options:(Options.with_assembly_window 1 (Options.disable "mat-to-join" Options.default))
         Q.q1)
  in
  let no_commute = total (plan ~options:(Options.without_join_commutativity Options.default) Q.q1) in
  Alcotest.(check bool) "all rules best" true (all < no_commute);
  Alcotest.(check bool) "naive worse than uncommuted" true (no_commute < naive);
  Alcotest.(check bool) "window 1 worst" true (naive < no_window)

(* ------------------------------------------------------------------ *)
(* Query 2 (Figures 8-9)                                                *)

let test_q2_collapses_to_index_scan () =
  let p = plan Q.q2 in
  Helpers.check_shape "figure 8" [ "index-scan" ] p;
  match p.Engine.alg with
  | Physical.Index_scan { index = "cities_mayor_name"; key = Value.Str "Joe"; residual = []; _ } ->
    ()
  | _ -> Alcotest.fail "expected collapse onto the mayor-name path index"

let test_q2_no_collapse_is_fig9 () =
  let options = Options.disable "collapse-index-scan" Options.default in
  let p = plan ~options Q.q2 in
  Helpers.check_shape "figure 9" [ "filter"; "assembly"; "file-scan" ] p;
  (* "a substantial increase in execution time (about four orders of
     magnitude)" *)
  Alcotest.(check bool) "orders of magnitude" true (total p > 100.0 *. total (plan Q.q2))

let test_q2_no_index_same_as_no_collapse () =
  let cat_no_ix = OC.catalog () in
  Catalog.add_index cat_no_ix OC.idx_tasks_time;
  let p = Opt.plan_exn (Opt.optimize cat_no_ix Q.q2) in
  Helpers.check_shape "no path index" [ "filter"; "assembly"; "file-scan" ] p

(* ------------------------------------------------------------------ *)
(* Query 3 (Figures 10-11): physical properties and goal-directed search *)

let test_q3_enforcer_plan () =
  let p = plan Q.q3 in
  Helpers.check_shape "figure 10" [ "project"; "assembly"; "index-scan" ] p;
  (* the assembly enforces presence in memory of the mayor *)
  match (List.nth (Helpers.algs p) 1 : Physical.t) with
  | Physical.Assembly { paths = [ { Physical.ap_out = "c.mayor"; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "expected the mayor assembly enforcer"

let test_q3_cost_close_to_q2 () =
  (* Q3 only adds assembling ~2 mayors: "three orders of magnitude" better
     than the filter-based plan *)
  let q3 = total (plan Q.q3) in
  let filter_based =
    total (plan ~options:(Options.disable "collapse-index-scan" Options.default) Q.q3)
  in
  Alcotest.(check bool) "cheap" true (q3 < 1.0);
  Alcotest.(check bool) "orders of magnitude" true (filter_based > 100.0 *. q3)

let test_q3_required_props_respected () =
  (* demanding the city in memory at the root must still be satisfied *)
  let required = Physprop.in_memory [ "c" ] in
  let p = plan ~required Q.q3 in
  Alcotest.(check bool) "plan exists" true (total p > 0.0)

(* ------------------------------------------------------------------ *)
(* Query 4 (Figures 12-13, Table 3)                                     *)

let test_q4_fig12_shape () =
  let p = plan Q.q4 in
  Helpers.check_shape "figure 12" [ "filter"; "assembly"; "unnest"; "index-scan" ] p;
  match p.Engine.alg with
  | Physical.Filter [ a ] ->
    Alcotest.(check bool) "name filter on top" true (Pred.bindings [ a ] = [ "e" ])
  | _ -> Alcotest.fail "expected the Fred filter on top"

let test_q4_uses_only_time_index () =
  let p = plan Q.q4 in
  let indexes =
    List.filter_map
      (function Physical.Index_scan { index; _ } -> Some index | _ -> None)
      (Helpers.algs p)
  in
  Alcotest.(check (list string)) "only the time index" [ "tasks_time" ] indexes

let test_q4_table3_orderings () =
  let cost_with ixs =
    let c = OC.catalog () in
    List.iter (Catalog.add_index c) ixs;
    total (Opt.plan_exn (Opt.optimize c Q.q4))
  in
  let none = cost_with [] in
  let time_only = cost_with [ OC.idx_tasks_time ] in
  let name_only = cost_with [ OC.idx_employees_name ] in
  let both = cost_with [ OC.idx_tasks_time; OC.idx_employees_name ] in
  Alcotest.(check (float 1e-6)) "both == time only" time_only both;
  Alcotest.(check bool) "time best" true (time_only < name_only);
  Alcotest.(check bool) "name beats none" true (name_only < none)

(* ------------------------------------------------------------------ *)
(* General behaviour                                                    *)

let test_optimization_time () =
  (* the paper targets < 1s on a 1993 workstation; we are far below *)
  let o = Opt.optimize (cat ()) Q.q1 in
  Alcotest.(check bool) "sub-second" true (o.Opt.opt_seconds < 1.0)

let test_ill_formed_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Opt.optimize (cat ()) (Logical.get ~coll:"Nope" ~binding:"x"));
       false
     with Invalid_argument _ -> true)

let test_pruning_equivalence () =
  List.iter
    (fun (name, q) ->
      let on = Opt.cost (Opt.optimize ~options:{ Options.default with Options.pruning = true } (cat ()) q) in
      let off = Opt.cost (Opt.optimize ~options:{ Options.default with Options.pruning = false } (cat ()) q) in
      Alcotest.(check (float 1e-6)) (name ^ ": pruning preserves optimum") (Cost.total off)
        (Cost.total on))
    Q.all

let test_rule_subsets_never_improve () =
  List.iter
    (fun rule ->
      let base = Cost.total (Opt.cost (Opt.optimize (cat ()) Q.q1)) in
      let restricted =
        Cost.total (Opt.cost (Opt.optimize ~options:(Options.disable rule Options.default) (cat ()) Q.q1))
      in
      Alcotest.(check bool)
        (Printf.sprintf "disabling %s cannot improve the plan" rule)
        true
        (restricted >= base -. 1e-9))
    [ "join-commute"; "mat-to-join"; "join-assoc"; "select-push-join"; "mat-push-join";
      "collapse-index-scan"; "pointer-join" ]

let test_explain_output () =
  let o = Opt.optimize (cat ()) Q.q2 in
  let s = Opt.explain o in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions index scan" true (contains s "Index Scan Cities");
  Alcotest.(check bool) "mentions cost" true (contains s "anticipated cost")

let test_heuristic_guidance () =
  (* seeding the search with the greedy plan's cost prunes but must not
     change the optimum *)
  let c = cat () in
  let unseeded = Opt.optimize c Q.q4 in
  (match Oodb_baselines.Greedy.optimize c Q.q4 with
  | Error m -> Alcotest.fail m
  | Ok g ->
    let seeded =
      Opt.optimize ~initial_limit:(Cost.add g.Engine.cost (Cost.cpu 1e-6)) c Q.q4
    in
    Alcotest.(check (float 1e-6)) "same optimum" (Cost.total (Opt.cost unseeded))
      (Cost.total (Opt.cost seeded));
    Alcotest.(check bool) "no extra work" true
      (seeded.Opt.stats.Engine.candidates <= unseeded.Opt.stats.Engine.candidates));
  (* an unachievably low limit yields no plan *)
  let starved = Opt.optimize ~initial_limit:(Oodb_cost.Cost.cpu 1e-9) c Q.q4 in
  Alcotest.(check bool) "limit respected" true (starved.Opt.plan = None)

let test_set_operators_optimize_and_run () =
  let db = Lazy.force Helpers.small_db in
  let dcat = Oodb_exec.Db.catalog db in
  let pop cmp v b =
    Logical.select [ Pred.atom cmp (Pred.Field (b, "population")) (Pred.Const (Value.Int v)) ]
      (Logical.get ~coll:"Cities" ~binding:b)
  in
  let lo () = pop Pred.Le 60_000 "c" and hi () = pop Pred.Ge 30_000 "c" in
  let run q = Helpers.run_rows db (Opt.plan_exn (Opt.optimize dcat q)) in
  let n_lo = List.length (run (lo ())) and n_hi = List.length (run (hi ())) in
  let n_union = List.length (run (Logical.union (lo ()) (hi ()))) in
  let n_inter = List.length (run (Logical.intersect (lo ()) (hi ()))) in
  let n_diff = List.length (run (Logical.difference (lo ()) (hi ()))) in
  Alcotest.(check int) "inclusion-exclusion" (n_lo + n_hi) (n_union + n_inter);
  Alcotest.(check int) "difference" (n_lo - n_inter) n_diff;
  Alcotest.(check bool) "overlapping ranges" true (n_inter > 0)

let test_cross_product () =
  let db = Lazy.force Helpers.small_db in
  let dcat = Oodb_exec.Db.catalog db in
  let q =
    Logical.cross
      (Logical.get ~coll:"Countries" ~binding:"n")
      (Logical.get ~coll:"Capitals" ~binding:"k")
  in
  let rows = Helpers.run_rows db (Opt.plan_exn (Opt.optimize dcat q)) in
  let card coll = Oodb_storage.Store.cardinality (Oodb_exec.Db.store db) ~coll in
  Alcotest.(check int) "product cardinality" (card "Countries" * card "Capitals")
    (List.length rows)

let deep_query =
  (* four materialize links and three predicates: a larger closure than
     any paper query exercises *)
  Logical.get ~coll:"Cities" ~binding:"c"
  |> Logical.mat ~src:"c" ~field:"mayor"
  |> Logical.mat ~src:"c" ~field:"country"
  |> Logical.mat ~src:"c.country" ~field:"president"
  |> Logical.mat ~src:"c.country" ~field:"capital"
  |> Logical.select
       [ Pred.atom Pred.Ge (Pred.Field ("c.mayor", "age")) (Pred.Const (Value.Int 30));
         Pred.atom Pred.Le (Pred.Field ("c.country.president", "age")) (Pred.Const (Value.Int 70));
         Pred.atom Pred.Ge (Pred.Field ("c.country.capital", "population")) (Pred.Const (Value.Int 20_000)) ]
  |> Logical.project [ { Logical.p_expr = Pred.Field ("c", "name"); p_name = "city" } ]

let test_deep_path_stress () =
  let o = Opt.optimize (cat ()) deep_query in
  (* the paper's goal: moderately complex queries in under a second *)
  Alcotest.(check bool) "sub-second optimization" true (o.Opt.opt_seconds < 1.0);
  Alcotest.(check bool) "substantial closure" true (o.Opt.stats.Engine.mexprs > 100);
  let db = Lazy.force Helpers.small_db in
  let dcat = Oodb_exec.Db.catalog db in
  let full = Opt.plan_exn (Opt.optimize dcat deep_query) in
  let naive = Opt.plan_exn (Oodb_baselines.Naive.optimize dcat deep_query) in
  Helpers.check_same_rows "deep chain equivalence" (Helpers.run_rows db naive)
    (Helpers.run_rows db full)

(* ------------------------------------------------------------------ *)
(* Join enumeration: connected subplans, cross products on request      *)

let test_chain_connected_groups () =
  (* one group per run of adjacent bindings: n(n+1)/2 *)
  for n = 3 to 10 do
    let o = Opt.optimize (cat ()) (Q.join_chain n) in
    Alcotest.(check int) (Printf.sprintf "width %d groups" n) (n * (n + 1) / 2)
      o.Opt.stats.Engine.groups
  done

(* Winner costs of the chains under the full bushy space, before the
   closure stopped building cross products (the benchmark's pins). *)
let chain_pins =
  [ (3, 3806278.5491806436);
    (4, 1894564308.8989077);
    (5, 947273236870.49866);
    (6, 473632827690682.12);
    (7, 2.3681641005425392e+17);
    (8, 1.1840820313259334e+20) ]

let test_chain_pinned_costs () =
  List.iter
    (fun (n, pinned) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "width %d cost" n) pinned
        (total (plan (Q.join_chain n))))
    chain_pins

let field b f = Pred.Field (b, f)

let name_eq a b = Pred.atom Pred.Eq (field a "name") (field b "name")

let get coll binding = Logical.get ~coll ~binding

(* Queries whose own predicates leave their ranges apart keep the whole
   cross-product space: group counts and costs as before the change. *)
let test_requested_cross_products_kept () =
  let check name q ~groups ~cost =
    let o = Opt.optimize (cat ()) q in
    Alcotest.(check int) (name ^ " groups") groups o.Opt.stats.Engine.groups;
    Alcotest.(check (float 0.0)) (name ^ " cost") cost (Cost.total (Opt.cost o))
  in
  check "three unlinked FROM ranges"
    (Zql.Simplify.compile_exn (cat ())
       {| SELECT e.name FROM e IN Employees, d IN Departments, j IN Jobs
          WHERE e.age >= 60 && d.floor == 3 |})
    ~groups:18 ~cost:0x1.314f70de147aep+22;
  check "explicit Cross"
    (Logical.cross
       (Logical.join
          [ Pred.atom Pred.Eq (field "e" "dept") (Pred.Self "d") ]
          (get "Employees" "e") (get "Departments" "d"))
       (get "Jobs" "j"))
    ~groups:5 ~cost:0x1.288d9cf5c28f6p+16

let test_cross_products_only_between_components () =
  (* components {a, b, c} (a chain) and {x, y}, apart in the query *)
  let chain =
    Logical.join [ name_eq "b" "c" ]
      (Logical.join [ name_eq "a" "b" ] (get "Employees" "a") (get "Employees" "b"))
      (get "Employees" "c")
  in
  let cities = Logical.join [ name_eq "x" "y" ] (get "Cities" "x") (get "Cities" "y") in
  let o = Opt.optimize (cat ()) (Logical.join [] chain cities) in
  let component b = if List.mem b [ "a"; "b"; "c" ] then 1 else 2 in
  let components g = List.sort_uniq compare (List.map component (Model.scope_of o.Opt.memo g)) in
  let crosses = ref 0 in
  List.iter
    (fun g ->
      List.iter
        (fun (m : Engine.mexpr) ->
          match m.Engine.mop, m.Engine.minputs with
          | Logical.Join [], [ l; r ] ->
            incr crosses;
            Alcotest.(check (list int)) "cross product sides share no component" []
              (List.filter (fun k -> List.mem k (components r)) (components l))
          | _ -> ())
        (Engine.group_exprs o.Opt.memo g))
    (Engine.groups o.Opt.memo);
  Alcotest.(check bool) "cross products between the components" true (!crosses > 1);
  (* every subset whose part in each component is connected: 7 * 4 - 1 *)
  Alcotest.(check int) "groups" 27 o.Opt.stats.Engine.groups;
  Alcotest.(check (float 0.0)) "cost" 0x1.1a520b0a89d71p+35 (Cost.total (Opt.cost o))

let test_unknown_rule_rejected () =
  Alcotest.check_raises "unknown rule" (Invalid_argument "Options.disable: unknown rule frobnicate")
    (fun () -> ignore (Options.disable "frobnicate" Options.default))

let () =
  Alcotest.run "optimizer"
    [ ( "query1",
        [ Alcotest.test_case "figure 6 plan shape" `Quick test_q1_fig6_shape;
          Alcotest.test_case "figure 6 details" `Quick test_q1_fig6_details;
          Alcotest.test_case "figure 7 naive plan" `Quick test_q1_naive_is_fig7;
          Alcotest.test_case "table 2 cost ordering" `Quick test_q1_table2_ordering ] );
      ( "query2",
        [ Alcotest.test_case "collapse to index scan" `Quick test_q2_collapses_to_index_scan;
          Alcotest.test_case "figure 9 without the rule" `Quick test_q2_no_collapse_is_fig9;
          Alcotest.test_case "no index, same plan" `Quick test_q2_no_index_same_as_no_collapse ]
      );
      ( "query3",
        [ Alcotest.test_case "figure 10 enforcer plan" `Quick test_q3_enforcer_plan;
          Alcotest.test_case "three orders of magnitude" `Quick test_q3_cost_close_to_q2;
          Alcotest.test_case "explicit required properties" `Quick test_q3_required_props_respected
        ] );
      ( "query4",
        [ Alcotest.test_case "figure 12 plan shape" `Quick test_q4_fig12_shape;
          Alcotest.test_case "uses only the time index" `Quick test_q4_uses_only_time_index;
          Alcotest.test_case "table 3 orderings" `Quick test_q4_table3_orderings ] );
      ( "general",
        [ Alcotest.test_case "optimization time" `Quick test_optimization_time;
          Alcotest.test_case "ill-formed rejected" `Quick test_ill_formed_rejected;
          Alcotest.test_case "pruning preserves optimum" `Quick test_pruning_equivalence;
          Alcotest.test_case "rule subsets never improve" `Quick test_rule_subsets_never_improve;
          Alcotest.test_case "explain output" `Quick test_explain_output;
          Alcotest.test_case "heuristic guidance seeding" `Quick test_heuristic_guidance;
          Alcotest.test_case "set operators end-to-end" `Quick test_set_operators_optimize_and_run;
          Alcotest.test_case "cross product" `Quick test_cross_product;
          Alcotest.test_case "deep path stress" `Quick test_deep_path_stress;
          Alcotest.test_case "unknown rule rejected" `Quick test_unknown_rule_rejected ] );
      ( "join enumeration",
        [ Alcotest.test_case "chains fill n(n+1)/2 groups" `Quick test_chain_connected_groups;
          Alcotest.test_case "chain winner costs pinned" `Quick test_chain_pinned_costs;
          Alcotest.test_case "requested cross products kept" `Quick
            test_requested_cross_products_kept;
          Alcotest.test_case "cross products only between components" `Quick
            test_cross_products_only_between_components ] ) ]
