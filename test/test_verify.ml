(* Tests for the static verifier (lib/verify): the plan linter, the memo
   consistency checker, cost sanity, and the rule-set analyzer. The
   negative cases hand-build deliberately broken plans and rule sets and
   check that the right violation class is reported. *)

module Value = Oodb_storage.Value
module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module OC = Oodb_catalog.Open_oodb_catalog
module Config = Oodb_cost.Config
module Cost = Oodb_cost.Cost
module Estimator = Oodb_cost.Estimator
module Q = Oodb_workloads.Queries
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Physical = Open_oodb.Physical
module Physprop = Open_oodb.Physprop
module PL = Open_oodb.Planlint
module Model = Open_oodb.Model
module Engine = Model.Engine
module Bset = Physprop.Bset
module V = Oodb_verify.Verify

let cat () = OC.catalog_with_indexes ()

let fred = Pred.Const (Value.Str "Fred")

(* ------------------------------------------------------------------ *)
(* Positive: every plan the optimizers produce lints clean, and every
   memo they build is consistent                                        *)

let check_clean label cat plan =
  (match V.plan cat plan with
  | Ok () -> ()
  | Error vs -> Alcotest.failf "%s: plan lint:@.%a" label V.pp_violations vs);
  match V.plan_costs plan with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "%s: plan costs:@.%a" label
      (Fmt.list ~sep:Fmt.cut V.pp_cost_violation)
      vs

let test_optimizer_plans_lint () =
  List.iter
    (fun (cname, cat) ->
      List.iter
        (fun (qname, q) ->
          let label = cname ^ "/" ^ qname in
          let outcome = Opt.optimize cat q in
          (match outcome.Opt.plan with
          | None -> Alcotest.failf "%s: no plan" label
          | Some p -> check_clean label cat p);
          match V.memo ~config:Config.default cat outcome.Opt.memo with
          | Ok () -> ()
          | Error vs ->
            Alcotest.failf "%s: %d memo violations, first: %a" label (List.length vs)
              V.pp_memo_violation (List.hd vs))
        Q.all)
    [ ("indexes", OC.catalog_with_indexes ()); ("no-indexes", OC.catalog ()) ]

let test_baseline_plans_lint () =
  let cat = cat () in
  List.iter
    (fun (qname, q) ->
      (match (Oodb_baselines.Naive.optimize cat q).Opt.plan with
      | None -> Alcotest.failf "naive/%s: no plan" qname
      | Some p -> check_clean ("naive/" ^ qname) cat p);
      match Oodb_baselines.Greedy.optimize cat q with
      | Ok p -> check_clean ("greedy/" ^ qname) cat p
      | Error _ -> () (* query shape outside the greedy strategy *))
    Q.all

(* ------------------------------------------------------------------ *)
(* Negative: hand-built broken plans                                    *)

let node ?(mem = []) ?order alg children =
  { Engine.alg;
    children;
    cost = Cost.zero;
    delivered = { Physprop.in_memory = Bset.of_list mem; order } }

let scan ?(coll = "Employees") ?(mem = true) binding =
  node
    (Physical.File_scan { coll; binding })
    []
    ~mem:(if mem then [ binding ] else [])

let expect_violation label pred p =
  match V.plan (cat ()) p with
  | Ok () -> Alcotest.failf "%s: lint unexpectedly clean" label
  | Error vs ->
    if not (List.exists pred vs) then
      Alcotest.failf "%s: expected violation missing, got:@.%a" label V.pp_violations vs

let test_out_of_scope () =
  (* a filter reading a binding no input introduces *)
  let p =
    node
      (Physical.Filter [ Pred.atom Pred.Eq (Pred.Field ("x", "name")) fred ])
      [ scan "e" ] ~mem:[ "e" ]
  in
  expect_violation "out-of-scope operand"
    (function PL.Out_of_scope { binding = "x"; _ } -> true | _ -> false)
    p

let test_not_in_memory () =
  (* unnest leaves t.team_members[] in scope as a bare reference; a
     filter reading m.name without assembling m first would make the
     executor raise — the presence-in-memory check catches it here *)
  let un =
    node
      (Physical.Alg_unnest { src = "t"; field = "team_members"; out = "m" })
      [ scan ~coll:"Tasks" "t" ]
      ~mem:[ "t" ]
  in
  let p =
    node
      (Physical.Filter [ Pred.atom Pred.Eq (Pred.Field ("m", "name")) fred ])
      [ un ] ~mem:[ "t" ]
  in
  expect_violation "non-materialized binding"
    (function PL.Not_in_memory { binding = "m"; _ } -> true | _ -> false)
    p

let test_trim_loses_memory () =
  (* the same violation via delivered properties: the scan materializes
     [e] but only promises a bare tuple, so the executor's trim demotes
     [e] to a reference before the filter reads it *)
  let p =
    node
      (Physical.Filter [ Pred.atom Pred.Eq (Pred.Field ("e", "name")) fred ])
      [ scan ~mem:false "e" ]
  in
  expect_violation "trimmed binding read"
    (function PL.Not_in_memory { binding = "e"; _ } -> true | _ -> false)
    p

let test_merge_join_needs_order () =
  let join l r =
    node
      (Physical.Merge_join
         { key_l = Pred.Field ("e1", "name");
           key_r = Pred.Field ("e2", "name");
           residual = [] })
      [ l; r ]
      ~mem:[ "e1"; "e2" ]
  in
  (* file scans deliver OID order, not name order *)
  expect_violation "unsorted merge-join input"
    (function PL.Missing_sort_order _ -> true | _ -> false)
    (join (scan "e1") (node (Physical.File_scan { coll = "Employees"; binding = "e2" }) []
        ~mem:[ "e2" ]));
  (* with sort enforcers on both inputs the same join lints clean *)
  let sorted b child =
    node (Physical.Sort { Physprop.ord_binding = b; ord_field = Some "name" }) [ child ]
      ~mem:[ b ]
      ~order:{ Physprop.ord_binding = b; ord_field = Some "name" }
  in
  match
    V.plan (cat ())
      (join
         (sorted "e1" (scan "e1"))
         (sorted "e2"
            (node (Physical.File_scan { coll = "Employees"; binding = "e2" }) []
               ~mem:[ "e2" ])))
  with
  | Ok () -> ()
  | Error vs -> Alcotest.failf "sorted merge join: %a" V.pp_violations vs

let test_overclaimed_delivery () =
  (* a node may not promise in-memory bindings it cannot have
     materialized (the delivered-properties side of presence checking) *)
  let p =
    node
      (Physical.Filter [ Pred.atom Pred.Eq (Pred.Field ("e", "name")) fred ])
      [ scan "e" ]
      ~mem:[ "e"; "e.dept" ]
  in
  expect_violation "over-claimed delivered memory"
    (function PL.Undelivered_memory { binding = "e.dept"; _ } -> true | _ -> false)
    p

let test_unknown_names () =
  expect_violation "unknown collection"
    (function PL.Unknown_collection "Nonesuch" -> true | _ -> false)
    (scan ~coll:"Nonesuch" ~mem:false "x");
  expect_violation "unknown index"
    (function PL.Unknown_index { index = "no_such_index"; _ } -> true | _ -> false)
    (node
       (Physical.Index_scan
          { coll = "Cities";
            binding = "c";
            index = "no_such_index";
            key = Value.Str "Joe";
            residual = [];
            derefs = [] })
       [] ~mem:[ "c" ])

let test_required_not_satisfied () =
  match V.plan ~required:(Physprop.in_memory [ "e"; "e.dept" ]) (cat ()) (scan "e") with
  | Ok () -> Alcotest.fail "goal check unexpectedly clean"
  | Error vs ->
    Alcotest.(check bool) "Unsatisfied_required reported" true
      (List.exists (function PL.Unsatisfied_required _ -> true | _ -> false) vs)

let test_plan_costs_reject_shrinking () =
  let child = { (scan "e") with Engine.cost = Cost.io 100.0 } in
  let p =
    node
      (Physical.Filter [ Pred.atom Pred.Eq (Pred.Field ("e", "name")) fred ])
      [ child ] ~mem:[ "e" ]
  in
  (* the parent carries total cost zero, below its child's 100 *)
  match V.plan_costs p with
  | Ok () -> Alcotest.fail "cost check unexpectedly clean"
  | Error [ v ] ->
    Alcotest.(check bool) "reason names the shortfall" true
      (String.length v.V.cv_reason > 0)
  | Error vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* ------------------------------------------------------------------ *)
(* Memo consistency: an unsound mock transformation rule is flagged     *)

let spec_with extra cat q =
  let cfg = Config.default in
  { Engine.derive_lprop = Estimator.derive cfg cat;
    transformations = Open_oodb.Trules.all cfg cat (Open_oodb.Trules.join_graph [ q ]) @ extra;
    implementations = Open_oodb.Irules.all cfg cat;
    enforcers = Open_oodb.Enforcers.all cfg cat }

let test_memo_flags_unsound_rule () =
  let cat = cat () in
  (* "a selection is equivalent to its input": merges groups with
     different cardinalities, which the memo checker must flag without
     ever executing a plan. The query needs an operator above the
     Select (q1's Project): the merge itself discards the loser group's
     properties, so the inconsistency shows where a surviving parent
     re-derives from the merged input group. *)
  let bogus =
    { Engine.t_name = "bogus-drop-select";
      t_roots = [ Logical.kind (Logical.Select []) ];
      t_apply =
        (fun _ctx m ->
          match m.Engine.mop with
          | Logical.Select _ -> [ Engine.Ref (List.hd m.Engine.minputs) ]
          | _ -> []) }
  in
  let broken =
    Engine.run (spec_with [ bogus ] cat Q.q1) (Model.expr_of_logical Q.q1)
      ~required:Physprop.empty
  in
  (match V.memo ~config:Config.default cat broken.Engine.ctx with
  | Ok () -> Alcotest.fail "memo checker missed the unsound rule"
  | Error vs ->
    Alcotest.(check bool) "cardinality mismatch reported" true
      (List.exists
         (fun (v : V.memo_violation) ->
           match v.V.mv_detail with V.Card_mismatch _ -> true | _ -> false)
         vs));
  (* the shipped rule set passes on the same query *)
  let sound =
    Engine.run (spec_with [] cat Q.q1) (Model.expr_of_logical Q.q1) ~required:Physprop.empty
  in
  match V.memo ~config:Config.default cat sound.Engine.ctx with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "sound rule set flagged: %a" V.pp_memo_violation (List.hd vs)

(* ------------------------------------------------------------------ *)
(* Rule-set analysis                                                    *)

let test_divergent_rule_detected () =
  let cat = cat () in
  (* each application grows the conjunction by one atom, so the rule
     keeps producing fresh multi-expressions forever; the fuel bound
     must interrupt the closure and report it *)
  let grow =
    { Engine.t_name = "bogus-grow";
      t_roots = [ Logical.kind (Logical.Select []) ];
      t_apply =
        (fun _ctx m ->
          match m.Engine.mop with
          | Logical.Select (a :: _ as p) ->
            [ Engine.Node (Logical.Select (p @ [ a ]), [ Engine.Ref (List.hd m.Engine.minputs) ]) ]
          | _ -> []) }
  in
  let r =
    Engine.run ~closure_fuel:500 (spec_with [ grow ] cat Q.q1) (Model.expr_of_logical Q.q1)
      ~required:Physprop.empty
  in
  Alcotest.(check bool) "stats report incomplete closure" false
    r.Engine.stats.Engine.closure_complete;
  Alcotest.(check bool) "memo snapshot agrees" false (Engine.closure_complete r.Engine.ctx)

let test_rules_report () =
  let cat = cat () in
  let r = V.rules cat Q.all in
  Alcotest.(check bool) "workload closure terminates" true (V.rules_ok r);
  Alcotest.(check int) "one row per configured rule" (List.length Options.rule_names)
    (List.length r.V.per_rule);
  let fired name =
    List.exists (fun s -> s.V.rs_name = name && s.V.rs_fired > 0) r.V.per_rule
  in
  Alcotest.(check bool) "core rules fire on the paper workload" true
    (List.for_all fired [ "mat-to-join"; "mat-assembly"; "file-scan"; "merge-join" ]);
  (* the set-operation rules legitimately never fire on this workload;
     warm-assembly is disabled by default so it is not reported as dead *)
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " reported dead") true (List.mem rule r.V.never_fired))
    [ "hash-setop"; "setop-assoc"; "setop-commute" ];
  Alcotest.(check bool) "disabled rules not reported dead" false
    (List.mem "warm-assembly" r.V.never_fired);
  (* a tiny fuel budget turns every query into a reported divergence *)
  let starved = V.rules ~fuel:10 cat [ ("fig2", Q.fig2) ] in
  Alcotest.(check bool) "starved closure flagged" false (V.rules_ok starved);
  Alcotest.(check int) "one divergent query" 1 (List.length starved.V.incomplete)

let () =
  Alcotest.run "verify"
    [ ( "positive",
        [ Alcotest.test_case "optimizer plans lint clean" `Quick test_optimizer_plans_lint;
          Alcotest.test_case "baseline plans lint clean" `Quick test_baseline_plans_lint ] );
      ( "plan linter",
        [ Alcotest.test_case "out-of-scope operand" `Quick test_out_of_scope;
          Alcotest.test_case "non-materialized binding" `Quick test_not_in_memory;
          Alcotest.test_case "trim loses memory" `Quick test_trim_loses_memory;
          Alcotest.test_case "merge join needs order" `Quick test_merge_join_needs_order;
          Alcotest.test_case "over-claimed delivery" `Quick test_overclaimed_delivery;
          Alcotest.test_case "unknown names" `Quick test_unknown_names;
          Alcotest.test_case "required not satisfied" `Quick test_required_not_satisfied ] );
      ( "cost sanity",
        [ Alcotest.test_case "cost below inputs rejected" `Quick
            test_plan_costs_reject_shrinking ] );
      ( "memo",
        [ Alcotest.test_case "unsound rule flagged" `Quick test_memo_flags_unsound_rule ] );
      ( "rules",
        [ Alcotest.test_case "divergent rule detected" `Quick test_divergent_rule_detected;
          Alcotest.test_case "coverage report" `Quick test_rules_report ] ) ]
