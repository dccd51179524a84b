(* Typed algebra IR and rule-soundness certifier.

   Unit tests for type inference (schema, scoping, duplicate
   semantics), the memo-wide one-type-per-group invariant (an
   ill-scoped rule firing must raise the moment it happens), and the
   certifier itself: the shipped rule set must certify end to end,
   while a deliberately unsound rule — a join reorder that drops a
   conjunct, the classic refactoring mistake the certifier exists to
   catch — must be refuted with a concrete counterexample database. *)

module Value = Oodb_storage.Value
module Pred = Oodb_algebra.Pred
module Logical = Oodb_algebra.Logical
module Typing = Oodb_algebra.Typing
module Estimator = Oodb_cost.Estimator
module Model = Open_oodb.Model
module Engine = Open_oodb.Model.Engine
module Options = Open_oodb.Options
module Trules = Open_oodb.Trules
module Db = Oodb_exec.Db
module Datagen = Oodb_workloads.Datagen
module Queries = Oodb_workloads.Queries
module Verify = Oodb_verify.Verify
module Certify = Oodb_verify.Certify

let cat = lazy (Db.catalog (Datagen.micro ()))

(* ------------------------------------------------------------------ *)
(* Type inference                                                      *)

let infer_exn q =
  match Typing.infer (Lazy.force cat) q with
  | Ok t -> t
  | Error m -> Alcotest.failf "expected the query to typecheck: %s" m

let test_infer_basics () =
  let get = Logical.get ~coll:"Employees" ~binding:"e" in
  let t = infer_exn get in
  Alcotest.(check (list (pair string string)))
    "a scan binds its collection's class"
    [ ("e", "Employee") ] t.Typing.ty_bindings;
  Alcotest.(check bool) "a scan is a set" true (t.Typing.ty_dup = Typing.Set_sem);
  Alcotest.(check bool) "a scan has no projection columns" true
    (t.Typing.ty_cols = None);
  let sel =
    Logical.select [ Pred.atom Pred.Lt (Pred.Field ("e", "age")) (Pred.Const (Value.Int 40)) ] get
  in
  Alcotest.(check bool) "selection preserves the type" true
    (Typing.equal t (infer_exn sel));
  let mat = Logical.mat ~src:"e" ~field:"dept" sel in
  let tm = infer_exn mat in
  Alcotest.(check (list (pair string string)))
    "Mat brings the reference target into scope"
    [ ("e", "Employee"); ("e.dept", "Department") ]
    (List.sort compare tm.Typing.ty_bindings);
  let proj =
    Logical.project [ { Logical.p_expr = Pred.Field ("e", "name"); p_name = "n" } ] sel
  in
  let tp = infer_exn proj in
  (match tp.Typing.ty_cols with
  | Some [ ("n", Typing.Typed _) ] -> ()
  | _ -> Alcotest.failf "projection columns not inferred: %s" (Typing.to_string tp))

let test_infer_rejects () =
  let reject msg q =
    match Typing.infer (Lazy.force cat) q with
    | Error _ -> ()
    | Ok t -> Alcotest.failf "%s: expected a type error, got %s" msg (Typing.to_string t)
  in
  reject "unknown collection" (Logical.get ~coll:"Nonesuch" ~binding:"x");
  reject "duplicate binder"
    (Logical.cross
       (Logical.get ~coll:"Employees" ~binding:"e")
       (Logical.get ~coll:"Departments" ~binding:"e"));
  reject "selection over a binding that is not in scope"
    (Logical.select
       [ Pred.atom Pred.Eq (Pred.Field ("ghost", "name")) (Pred.Const (Value.Str "Joe")) ]
       (Logical.get ~coll:"Employees" ~binding:"e"));
  reject "Mat over an unknown reference field"
    (Logical.mat ~src:"e" ~field:"nonesuch" (Logical.get ~coll:"Employees" ~binding:"e"))

(* ------------------------------------------------------------------ *)
(* Memo-wide invariant: one type per group, checked at every firing    *)

let session_with rules =
  let cat = Lazy.force cat in
  let cfg = Options.default.Options.config in
  Engine.session
    ~typing:(Typing.infer_op cat)
    { Engine.derive_lprop = Estimator.derive cfg cat;
      transformations = rules;
      implementations = [];
      enforcers = [] }

(* A rule that silently alpha-renames the binder of a scan: each side
   typechecks on its own, but the rewrite lands an expression of a
   different type in an existing group — exactly the class of bug the
   memo-wide check exists to stop at the firing, not at plan time. *)
let renaming_rule =
  { Engine.t_name = "bad-rename-binder";
    t_roots = [ Logical.kind (Logical.Get { coll = ""; binding = "" }) ];
    t_apply =
      (fun _ctx m ->
        match m.Engine.mop with
        | Logical.Get { coll; binding } ->
          [ Engine.Node (Logical.Get { coll; binding = binding ^ "_oops" }, []) ]
        | _ -> []) }

let test_memo_rejects_ill_typed_firing () =
  let cat' = Lazy.force cat in
  let cfg = Options.default.Options.config in
  (* sound rules close without a violation, and the whole memo passes
     the offline sweep *)
  let s = session_with (Trules.all cfg cat' (Trules.join_graph (List.map snd Queries.all))) in
  List.iter (fun (_, q) -> ignore (Engine.register s (Model.expr_of_logical q))) Queries.all;
  (match Verify.types cat' (Engine.session_ctx s) with
  | Ok () -> ()
  | Error vs -> Alcotest.failf "%d type violations in a sound memo" (List.length vs));
  (* the renaming rule is caught the moment it fires *)
  let s = session_with [ renaming_rule ] in
  match Engine.register s (Model.expr_of_logical (snd (List.hd Queries.all))) with
  | exception Engine.Type_violation _ -> ()
  | _ -> Alcotest.fail "ill-typed firing was interned without a violation"

(* ------------------------------------------------------------------ *)
(* Certifier                                                           *)

let find_rule report name =
  match List.find_opt (fun r -> r.Certify.rr_rule = name) report.Certify.cert_rules with
  | Some r -> r
  | None -> Alcotest.failf "rule %s missing from the report" name

let test_default_rules_certify () =
  let report = Certify.run () in
  Alcotest.(check bool) "every default rule certifies" true (Certify.ok report);
  Alcotest.(check (list string)) "no dead rules" [] report.Certify.cert_meta.Certify.m_dead;
  List.iter
    (fun r ->
      if Certify.uncertified r.Certify.rr_status then
        Alcotest.failf "%s: %s" r.Certify.rr_rule (Certify.status_name r.Certify.rr_status);
      Alcotest.(check bool)
        (r.Certify.rr_rule ^ ": at least one check ran")
        true
        (r.Certify.rr_checks > 0))
    report.Certify.cert_rules;
  (* every kind of rule is covered *)
  List.iter
    (fun (name, kind) ->
      let r = find_rule report name in
      Alcotest.(check string)
        (name ^ ": kind")
        (Certify.kind_name kind)
        (Certify.kind_name r.Certify.rr_kind))
    [ ("join-commute", Certify.Transformation);
      ("setop-assoc", Certify.Transformation);
      ("hash-join", Certify.Implementation);
      ("warm-assembly", Certify.Implementation);
      ("sort-enforcer", Certify.Enforcer) ];
  (* the meta-analysis sees the known ping-pong pairs *)
  let pingpong (a, b) =
    List.exists
      (fun (x, y, n) -> ((x, y) = (a, b) || (x, y) = (b, a)) && n > 0)
      report.Certify.cert_meta.Certify.m_pingpong
  in
  Alcotest.(check bool) "join-commute is its own inverse" true
    (pingpong ("join-commute", "join-commute"));
  Alcotest.(check bool) "mat-to-join / join-to-mat ping-pong" true
    (pingpong ("mat-to-join", "join-to-mat"))

(* The acceptance case from the issue: a join reorder that drops a
   predicate. It preserves binders (so the type is unchanged) — only
   the bounded denotational check can refute it. *)
let dropping_rule _cfg _cat =
  [ { Engine.t_name = "join-drop-conjunct";
      t_roots = [ Logical.kind (Logical.Join []) ];
      t_apply =
        (fun _ctx m ->
          match m.Engine.mop, m.Engine.minputs with
          | Logical.Join (_ :: _ :: _ as p), [ gl; gr ] ->
            [ Engine.Node (Logical.Join [ List.hd p ], [ Engine.Ref gl; Engine.Ref gr ]) ]
          | _ -> []) } ]

let bad_query =
  Logical.join
    [ Pred.atom Pred.Gt (Pred.Field ("e", "age")) (Pred.Field ("d", "floor"));
      Pred.atom Pred.Eq (Pred.Field ("e", "name")) (Pred.Const (Value.Str "Fred")) ]
    (Logical.get ~coll:"Employees" ~binding:"e")
    (Logical.get ~coll:"Departments" ~binding:"d")

let test_unsound_rule_refuted () =
  let report =
    Certify.run ~extra_trules:dropping_rule ~physical:false
      ~queries:[ ("two-conjunct-join", bad_query) ] ()
  in
  Alcotest.(check bool) "report no longer certifies" false (Certify.ok report);
  let r = find_rule report "join-drop-conjunct" in
  match r.Certify.rr_status with
  | Certify.Refuted cx ->
    (* the counterexample is concrete: a real micro-database and two row
       multisets that disagree *)
    Alcotest.(check bool) "expected and actual rows differ" false
      (Certify.(cx.cx_expected = cx.cx_actual));
    Alcotest.(check bool) "names the database" true (String.length cx.Certify.cx_db > 0);
    Alcotest.(check bool) "shows both sides" true
      (String.length cx.Certify.cx_lhs > 0 && String.length cx.Certify.cx_rhs > 0);
    ignore (Format.asprintf "%a" Certify.pp_counterexample cx)
  | s ->
    Alcotest.failf "join-drop-conjunct: expected Refuted, got %s" (Certify.status_name s)

(* A rule that produces alternatives on an operator outside its declared
   roots: the closure never offers it that operator, so those rewrites
   would be lost without a trace. The certifier's sweep offers every
   rule every operator and reports the mismatch. *)
let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let misrooted_rule _cfg _cat =
  [ { Engine.t_name = "select-misrooted";
      t_roots = [ Logical.kind (Logical.Join []) ];
      t_apply =
        (fun _ctx m ->
          match m.Engine.mop, m.Engine.minputs with
          | Logical.Select p, [ g ] ->
            [ Engine.Node (Logical.Select (List.rev p), [ Engine.Ref g ]) ]
          | _ -> []) } ]

let test_misrooted_rule_refuted () =
  let report =
    Certify.run ~extra_trules:misrooted_rule ~physical:false ~queries:[ ("q2", Queries.q2) ] ()
  in
  match (find_rule report "select-misrooted").Certify.rr_status with
  | Certify.Static_refuted m ->
    Alcotest.(check bool) "names the undeclared root" true
      (contains m "outside its declared root operators")
  | s -> Alcotest.failf "select-misrooted: expected Static_refuted, got %s" (Certify.status_name s)

let () =
  Alcotest.run "certify"
    [ ( "typing",
        [ Alcotest.test_case "inference basics" `Quick test_infer_basics;
          Alcotest.test_case "inference rejects ill-scoped queries" `Quick
            test_infer_rejects ] );
      ( "memo",
        [ Alcotest.test_case "one type per group, enforced at the firing" `Quick
            test_memo_rejects_ill_typed_firing ] );
      ( "certifier",
        [ Alcotest.test_case "the shipped rule set certifies" `Quick
            test_default_rules_certify;
          Alcotest.test_case "a predicate-dropping join reorder is refuted" `Quick
            test_unsound_rule_refuted;
          Alcotest.test_case "a rule firing outside its roots is refuted" `Quick
            test_misrooted_rule_refuted ] ) ]
