(* Extensibility: the paper's central design goal. This example extends
   the optimizer WITHOUT touching the library:

   1. a new transformation rule ("select-elimination": drop trivially
      true conjuncts) is added to the rule set;
   2. a new physical property (sort order) is requested at the root, and
      the sort enforcer — which no standard experiment exercises — kicks
      in, exactly as the assembly enforcer does for presence in memory.

   Everything goes through the public Volcano engine instance
   (Open_oodb.Model.Engine) with a custom spec, which is the paper's
   "model description file" expressed as OCaml values.

   Run with: dune exec examples/extensibility.exe *)

module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module Value = Oodb_storage.Value
module OC = Oodb_catalog.Open_oodb_catalog
module Config = Oodb_cost.Config
module Estimator = Oodb_cost.Estimator
module Engine = Open_oodb.Model.Engine
module Physprop = Open_oodb.Physprop

let cat = OC.catalog_with_indexes ()

let cfg = Config.default

(* 1. A new logical transformation: Select [x == x] (A) => A. *)
let select_elimination =
  { Engine.t_name = "select-elimination";
    t_roots = [ Logical.kind (Logical.Select []) ];
    t_apply =
      (fun _ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Select p, [ g ] ->
          let tautology (a : Pred.atom) = a.Pred.cmp = Pred.Eq && a.Pred.lhs = a.Pred.rhs in
          if List.exists tautology p then
            let p' = List.filter (fun a -> not (tautology a)) p in
            if p' = [] then [ Engine.Ref g ]
            else [ Engine.Node (Logical.Select p', [ Engine.Ref g ]) ]
          else []
        | _ -> []) }

let spec_with_rule q =
  let base =
    { Engine.derive_lprop = Estimator.derive cfg cat;
      transformations = Open_oodb.Trules.all cfg cat (Open_oodb.Trules.join_graph [ q ]);
      implementations = Open_oodb.Irules.all cfg cat;
      enforcers = Open_oodb.Enforcers.all cfg cat }
  in
  { base with Engine.transformations = select_elimination :: base.Engine.transformations }

let () =
  (* a query with a tautological conjunct *)
  let q =
    Logical.get ~coll:"Cities" ~binding:"c"
    |> Logical.select
         [ Pred.atom Pred.Eq (Pred.Self "c") (Pred.Self "c");
           Pred.atom Pred.Ge (Pred.Field ("c", "population")) (Pred.Const (Value.Int 5000)) ]
  in
  Format.printf "query with a tautological conjunct:@.%a@.@." Logical.pp q;
  let result =
    Engine.run (spec_with_rule q) (Open_oodb.Model.expr_of_logical q) ~required:Physprop.empty
  in
  (match result.Engine.plan with
  | Some plan ->
    Format.printf "with the new select-elimination rule:@.%a@."
      (fun ppf -> Engine.pp_plan ppf) plan
  | None -> Format.printf "no plan?!@.");

  (* 2. Request a new physical property at the root: tuples sorted by
     city name. No scan delivers it, so the search must enforce it. *)
  let sorted =
    { Physprop.empty with
      Physprop.order = Some { Physprop.ord_binding = "c"; ord_field = Some "name" } }
  in
  let q2 =
    Logical.get ~coll:"Cities" ~binding:"c"
    |> Logical.select
         [ Pred.atom Pred.Ge (Pred.Field ("c", "population")) (Pred.Const (Value.Int 5000)) ]
  in
  let result = Engine.run (spec_with_rule q2) (Open_oodb.Model.expr_of_logical q2) ~required:sorted in
  match result.Engine.plan with
  | Some plan ->
    Format.printf "@.requesting output sorted by c.name (sort enforcer appears):@.%a@."
      (fun ppf -> Engine.pp_plan ppf) plan
  | None -> Format.printf "no plan?!@."
