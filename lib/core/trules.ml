module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module Catalog = Oodb_catalog.Catalog
module Schema = Oodb_catalog.Schema
module Lprops = Oodb_cost.Lprops
open Model

(* Helpers ----------------------------------------------------------- *)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* Atoms of [pred] whose memory/identity references all fall within
   [scope], and the rest. *)
let split_by_scope pred scope =
  List.partition (fun a -> subset (Pred.bindings_of_atom a) scope) pred

let select_over pred build = if pred = [] then build else Engine.Node (Logical.Select pred, [ build ])

(* The class a Mat produces, from the child group's scope. *)
let mat_target cat ctx g (src : string) (field : string option) =
  match Lprops.class_of (Engine.group_lprop ctx g) src with
  | None -> None
  | Some cls -> (
    match field with
    | None -> Some cls
    | Some field -> Schema.follow (Catalog.schema cat) ~cls field)

(* Join graph ---------------------------------------------------------- *)

(* One map per query, from each binding to its component's
   representative. The nodes are the bindings that Get, Mat and Unnest
   introduce; every predicate atom over two or more bindings, in a
   Select or a Join, is an edge; a Mat or Unnest output is linked to
   its source. *)
type join_graph = (string, string) Hashtbl.t list

let components (q : Logical.t) =
  let parent = Hashtbl.create 16 in
  let rec find b =
    match Hashtbl.find_opt parent b with
    | None ->
      Hashtbl.add parent b b;
      b
    | Some p when p = b -> b
    | Some p ->
      let root = find p in
      Hashtbl.replace parent b root;
      root
  in
  let link a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  let link_atom a =
    match Pred.bindings_of_atom a with [] -> () | b :: bs -> List.iter (link b) bs
  in
  let rec walk (t : Logical.t) =
    (match t.Logical.op with
    | Logical.Get { binding; _ } -> ignore (find binding)
    | Logical.Mat { src; out; _ } | Logical.Unnest { src; out; _ } -> link src out
    | Logical.Select p | Logical.Join p -> List.iter link_atom p
    | Logical.Project _ | Logical.Cross | Logical.Union | Logical.Intersect
    | Logical.Difference -> ());
    List.iter walk t.Logical.inputs
  in
  walk q;
  let comp = Hashtbl.create (Hashtbl.length parent) in
  Hashtbl.iter (fun b _ -> Hashtbl.replace comp b (find b)) parent;
  comp

let join_graph queries = List.map components queries

(* Is a cross product of scopes [sb] and [sc] one the input asked for?
   It is when no component has bindings on both sides. Several queries
   can share one memo, so it is kept unless every query that binds all
   of [sb] and [sc] links the two sides. *)
let cross_wanted (graph : join_graph) sb sc =
  let covers comp = List.for_all (Hashtbl.mem comp) sb && List.for_all (Hashtbl.mem comp) sc in
  let linked comp =
    List.exists
      (fun b ->
        let k = Hashtbl.find comp b in
        List.exists (fun c -> Hashtbl.find comp c = k) sc)
      sb
  in
  let covering = List.filter covers graph in
  covering = [] || not (List.for_all linked covering)

(* Rules -------------------------------------------------------------- *)

(* Root operator kinds the rules dispatch on. *)
let on ops = List.map Logical.kind ops

let on_select = on [ Logical.Select [] ]

let on_join = on [ Logical.Join [] ]

let on_mat = on [ Logical.Mat { src = ""; field = None; out = "" } ]

let on_setop = on [ Logical.Union; Logical.Intersect ]

(* Select (Select x) => Select' x : merge stacked selections. *)
let select_merge =
  { Engine.t_name = "select-merge";
    t_roots = on_select;
    t_apply =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Select p, [ g ] ->
          Engine.group_exprs ctx g
          |> List.filter_map (fun (m' : Engine.mexpr) ->
                 match m'.Engine.mop, m'.Engine.minputs with
                 | Logical.Select q, [ g' ] ->
                   (* set union of conjuncts: merging must not duplicate
                      atoms (duplicates square their selectivity and can
                      make repeated merge/split diverge) *)
                   let merged = p @ List.filter (fun a -> not (List.mem a p)) q in
                   Some (Engine.Node (Logical.Select merged, [ Engine.Ref g' ]))
                 | _ -> None)
        | _ -> []) }

(* Select [a && rest] => Select [a] (Select [rest]): exposes each
   conjunct on its own, so that e.g. an indexable conjunct can collapse
   into an index scan while the rest stays a filter above it. *)
let select_split =
  { Engine.t_name = "select-split";
    t_roots = on_select;
    t_apply =
      (fun _ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Select p, [ g ] when List.length p >= 2 ->
          List.map
            (fun a ->
              let rest = List.filter (fun a' -> a' <> a) p in
              Engine.Node
                ( Logical.Select rest,
                  [ Engine.Node (Logical.Select [ a ], [ Engine.Ref g ]) ] ))
            p
        | _ -> []) }

(* Select (Mat x) => Mat (Select x), for conjuncts independent of the
   materialized binding. *)
let select_push_mat =
  { Engine.t_name = "select-push-mat";
    t_roots = on_select;
    t_apply =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Select p, [ g ] ->
          Engine.group_exprs ctx g
          |> List.filter_map (fun (m' : Engine.mexpr) ->
                 match m'.Engine.mop, m'.Engine.minputs with
                 | Logical.Mat { src; field; out }, [ g' ] ->
                   let indep, dep =
                     List.partition
                       (fun a -> not (List.mem out (Pred.bindings_of_atom a)))
                       p
                   in
                   if indep = [] then None
                   else
                     Some
                       (select_over dep
                          (Engine.Node
                             ( Logical.Mat { src; field; out },
                               [ Engine.Node (Logical.Select indep, [ Engine.Ref g' ]) ] )))
                 | _ -> None)
        | _ -> []) }

(* Select (Unnest x) => Unnest (Select x), likewise. *)
let select_push_unnest =
  { Engine.t_name = "select-push-unnest";
    t_roots = on_select;
    t_apply =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Select p, [ g ] ->
          Engine.group_exprs ctx g
          |> List.filter_map (fun (m' : Engine.mexpr) ->
                 match m'.Engine.mop, m'.Engine.minputs with
                 | (Logical.Unnest { out; _ } as unop), [ g' ] ->
                   let indep, dep =
                     List.partition
                       (fun a -> not (List.mem out (Pred.bindings_of_atom a)))
                       p
                   in
                   if indep = [] then None
                   else
                     Some
                       (select_over dep
                          (Engine.Node
                             ( unop,
                               [ Engine.Node (Logical.Select indep, [ Engine.Ref g' ]) ] )))
                 | _ -> None)
        | _ -> []) }

(* Select (Join (A, B)) => Join' (Select A, Select B): push single-side
   conjuncts down, merge two-sided conjuncts into the join predicate. *)
let select_push_join =
  { Engine.t_name = "select-push-join";
    t_roots = on_select;
    t_apply =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Select p, [ g ] ->
          Engine.group_exprs ctx g
          |> List.filter_map (fun (m' : Engine.mexpr) ->
                 match m'.Engine.mop, m'.Engine.minputs with
                 | Logical.Join jp, [ gl; gr ] ->
                   let sl = scope_of ctx gl and sr = scope_of ctx gr in
                   let la, rest = split_by_scope p sl in
                   let ra, cross = split_by_scope rest sr in
                   if la = [] && ra = [] && cross = [] then None
                   else
                     let left =
                       if la = [] then Engine.Ref gl
                       else Engine.Node (Logical.Select la, [ Engine.Ref gl ])
                     in
                     let right =
                       if ra = [] then Engine.Ref gr
                       else Engine.Node (Logical.Select ra, [ Engine.Ref gr ])
                     in
                     Some
                       (Engine.Node
                          (Logical.Join (Pred.normalize (jp @ cross)), [ left; right ]))
                 | _ -> None)
        | _ -> []) }

(* Join (A, B) => Join (B, A). Also breaks the build/probe convention
   tie: the first input of a hash join builds the table. *)
let join_commute =
  { Engine.t_name = "join-commute";
    t_roots = on [ Logical.Join []; Logical.Cross ];
    t_apply =
      (fun _ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Join p, [ gl; gr ] ->
          [ Engine.Node (Logical.Join p, [ Engine.Ref gr; Engine.Ref gl ]) ]
        | Logical.Cross, [ gl; gr ] ->
          [ Engine.Node (Logical.Cross, [ Engine.Ref gr; Engine.Ref gl ]) ]
        | _ -> []) }

(* Join (Join (A, B), C) => Join (A, Join (B, C)), redistributing the
   combined predicate by scope. The closure enumerates connected
   subplans only: an inner join of B and C with no predicate is built
   only when the input's join graph asks for that cross product. *)
let join_assoc graph =
  { Engine.t_name = "join-assoc";
    t_roots = on_join;
    t_apply =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Join p1, [ gl; gr ] ->
          let sc = scope_of ctx gr in
          Engine.group_exprs ctx gl
          |> List.filter_map (fun (m' : Engine.mexpr) ->
                 match m'.Engine.mop, m'.Engine.minputs with
                 | Logical.Join p2, [ ga; gb ] ->
                   let sb = scope_of ctx gb in
                   let inner, outer = split_by_scope (p1 @ p2) (sb @ sc) in
                   if inner = [] && not (cross_wanted graph sb sc) then None
                   else
                     Some
                       (Engine.Node
                          ( Logical.Join (Pred.normalize outer),
                            [ Engine.Ref ga;
                              Engine.Node
                                ( Logical.Join (Pred.normalize inner),
                                  [ Engine.Ref gb; Engine.Ref gr ] )
                            ] ))
                 | _ -> None)
        | _ -> []) }

(* Mat => Join: "if the scope introduced by a materialize operator is
   actually a scannable object (a set object, file, etc.), the
   materialize operator can be transformed into a join" (paper §3). *)
let mat_to_join cat =
  { Engine.t_name = "mat-to-join";
    t_roots = on_mat;
    t_apply =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Mat { src; field; out }, [ g ] -> (
          match mat_target cat ctx g src field with
          | None -> []
          | Some target_cls ->
            Catalog.scannables_of_class cat target_cls
            |> List.map (fun (co : Catalog.collection) ->
                   let link =
                     match field with
                     | Some f -> Pred.atom Pred.Eq (Pred.Field (src, f)) (Pred.Self out)
                     | None -> Pred.atom Pred.Eq (Pred.Self src) (Pred.Self out)
                   in
                   Engine.Node
                     ( Logical.Join [ link ],
                       [ Engine.Ref g;
                         Engine.Node
                           (Logical.Get { coll = co.Catalog.co_name; binding = out }, [])
                       ] )))
        | _ -> []) }

(* Join (A, Get C) on a pure reference-equality link => Mat: the inverse
   of mat-to-join, re-establishing pointer traversal as an alternative. *)
let join_to_mat =
  { Engine.t_name = "join-to-mat";
    t_roots = on_join;
    t_apply =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Join [ atom ], [ gl; gr ] ->
          let right_get =
            Engine.group_exprs ctx gr
            |> List.exists (fun (m' : Engine.mexpr) ->
                   match m'.Engine.mop with Logical.Get _ -> true | _ -> false)
          in
          if not right_get then []
          else
            let sl = scope_of ctx gl and sr = scope_of ctx gr in
            let mk src field out =
              if List.mem src sl && sr = [ out ] then
                [ Engine.Node (Logical.Mat { src; field; out }, [ Engine.Ref gl ]) ]
              else []
            in
            (match Pred.ref_eq_sides atom with
            | Some (src, field, target) -> mk src (Some field) target
            | None -> (
              match atom.Pred.cmp, atom.Pred.lhs, atom.Pred.rhs with
              | Pred.Eq, Pred.Self a, Pred.Self b ->
                if List.mem a sl then mk a None b else mk b None a
              | _ -> []))
        | _ -> []) }

(* Mat m1 (Mat m2 X) => Mat m2 (Mat m1 X), when independent. *)
let mat_commute =
  { Engine.t_name = "mat-commute";
    t_roots = on_mat;
    t_apply =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Mat ({ src = src1; _ } as m1), [ g ] ->
          let op1 = Logical.Mat m1 in
          Engine.group_exprs ctx g
          |> List.filter_map (fun (m' : Engine.mexpr) ->
                 match m'.Engine.mop, m'.Engine.minputs with
                 | (Logical.Mat { out = out2; _ } as op2), [ g' ] when src1 <> out2 ->
                   Some
                     (Engine.Node (op2, [ Engine.Node (op1, [ Engine.Ref g' ]) ]))
                 | _ -> None)
        | _ -> []) }

(* Mat (Join (A, B)) => Join (Mat A, B) / Join (A, Mat B): resolve a
   reference on the side that introduces its source. *)
let mat_push_join =
  { Engine.t_name = "mat-push-join";
    t_roots = on_mat;
    t_apply =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Mat ({ src; _ } as mt), [ g ] ->
          let matop = Logical.Mat mt in
          Engine.group_exprs ctx g
          |> List.concat_map (fun (m' : Engine.mexpr) ->
                 match m'.Engine.mop, m'.Engine.minputs with
                 | Logical.Join jp, [ gl; gr ] ->
                   let push side other mk =
                     if List.mem src (scope_of ctx side) then
                       [ mk (Engine.Node (matop, [ Engine.Ref side ])) (Engine.Ref other) ]
                     else []
                   in
                   push gl gr (fun l r -> Engine.Node (Logical.Join jp, [ l; r ]))
                   @ push gr gl (fun r l -> Engine.Node (Logical.Join jp, [ l; r ]))
                 | _ -> [])
        | _ -> []) }

(* Join (Mat A, B) => Mat (Join (A, B)): pull a materialize above a join
   that does not consume its output. *)
let mat_pull_join =
  { Engine.t_name = "mat-pull-join";
    t_roots = on_join;
    t_apply =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | Logical.Join jp, [ gl; gr ] ->
          let pull g_mat g_other mk =
            Engine.group_exprs ctx g_mat
            |> List.filter_map (fun (m' : Engine.mexpr) ->
                   match m'.Engine.mop, m'.Engine.minputs with
                   | (Logical.Mat { out; _ } as matop), [ g' ]
                     when not (List.mem out (Pred.bindings jp)) ->
                     Some
                       (Engine.Node (matop, [ mk (Engine.Ref g') (Engine.Ref g_other) ]))
                   | _ -> None)
          in
          pull gl gr (fun l r -> Engine.Node (Logical.Join jp, [ l; r ]))
          @ pull gr gl (fun r l -> Engine.Node (Logical.Join jp, [ l; r ]))
        | _ -> []) }

(* Union/Intersect (A, B) => (B, A). *)
let setop_commute =
  { Engine.t_name = "setop-commute";
    t_roots = on_setop;
    t_apply =
      (fun _ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | (Logical.Union | Logical.Intersect), [ gl; gr ] ->
          [ Engine.Node (m.Engine.mop, [ Engine.Ref gr; Engine.Ref gl ]) ]
        | _ -> []) }

(* Union (Union (A, B), C) => Union (A, Union (B, C)). *)
let setop_assoc =
  { Engine.t_name = "setop-assoc";
    t_roots = on_setop;
    t_apply =
      (fun ctx m ->
        match m.Engine.mop, m.Engine.minputs with
        | (Logical.Union | Logical.Intersect), [ gl; gr ] ->
          Engine.group_exprs ctx gl
          |> List.filter_map (fun (m' : Engine.mexpr) ->
                 match m'.Engine.mop, m'.Engine.minputs with
                 | op2, [ ga; gb ] when op2 = m.Engine.mop ->
                   Some
                     (Engine.Node
                        ( m.Engine.mop,
                          [ Engine.Ref ga;
                            Engine.Node (m.Engine.mop, [ Engine.Ref gb; Engine.Ref gr ]) ] ))
                 | _ -> None)
        | _ -> []) }

let all _cfg cat graph =
  [ select_merge;
    select_split;
    select_push_mat;
    select_push_unnest;
    select_push_join;
    join_commute;
    join_assoc graph;
    mat_to_join cat;
    join_to_mat;
    mat_commute;
    mat_push_join;
    mat_pull_join;
    setop_commute;
    setop_assoc ]

let names =
  [ "select-merge";
    "select-split";
    "select-push-mat";
    "select-push-unnest";
    "select-push-join";
    "join-commute";
    "join-assoc";
    "mat-to-join";
    "join-to-mat";
    "mat-commute";
    "mat-push-join";
    "mat-pull-join";
    "setop-commute";
    "setop-assoc" ]
