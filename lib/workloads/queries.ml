module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module Value = Oodb_storage.Value

let field b f = Pred.Field (b, f)

let proj b f = { Logical.p_expr = field b f; p_name = b ^ "." ^ f }

let str s = Pred.Const (Value.Str s)

let int i = Pred.Const (Value.Int i)

let eq a b = Pred.atom Pred.Eq a b

(* Figure 5 *)
let q1 =
  Logical.get ~coll:"Employees" ~binding:"e"
  |> Logical.mat ~src:"e" ~field:"job"
  |> Logical.mat ~src:"e" ~field:"dept"
  |> Logical.mat ~src:"e.dept" ~field:"plant"
  |> Logical.select [ eq (field "e.dept.plant" "location") (str "Dallas") ]
  |> Logical.project [ proj "e" "name"; proj "e.job" "name"; proj "e.dept" "name" ]

(* Figure 8 *)
let q2 =
  Logical.get ~coll:"Cities" ~binding:"c"
  |> Logical.mat ~src:"c" ~field:"mayor"
  |> Logical.select [ eq (field "c.mayor" "name") (str "Joe") ]

(* Figure 10 *)
let q3 =
  q2 |> Logical.project [ proj "c.mayor" "age"; proj "c" "name" ]

(* Figure 12 *)
let q4 =
  Logical.get ~coll:"Tasks" ~binding:"t"
  |> Logical.unnest ~out:"m" ~src:"t" ~field:"team_members"
  |> Logical.mat_ref ~out:"e" ~src:"m"
  |> Logical.select
       [ eq (field "e" "name") (str "Fred"); eq (field "t" "time") (int 100) ]

(* The feedback-loop demo (not in the paper): a single-table name
   lookup whose plan depends entirely on how selective the optimizer
   believes [name = "Fred"] is — file scan under the skewed statistics,
   index scan once feedback corrects them. *)
let fred =
  Logical.get ~coll:"Employees" ~binding:"e"
  |> Logical.select [ eq (field "e" "name") (str "Fred") ]

(* Figure 2 *)
let fig2 =
  Logical.get ~coll:"Cities" ~binding:"c"
  |> Logical.mat ~src:"c" ~field:"mayor"
  |> Logical.mat ~src:"c" ~field:"country"
  |> Logical.mat ~src:"c.country" ~field:"president"
  |> Logical.select
       [ eq (field "c.mayor" "name") (field "c.country.president" "name") ]

(* Figure 3 *)
let fig3 =
  Logical.get ~coll:"Tasks" ~binding:"t"
  |> Logical.unnest ~out:"m" ~src:"t" ~field:"team_members"
  |> Logical.mat_ref ~out:"e" ~src:"m"

(* Not from the paper: n-way self-joins over Employees, bindings
   [j0 .. j(n-1)] linked by name equality — the scaling workloads for
   the search benchmarks. Each is built left-deep; [preds width i] are
   the atoms joining [j(i)] to the bindings before it. *)
let self_join ~name ~min_width preds width =
  if width < min_width then
    invalid_arg (Printf.sprintf "Queries.%s: width must be >= %d" name min_width);
  let get i = Logical.get ~coll:"Employees" ~binding:(Printf.sprintf "j%d" i) in
  let rec build acc i =
    if i >= width then acc else build (Logical.join (preds width i) acc (get i)) (i + 1)
  in
  build (get 0) 1

let link i k = eq (field (Printf.sprintf "j%d" i) "name") (field (Printf.sprintf "j%d" k) "name")

let join_chain = self_join ~name:"join_chain" ~min_width:2 (fun _ i -> [ link (i - 1) i ])

let join_star = self_join ~name:"join_star" ~min_width:2 (fun _ i -> [ link 0 i ])

let join_cycle =
  self_join ~name:"join_cycle" ~min_width:3 (fun width i ->
      if i = width - 1 then [ link (i - 1) i; link i 0 ] else [ link (i - 1) i ])

let all =
  [ ("q1", q1); ("q2", q2); ("q3", q3); ("q4", q4); ("fig2", fig2); ("fig3", fig3) ]
