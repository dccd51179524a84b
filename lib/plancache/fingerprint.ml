module Logical = Oodb_algebra.Logical
module Pred = Oodb_algebra.Pred
module Value = Oodb_storage.Value
module Catalog = Oodb_catalog.Catalog
module Options = Open_oodb.Options
module Physprop = Open_oodb.Physprop
module Config = Oodb_cost.Config

(* ------------------------------------------------------------------ *)
(* Alpha-renaming                                                       *)

(* Canonical names are assigned in introduction order: a post-order walk
   visits each operator after its inputs, which is exactly the order
   bindings enter scope (Get at the leaves, Mat/Unnest above their
   input). Well-formed expressions introduce every binding once. *)
let renaming expr =
  let tbl = Hashtbl.create 16 in
  let n = ref 0 in
  let intro b =
    if not (Hashtbl.mem tbl b) then begin
      Hashtbl.add tbl b (Printf.sprintf "$%d" !n);
      incr n
    end
  in
  let rec walk t =
    List.iter walk t.Logical.inputs;
    match t.Logical.op with
    | Logical.Get { binding; _ } -> intro binding
    | Logical.Mat { out; _ } -> intro out
    | Logical.Unnest { out; _ } -> intro out
    | Logical.Select _ | Logical.Project _ | Logical.Join _ | Logical.Cross | Logical.Union
    | Logical.Intersect | Logical.Difference ->
      ()
  in
  walk expr;
  fun b -> match Hashtbl.find_opt tbl b with Some c -> c | None -> b

(* Orient each (renamed) atom so the smaller operand sits on the left,
   then sort the conjunction: conjunct order and operand mirroring are
   semantically irrelevant, so they must not split cache entries. *)
let canon_pred rename pred =
  Pred.rename rename pred
  |> List.map (fun (a : Pred.atom) ->
         if Stdlib.compare a.Pred.lhs a.Pred.rhs <= 0 then a
         else { Pred.cmp = Pred.flip a.Pred.cmp; lhs = a.Pred.rhs; rhs = a.Pred.lhs })
  |> List.sort Stdlib.compare

let canon_proj rename (p : Logical.proj) =
  let p_name =
    (* default-derived output names follow the binding renaming;
       explicit aliases name result columns and stay verbatim *)
    match p.Logical.p_expr with
    | Pred.Field (b, f) when p.Logical.p_name = b ^ "." ^ f -> rename b ^ "." ^ f
    | Pred.Self b when p.Logical.p_name = b -> rename b
    | Pred.Field _ | Pred.Self _ | Pred.Const _ -> p.Logical.p_name
  in
  let p_expr =
    match p.Logical.p_expr with
    | Pred.Const v -> Pred.Const v
    | Pred.Field (b, f) -> Pred.Field (rename b, f)
    | Pred.Self b -> Pred.Self (rename b)
  in
  { Logical.p_expr; p_name }

let canon_op rename = function
  | Logical.Get { coll; binding } -> Logical.Get { coll; binding = rename binding }
  | Logical.Select pred -> Logical.Select (canon_pred rename pred)
  | Logical.Project ps -> Logical.Project (List.map (canon_proj rename) ps)
  | Logical.Join pred -> Logical.Join (canon_pred rename pred)
  | Logical.Cross -> Logical.Cross
  | Logical.Mat { src; field; out } -> Logical.Mat { src = rename src; field; out = rename out }
  | Logical.Unnest { src; field; out } ->
    Logical.Unnest { src = rename src; field; out = rename out }
  | Logical.Union -> Logical.Union
  | Logical.Intersect -> Logical.Intersect
  | Logical.Difference -> Logical.Difference

let canonical expr =
  let rename = renaming expr in
  let rec rewrite t =
    { Logical.op = canon_op rename t.Logical.op; inputs = List.map rewrite t.Logical.inputs }
  in
  rewrite expr

(* ------------------------------------------------------------------ *)
(* Structural serialization                                             *)

(* Tagged, parenthesized and %S-escaped: distinct canonical trees
   serialize to distinct strings (the pretty-printer is for humans and
   not quite injective — [Str "1"] and [Int 1] both render as something
   readable; here they carry different tags). *)

let emit_value buf (v : Value.t) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rec go = function
    | Value.Null -> add "null"
    | Value.Bool b -> add "bool:%b" b
    | Value.Int i -> add "int:%d" i
    | Value.Float f -> add "float:%h" f
    | Value.Str s -> add "str:%S" s
    | Value.Date d -> add "date:%d" d
    | Value.Ref oid -> add "ref:%d" oid
    | Value.Set vs ->
      add "set[";
      List.iter
        (fun v ->
          go v;
          add ";")
        vs;
      add "]"
  in
  go v

let emit_operand buf = function
  | Pred.Const v ->
    Buffer.add_string buf "const ";
    emit_value buf v
  | Pred.Field (b, f) -> Printf.ksprintf (Buffer.add_string buf) "field %S %S" b f
  | Pred.Self b -> Printf.ksprintf (Buffer.add_string buf) "self %S" b

let cmp_tag = function
  | Pred.Eq -> "eq"
  | Pred.Ne -> "ne"
  | Pred.Lt -> "lt"
  | Pred.Le -> "le"
  | Pred.Gt -> "gt"
  | Pred.Ge -> "ge"

let emit_pred buf pred =
  Buffer.add_char buf '[';
  List.iter
    (fun (a : Pred.atom) ->
      Buffer.add_char buf '(';
      Buffer.add_string buf (cmp_tag a.Pred.cmp);
      Buffer.add_char buf ' ';
      emit_operand buf a.Pred.lhs;
      Buffer.add_char buf ' ';
      emit_operand buf a.Pred.rhs;
      Buffer.add_char buf ')')
    pred;
  Buffer.add_char buf ']'

let emit_op buf op =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match op with
  | Logical.Get { coll; binding } -> add "get %S %S" coll binding
  | Logical.Select pred ->
    add "select ";
    emit_pred buf pred
  | Logical.Project ps ->
    add "project";
    List.iter
      (fun (p : Logical.proj) ->
        add " (%S " p.Logical.p_name;
        emit_operand buf p.Logical.p_expr;
        add ")")
      ps
  | Logical.Join pred ->
    add "join ";
    emit_pred buf pred
  | Logical.Cross -> add "cross"
  | Logical.Mat { src; field; out } ->
    add "mat %S %s %S" src
      (match field with Some f -> Printf.sprintf "(%S)" f | None -> "()")
      out
  | Logical.Unnest { src; field; out } -> add "unnest %S %S %S" src field out
  | Logical.Union -> add "union"
  | Logical.Intersect -> add "intersect"
  | Logical.Difference -> add "difference"

let rec emit_expr buf t =
  Buffer.add_char buf '(';
  emit_op buf t.Logical.op;
  List.iter
    (fun i ->
      Buffer.add_char buf ' ';
      emit_expr buf i)
    t.Logical.inputs;
  Buffer.add_char buf ')'

let emit_required buf rename (p : Physprop.t) =
  Buffer.add_string buf "required{mem:";
  (* sort after renaming: the set iterates in original-name order, which
     would leak the original spelling into the key *)
  Physprop.Bset.elements p.Physprop.in_memory
  |> List.map rename
  |> List.sort String.compare
  |> List.iter (fun b -> Printf.ksprintf (Buffer.add_string buf) "%S;" b);
  (match p.Physprop.order with
  | None -> Buffer.add_string buf "|order:none"
  | Some { Physprop.ord_binding; ord_field } ->
    Printf.ksprintf (Buffer.add_string buf) "|order:%S.%s" (rename ord_binding)
      (match ord_field with Some f -> Printf.sprintf "%S" f | None -> "self"));
  Buffer.add_char buf '}'

(* Every option that can change the chosen plan. [verify] only checks
   the winner and [cache] is meta, so neither splits entries. *)
let emit_options buf (o : Options.t) =
  let c = o.Options.config in
  Printf.ksprintf (Buffer.add_string buf)
    "options{config:%d,%h,%h,%h,%d,%h,%h,%d,%h,%h,%d,%d,%h,%h|disabled:%s|pruning:%b|normalize:%b}"
    c.Config.page_bytes c.Config.seq_io c.Config.rand_io c.Config.asm_io_floor
    c.Config.assembly_window c.Config.cpu_tuple c.Config.cpu_call c.Config.batch_size
    c.Config.cpu_pred c.Config.cpu_hash
    c.Config.memory_bytes c.Config.buffer_pages c.Config.default_selectivity
    c.Config.range_selectivity
    (String.concat ","
       (List.sort_uniq String.compare (List.map String.escaped o.Options.disabled)))
    o.Options.pruning o.Options.normalize

let key ~catalog ~options ~required expr =
  let buf = Buffer.create 512 in
  let rename = renaming expr in
  emit_expr buf (canonical expr);
  Buffer.add_char buf '|';
  emit_required buf rename required;
  Buffer.add_char buf '|';
  Printf.ksprintf (Buffer.add_string buf) "catalog{epoch:%d|digest:%s}"
    (Catalog.epoch catalog)
    (Digest.to_hex (Catalog.digest catalog));
  Buffer.add_char buf '|';
  emit_options buf options;
  Buffer.contents buf

type t = Digest.t

let make ~catalog ~options ~required expr =
  Digest.string (key ~catalog ~options ~required expr)

let equal (a : t) (b : t) = String.equal a b

let compare (a : t) (b : t) = String.compare a b

let hash (t : t) = Hashtbl.hash t

let to_hex = Digest.to_hex

let pp ppf t = Format.pp_print_string ppf (to_hex t)
