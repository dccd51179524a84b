module Pretty = Oodb_util.Pretty
module Schema = Oodb_catalog.Schema
module Catalog = Oodb_catalog.Catalog

type proj = { p_expr : Pred.operand; p_name : string }

type op =
  | Get of { coll : string; binding : string }
  | Select of Pred.t
  | Project of proj list
  | Join of Pred.t
  | Cross
  | Mat of { src : string; field : string option; out : string }
  | Unnest of { src : string; field : string; out : string }
  | Union
  | Intersect
  | Difference

type t = { op : op; inputs : t list }

let arity = function
  | Get _ -> 0
  | Select _ | Project _ | Mat _ | Unnest _ -> 1
  | Join _ | Cross | Union | Intersect | Difference -> 2

let kinds = 10

let kind = function
  | Get _ -> 0
  | Select _ -> 1
  | Project _ -> 2
  | Join _ -> 3
  | Cross -> 4
  | Mat _ -> 5
  | Unnest _ -> 6
  | Union -> 7
  | Intersect -> 8
  | Difference -> 9

let node op inputs =
  if List.length inputs <> arity op then invalid_arg "Logical: wrong arity";
  { op; inputs }

let get ~coll ~binding = node (Get { coll; binding }) []

let select pred input = node (Select pred) [ input ]

let project ps input = node (Project ps) [ input ]

let join pred l r = node (Join pred) [ l; r ]

let cross l r = node Cross [ l; r ]

let mat ?out ~src ~field input =
  let out = match out with Some o -> o | None -> src ^ "." ^ field in
  node (Mat { src; field = Some field; out }) [ input ]

let mat_ref ~out ~src input = node (Mat { src; field = None; out }) [ input ]

let unnest ?out ~src ~field input =
  let out = match out with Some o -> o | None -> src ^ "." ^ field ^ "[]" in
  node (Unnest { src; field; out }) [ input ]

let union l r = node Union [ l; r ]

let intersect l r = node Intersect [ l; r ]

let difference l r = node Difference [ l; r ]

let compare_op (a : op) (b : op) = Stdlib.compare a b

let rec compare a b =
  let c = compare_op a.op b.op in
  if c <> 0 then c else List.compare compare a.inputs b.inputs

let equal a b = compare a b = 0

let rec hash t =
  List.fold_left (fun acc i -> (acc * 1000003) + hash i) (Hashtbl.hash t.op) t.inputs

let rec scope t =
  match t.op with
  | Get { binding; _ } -> [ binding ]
  | Select _ -> scope (List.hd t.inputs)
  | Project ps ->
    let used = List.concat_map (fun p -> Pred.bindings_of_operand p.p_expr) ps in
    List.filter (fun b -> List.mem b used) (scope (List.hd t.inputs))
  | Join _ | Cross -> (
    match t.inputs with [ l; r ] -> scope l @ scope r | _ -> assert false)
  | Mat { out; _ } -> scope (List.hd t.inputs) @ [ out ]
  | Unnest { out; _ } -> scope (List.hd t.inputs) @ [ out ]
  | Union | Intersect | Difference -> scope (List.hd t.inputs)

(* Environment of binding classes at the root of [t]; shared plumbing for
   [binding_class] and [well_formed]. *)
let rec infer_env cat t : ((string * string) list, string) result =
  let ( let* ) = Result.bind in
  let schema = Catalog.schema cat in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let introduce env b cls =
    if List.mem_assoc b env then fail "binding %s introduced twice" b
    else Ok (env @ [ (b, cls) ])
  in
  let check_operand env = function
    | Pred.Const _ -> Ok ()
    | Pred.Self b ->
      if List.mem_assoc b env then Ok () else fail "binding %s not in scope" b
    | Pred.Field (b, f) -> (
      match List.assoc_opt b env with
      | None -> fail "binding %s not in scope" b
      | Some cls -> (
        match Schema.attr_ty schema ~cls f with
        | None -> fail "class %s has no attribute %s" cls f
        | Some _ -> Ok ()))
  in
  let check_pred env pred =
    List.fold_left
      (fun acc (a : Pred.atom) ->
        let* () = acc in
        let* () = check_operand env a.lhs in
        check_operand env a.rhs)
      (Ok ()) pred
  in
  match t.op, t.inputs with
  | Get { coll; binding }, [] -> (
    match Catalog.find_collection cat coll with
    | None -> fail "unknown collection %s" coll
    | Some co -> introduce [] binding co.co_class)
  | Select pred, [ input ] ->
    let* env = infer_env cat input in
    let* () = check_pred env pred in
    Ok env
  | Project ps, [ input ] ->
    let* env = infer_env cat input in
    let* () =
      List.fold_left
        (fun acc p ->
          let* () = acc in
          check_operand env p.p_expr)
        (Ok ()) ps
    in
    let used = List.concat_map (fun p -> Pred.bindings_of_operand p.p_expr) ps in
    Ok (List.filter (fun (b, _) -> List.mem b used) env)
  | Join pred, [ l; r ] ->
    let* envl = infer_env cat l in
    let* envr = infer_env cat r in
    let* () =
      List.fold_left
        (fun acc (b, _) ->
          let* () = acc in
          if List.mem_assoc b envl then fail "binding %s introduced twice" b else Ok ())
        (Ok ()) envr
    in
    let env = envl @ envr in
    let* () = check_pred env pred in
    Ok env
  | Cross, [ l; r ] ->
    let* envl = infer_env cat l in
    let* envr = infer_env cat r in
    Ok (envl @ envr)
  | Mat { src; field; out }, [ input ] ->
    let* env = infer_env cat input in
    (match List.assoc_opt src env with
    | None -> fail "Mat: binding %s not in scope" src
    | Some cls -> (
      match field with
      | None -> introduce env out cls
      | Some field -> (
        match Schema.attr_ty schema ~cls field with
        | Some (Schema.Ref target) -> introduce env out target
        | Some ty ->
          fail "Mat: %s.%s is %a, not a single-valued reference" cls field Schema.pp_attr_ty ty
        | None -> fail "Mat: class %s has no attribute %s" cls field)))
  | Unnest { src; field; out }, [ input ] ->
    let* env = infer_env cat input in
    (match List.assoc_opt src env with
    | None -> fail "Unnest: binding %s not in scope" src
    | Some cls -> (
      match Schema.attr_ty schema ~cls field with
      | Some (Schema.Set_of (Schema.Ref target)) -> introduce env out target
      | Some ty -> fail "Unnest: %s.%s is %a, not a set of references" cls field Schema.pp_attr_ty ty
      | None -> fail "Unnest: class %s has no attribute %s" cls field))
  | (Union | Intersect | Difference), [ l; r ] ->
    let* envl = infer_env cat l in
    let* envr = infer_env cat r in
    if envl = envr then Ok envl
    else fail "set operation inputs have different scopes"
  | _ -> fail "malformed expression (wrong arity)"

let binding_class cat t b =
  match infer_env cat t with
  | Ok env -> List.assoc_opt b env
  | Error _ -> None

let well_formed cat t = Result.map (fun _ -> ()) (infer_env cat t)

let pp_proj ppf p =
  if
    match p.p_expr with
    | Pred.Field (b, f) -> b ^ "." ^ f = p.p_name
    | Pred.Self b -> b = p.p_name
    | Pred.Const _ -> false
  then Pred.pp_operand ppf p.p_expr
  else Format.fprintf ppf "%a as %s" Pred.pp_operand p.p_expr p.p_name

let pp_op ppf = function
  | Get { coll; binding } -> Format.fprintf ppf "Get %s: %s" coll binding
  | Select pred -> Format.fprintf ppf "Select %a" Pred.pp pred
  | Project ps ->
    Format.fprintf ppf "Project %a"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_proj)
      ps
  | Join pred -> Format.fprintf ppf "Join %a" Pred.pp pred
  | Cross -> Format.pp_print_string ppf "Cross"
  | Mat { src; field = Some field; out } ->
    if out = src ^ "." ^ field then Format.fprintf ppf "Mat %s.%s" src field
    else Format.fprintf ppf "Mat %s.%s: %s" src field out
  | Mat { src; field = None; out } -> Format.fprintf ppf "Mat %s: %s" src out
  | Unnest { src; field; out } -> Format.fprintf ppf "Unnest %s.%s: %s" src field out
  | Union -> Format.pp_print_string ppf "Union"
  | Intersect -> Format.pp_print_string ppf "Intersect"
  | Difference -> Format.pp_print_string ppf "Difference"

let rec to_tree t =
  Pretty.Node (Format.asprintf "%a" pp_op t.op, List.map to_tree t.inputs)

let pp ppf t = Format.pp_print_string ppf (Pretty.render (to_tree t))

let to_string t = Format.asprintf "%a" pp t
