module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Pred = Oodb_algebra.Pred

let operand layout = function
  | Pred.Const v -> fun _ -> v
  | Pred.Self b ->
    let oid = Env.oid layout b in
    fun env -> Value.Ref (oid env)
  | Pred.Field (b, f) ->
    let obj = Env.obj layout b in
    fun env -> ( match Store.field (obj env) f with v -> v | exception Not_found -> Value.Null)

let ordered test l r =
  match l, r with
  | Value.Null, _ | _, Value.Null -> false
  | _ -> test (Value.compare l r)

let atom layout (a : Pred.atom) =
  let l = operand layout a.Pred.lhs and r = operand layout a.Pred.rhs in
  let cmp test env =
    let lv = l env in
    ordered test lv (r env)
  in
  match a.Pred.cmp with
  | Pred.Eq ->
    fun env ->
      let lv = l env in
      Value.equal lv (r env)
  | Pred.Ne ->
    fun env ->
      let lv = l env in
      not (Value.equal lv (r env))
  | Pred.Lt -> cmp (fun c -> c < 0)
  | Pred.Le -> cmp (fun c -> c <= 0)
  | Pred.Gt -> cmp (fun c -> c > 0)
  | Pred.Ge -> cmp (fun c -> c >= 0)

let pred layout atoms =
  match List.map (atom layout) atoms with
  | [] -> fun _ -> true
  | [ a ] -> a
  | tests -> fun env -> List.for_all (fun t -> t env) tests
