module Value = Oodb_storage.Value
module Store = Oodb_storage.Store

exception Not_materialized of string

exception Unbound of string

type t = Store.obj array

type layout = { names : string array; objs : bool array }

(* Allocated at run time so that no other record can be physically equal
   to it. *)
let absent = { Store.oid = 0; cls = ""; coll = ""; fields = Array.make 1 ("", Value.Null) }

let reference store oid =
  match Store.peek store oid with
  | o -> o
  | exception Not_found -> { Store.oid; cls = ""; coll = ""; fields = [||] }

let layout l = { names = Array.of_list (List.map fst l); objs = Array.of_list (List.map snd l) }

let append a b =
  { names = Array.append a.names b.names; objs = Array.append a.objs b.objs }

let bindings l = Array.to_list l.names

let index l b =
  let n = Array.length l.names in
  let rec go i = if i >= n then -1 else if String.equal l.names.(i) b then i else go (i + 1) in
  go 0

let oid l b =
  let i = index l b in
  if i < 0 then fun _ -> raise (Unbound b)
  else
    fun (env : t) ->
      let o = env.(i) in
      if o == absent then raise (Unbound b) else o.Store.oid

let obj l b =
  let i = index l b in
  if i < 0 then fun _ -> raise (Unbound b)
  else if not l.objs.(i) then
    fun (env : t) -> raise (if env.(i) == absent then Unbound b else Not_materialized b)
  else
    fun (env : t) ->
      let o = env.(i) in
      if o == absent then raise (Unbound b) else o

let merge = Array.append

let extend (env : t) o =
  let n = Array.length env in
  let e = Array.make (n + 1) o in
  Array.blit env 0 e 0 n;
  e
