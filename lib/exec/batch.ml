(* A bounded batch of tuples: a backing array plus an optional selection
   vector. Filters refine the selection vector in place of copying the
   backing array, so a chain of selective operators over one batch costs
   one array of indices per filter and zero tuple copies. *)

type t = {
  data : Env.t array;
  sel : int array option; (* live indexes into [data], in order; None = all *)
}

let empty = { data = [||]; sel = None }

let of_array data = { data; sel = None }

let length t = match t.sel with Some s -> Array.length s | None -> Array.length t.data

let is_empty t = length t = 0

let get t i = match t.sel with Some s -> t.data.(s.(i)) | None -> t.data.(i)

let iter f t =
  match t.sel with
  | None -> Array.iter f t.data
  | Some s -> Array.iter (fun i -> f t.data.(i)) s

let to_array t =
  match t.sel with None -> t.data | Some s -> Array.map (fun i -> t.data.(i)) s

(* Dense output: transformations produce fresh tuples anyway, so there is
   nothing to share with the input's backing array. *)
let map f t =
  let n = length t in
  { data = Array.init n (fun i -> f (get t i)); sel = None }

let filter p t =
  let n = length t in
  let sel = Array.make n 0 in
  let k = ref 0 in
  (match t.sel with
  | None ->
    for i = 0 to n - 1 do
      if p t.data.(i) then begin
        sel.(!k) <- i;
        incr k
      end
    done
  | Some s ->
    for i = 0 to n - 1 do
      if p t.data.(s.(i)) then begin
        sel.(!k) <- s.(i);
        incr k
      end
    done);
  if !k = n then t else { data = t.data; sel = Some (Array.sub sel 0 !k) }
