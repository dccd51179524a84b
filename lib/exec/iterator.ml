type t = {
  layout : Env.layout;
  open_ : unit -> unit;
  next_batch : unit -> Batch.t option;
  close : unit -> unit;
}

let make_batched ~layout ~open_ ~next_batch ~close = { layout; open_; next_batch; close }

let layout t = t.layout

let with_layout t layout = { t with layout }

let open_ t = t.open_ ()

let close t = t.close ()

let rec next_batch t =
  match t.next_batch () with
  | Some b when Batch.is_empty b -> next_batch t
  | r -> r

let of_array_thunk ~layout ~batch_size thunk =
  let batch_size = max 1 batch_size in
  let data = ref [||] and pos = ref 0 in
  make_batched ~layout
    ~open_:(fun () ->
      data := thunk ();
      pos := 0)
    ~next_batch:(fun () ->
      let n = min batch_size (Array.length !data - !pos) in
      if n <= 0 then None
      else begin
        let b = Batch.of_array (Array.sub !data !pos n) in
        pos := !pos + n;
        Some b
      end)
    ~close:(fun () -> data := [||])

(* Drains close the iterator on the way out even when the tree raises
   mid-stream, so a failing operator cannot leak its children's open
   resources. The original exception wins over any secondary failure
   raised by [close] itself. *)
let drain_protected t f =
  open_ t;
  match f () with
  | v ->
    close t;
    v
  | exception e ->
    (try close t with _ -> ());
    raise e

let to_array t =
  drain_protected t (fun () ->
      let rec drain acc =
        match next_batch t with
        | Some b -> drain (Batch.to_array b :: acc)
        | None -> Array.concat (List.rev acc)
      in
      drain [])

let to_list t = Array.to_list (to_array t)
