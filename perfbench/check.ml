(* Answer checking, kept apart from the timed path.

   A row set is reduced to its size and an order-insensitive digest:
   each row (columns sorted by name) is hashed with MD5 and the hashes
   are summed, so the digest is a function of the row multiset. The
   expected digest comes from the reference interpreter, which shares
   no code with the optimizer or the executor. *)

module Value = Oodb_storage.Value

type digest = { rows : int; sum : int64 }

let row_key row =
  List.stable_sort (fun (a, _) (b, _) -> String.compare a b) row
  |> List.map (fun (c, v) -> c ^ "=" ^ Value.to_string v)
  |> String.concat "\x1f"

let digest rows =
  List.fold_left
    (fun d row ->
      { rows = d.rows + 1; sum = Int64.add d.sum (String.get_int64_le (Digest.string (row_key row)) 0) })
    { rows = 0; sum = 0L }
    rows

let same a b = a.rows = b.rows && Int64.equal a.sum b.sum

(* A winning cost pinned at the seed commit; relative tolerance 1e-9. *)
let cost_matches ~pinned cost = Float.abs (cost -. pinned) <= 1e-9 *. Float.abs pinned

(* Failures of one run: raised, returned an error, or gave a wrong answer. *)
type tally = { mutable attempted : int; mutable failed : int; mutable first_failure : string option }

let tally () = { attempted = 0; failed = 0; first_failure = None }

let record t = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error msg ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    if t.first_failure = None then t.first_failure <- Some msg

let fail_rate t = if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted
