(* The seeded query sequence of one pass.

   A pass holds a fixed number of copies of each query (the workload's
   mix) plus one extra query the seed draws from a list of cheap ones,
   shuffled by the seed. The fixed counts place each reported
   percentile inside one query's samples; the extra query makes the
   seed change the inputs (and so the deterministic plan-quality
   metrics) by well under a percent. *)

let sequence ~seed ~counts ~extras =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let extra = List.nth extras (Random.State.int rng (List.length extras)) in
  let seq = Array.of_list (extra :: List.concat_map (fun (q, n) -> List.init n (fun _ -> q)) counts) in
  for i = Array.length seq - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = seq.(i) in
    seq.(i) <- seq.(j);
    seq.(j) <- t
  done;
  seq
