(* Order statistics of one run's samples. *)

(* Nearest-rank percentile: the sample at 1-based rank ceil(pct * n / 100),
   computed in integers so that 90% of 100 is rank 90, not 91. *)
let rank ~pct n =
  if n < 1 then invalid_arg "Stats.rank: no samples";
  max 1 (min n (((pct * n) + 99) / 100))

(* Samples strictly above the percentile's rank. *)
let beyond ~pct n = n - rank ~pct n

(* The tail percentile is reported only from a run of at least this
   many samples, so that at least ten samples lie beyond p90. *)
let min_samples = 100

(* [percentile ~pct xs] is the index (into [xs]) of the sample at the
   percentile, so callers can say which query it landed on. *)
let percentile_index ~pct (xs : float array) =
  let idx = Array.init (Array.length xs) Fun.id in
  Array.stable_sort (fun i j -> compare xs.(i) xs.(j)) idx;
  idx.(rank ~pct (Array.length xs) - 1)

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs = if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)

let median xs =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
