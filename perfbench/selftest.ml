(* Self-tests of the benchmark's own rules. Run from the repository root:
     python3 perfbench/run.py --selftest *)

open Perfbench

let failures = ref 0

let expect name cond =
  Printf.printf "%s %s\n" (if cond then "ok  " else "FAIL") name;
  if not cond then incr failures

(* p90 keeps at least ten samples beyond it once a run has 100. *)
let percentile_rule () =
  expect "p90 of 100 samples has exactly 10 beyond, p91 only 9"
    (Stats.beyond ~pct:90 100 = 10 && Stats.beyond ~pct:91 100 = 9);
  expect "p90 has at least 10 samples beyond for every n >= 100"
    (List.for_all (fun n -> Stats.beyond ~pct:90 n >= 10) (List.init 5000 (fun i -> i + Stats.min_samples)));
  expect "nearest rank: p50 of 1..4 is 2, p90 of 1..10 is 9"
    (Stats.percentile_index ~pct:50 [| 4.; 1.; 3.; 2. |] = 3
    && Stats.percentile_index ~pct:90 (Array.init 10 float_of_int) = 8)

let same_sequence () =
  let joins a = (Workloads.setup "joins" ~seed:a).Workloads.sequence in
  let scenario a = (Workloads.setup "scenario" ~seed:a).Workloads.sequence in
  expect "one seed gives an identical joins sequence" (joins 7 = joins 7);
  expect "one seed gives an identical scenario sequence" (scenario 7 = scenario 7);
  expect "seeds 1..5 give different joins sequences"
    (List.length (List.sort_uniq compare (List.map joins [ 1; 2; 3; 4; 5 ])) = 5);
  let q = (Workloads.setup "scenario" ~seed:7).Workloads.queries in
  let q' = (Workloads.setup "scenario" ~seed:7).Workloads.queries in
  expect "one seed gives identical scenario query texts"
    (Array.map (fun x -> x.Pipeline.input) q = Array.map (fun x -> x.Pipeline.input) q')

(* With each mix and the time order its workload comment states, p50
   and p90 land inside one query's samples, with samples of the same
   query on both sides, whichever extra query the seed draws. *)
let landing ~name ~counts ~extras ~order ~p50 ~p90 =
  List.iter
    (fun extra ->
      let count q = (try List.assoc q counts with Not_found -> 0) + if q = extra then 1 else 0 in
      let a = Array.of_list (List.concat_map (fun q -> List.init (5 * count q) (fun _ -> q)) order) in
      let inside pct q =
        let r = Stats.rank ~pct (Array.length a) - 1 in
        a.(r) = q && a.(r - 2) = q && a.(r + 2) = q
      in
      expect (Printf.sprintf "%s mix (+%s): p50 inside %s, p90 inside %s" name extra p50 p90)
        (inside 50 p50 && inside 90 p90))
    extras

let mixes () =
  landing ~name:"paper" ~counts:Workloads.paper_counts ~extras:Workloads.paper_extras
    ~order:[ "q2"; "q3"; "q4"; "fig2"; "q1"; "fig3" ] ~p50:"fig2" ~p90:"q1";
  landing ~name:"joins" ~counts:Workloads.join_counts ~extras:Workloads.join_extras
    ~order:[ "w3"; "w4"; "w5"; "w6"; "w7"; "w8" ] ~p50:"w7" ~p90:"w8"

(* A wrong row set, or a winning cost off its pin, is a failure. *)
let wrong_answers_fail () =
  let w = Workloads.setup "joins" ~seed:1 in
  let q = w.Workloads.queries.(0) in
  let expect_rows = Pipeline.expected q in
  let o, rows = Pipeline.run q in
  let tally = Check.tally () in
  Check.record tally (Pipeline.check ~expect:expect_rows q o rows).Pipeline.result;
  expect "the right answer passes" (tally.Check.failed = 0);
  Check.record tally (Pipeline.check ~expect:expect_rows q o (List.tl rows)).Pipeline.result;
  let wrong_value =
    match rows with
    | ((c, _) :: cols) :: more -> ((c, Oodb_storage.Value.Int (-1)) :: cols) :: more
    | _ -> []
  in
  Check.record tally (Pipeline.check ~expect:expect_rows q o wrong_value).Pipeline.result;
  Check.record tally
    (Pipeline.check ~expect:expect_rows { q with Pipeline.pinned_cost = Some 1.0 } o rows)
      .Pipeline.result;
  expect "a missing row, a wrong value and a wrong cost are three failures"
    (tally.Check.failed = 3 && tally.Check.attempted = 4 && Check.fail_rate tally = 0.75)

let () =
  percentile_rule ();
  same_sequence ();
  mixes ();
  wrong_answers_fail ();
  if !failures > 0 then (Printf.printf "%d self-test(s) failed\n" !failures; exit 1)
  else print_endline "all self-tests passed"
