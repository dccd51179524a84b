(* Golden execution parity: the paper queries on the scale-1.0 database
   must keep their exact simulated I/O pattern and row stream. Every
   field of the executor's I/O report is pinned (the simulated seconds
   as a hex float, so any change in the order of buffer reads or seek
   distances shows), together with an MD5 of the rows in emission order.
   A refactor of the executor or the store that changes which pages are
   read, in what order, or which rows come out in which order fails
   here even when row multisets and totals agree. *)

module Value = Oodb_storage.Value
module Executor = Oodb_exec.Executor
module Db = Oodb_exec.Db
module Config = Oodb_cost.Config
module Opt = Open_oodb.Optimizer
module Options = Open_oodb.Options
module Queries = Oodb_workloads.Queries

let db = lazy (Oodb_workloads.Datagen.generate ())

(* Rows in emission order, columns in their delivered order. *)
let digest rows =
  rows
  |> List.map (fun row ->
         String.concat ";"
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Value.to_string v)) row))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let observe name q batch_size =
  let db = Lazy.force db in
  let options = Options.with_batch_size batch_size Options.default in
  let plan = Opt.plan_exn (Opt.optimize ~options (Db.catalog db) q) in
  let config = { Config.default with Config.batch_size } in
  let rows, r = Executor.run_measured ~config db plan in
  Printf.sprintf
    "%s b=%d seq=%d rand=%d writes=%d hits=%d misses=%d evictions=%d rows=%d sim=%h digest=%s"
    name batch_size r.Executor.seq_reads r.Executor.rand_reads r.Executor.writes
    r.Executor.buffer_hits r.Executor.buffer_misses r.Executor.buffer_evictions r.Executor.rows
    r.Executor.simulated_seconds (digest rows)

(* Recorded before the slot-resolved executor and the dense-OID store
   replaced the name-keyed tuples and OID hashtables. *)
let golden =
  [ "q1 b=1 seq=3546 rand=17 writes=0 hits=53437 misses=3563 evictions=2539 rows=5000 sim=0x1.1db851eb851ebp+6 digest=14d992b5ad933cf81fa6c403d923bc81";
    "q2 b=1 seq=0 rand=4 writes=0 hits=0 misses=4 evictions=0 rows=2 sim=0x1.46e1344d36a2cp-4 digest=365ad28fe7ed3b99eeb18c72310bddf3";
    "q3 b=1 seq=0 rand=6 writes=0 hits=0 misses=6 evictions=0 rows=2 sim=0x1.fca1fa222b386p-4 digest=60f9ef4eb28222e960733dbaf01fc5cf";
    "q4 b=1 seq=56 rand=27 writes=0 hits=19 misses=83 evictions=0 rows=5 sim=0x1.a989c557d32d9p+0 digest=78572200f8662c38f36a65879fba7d2f";
    "fig2 b=1 seq=3 rand=10609 writes=0 hits=9708 misses=10612 evictions=9588 rows=4 sim=0x1.f640e6decc698p+6 digest=d2375d8feab069024d60b632f09c41b7";
    "fig3 b=1 seq=10388 rand=4 writes=6896 hits=56504 misses=3496 evictions=2472 rows=90000 sim=0x1.59c6b34dc4b42p+8 digest=7596cc7fb544c1a8d2e858306bc22ef5";
    "q1 b=64 seq=3556 rand=7 writes=0 hits=987 misses=3563 evictions=2539 rows=5000 sim=0x1.1d51eb851eb85p+6 digest=14d992b5ad933cf81fa6c403d923bc81";
    "q2 b=64 seq=0 rand=4 writes=0 hits=0 misses=4 evictions=0 rows=2 sim=0x1.46e1344d36a2cp-4 digest=365ad28fe7ed3b99eeb18c72310bddf3";
    "q3 b=64 seq=0 rand=6 writes=0 hits=0 misses=6 evictions=0 rows=2 sim=0x1.fca1fa222b386p-4 digest=60f9ef4eb28222e960733dbaf01fc5cf";
    "q4 b=64 seq=59 rand=24 writes=0 hits=19 misses=83 evictions=0 rows=5 sim=0x1.80258d499c108p+0 digest=78572200f8662c38f36a65879fba7d2f";
    "fig2 b=64 seq=354 rand=10258 writes=0 hits=188 misses=10612 evictions=9588 rows=4 sim=0x1.d47958c045d35p+6 digest=d2375d8feab069024d60b632f09c41b7";
    "fig3 b=64 seq=10388 rand=4 writes=6896 hits=151 misses=3496 evictions=2472 rows=90000 sim=0x1.59c6b34dc4b42p+8 digest=7596cc7fb544c1a8d2e858306bc22ef5" ]

let queries =
  [ ("q1", Queries.q1); ("q2", Queries.q2); ("q3", Queries.q3); ("q4", Queries.q4);
    ("fig2", Queries.fig2); ("fig3", Queries.fig3) ]

(* Every query is observed before any is checked, so one failing run
   prints all the lines that moved. *)
let test_golden batch_size () =
  let lines = List.map (fun (name, q) -> observe name q batch_size) queries in
  let tag = Printf.sprintf " b=%d " batch_size in
  let has_tag g =
    let n = String.length tag in
    let rec go i = i + n <= String.length g && (String.sub g i n = tag || go (i + 1)) in
    go 0
  in
  let expected = List.filter has_tag golden in
  if lines <> expected then
    Alcotest.failf "I/O or row stream moved; observed:\n%s"
      (String.concat "\n" (List.map (Printf.sprintf "%S;") lines))

let () =
  Alcotest.run "exec_parity"
    [ ( "golden",
        [ Alcotest.test_case "paper queries, batch size 1" `Quick (test_golden 1);
          Alcotest.test_case "paper queries, batch size 64" `Quick (test_golden 64) ] ) ]
