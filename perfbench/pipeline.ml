(* One query through the real pipeline, timed on the process CPU clock:
   ZQL text -> Parser.parse -> Simplify.query_ordered (together,
   Simplify.compile_ordered) -> Plancache.optimize, or a cold
   Optimizer.optimize -> Executor.run_measured.

   With a span collector the same calls run inside the benchmark's own
   spans (one per call into a layer), the collector is handed to the
   spans the engine already has, and execution goes through
   Profile.run, which adds per-operator spans and counts. *)

module Span = Oodb_util.Span
module Catalog = Oodb_catalog.Catalog
module Logical = Oodb_algebra.Logical
module Physprop = Open_oodb.Physprop
module Engine = Open_oodb.Model.Engine
module Optimizer = Open_oodb.Optimizer
module Plancache = Oodb_plancache.Plancache
module Executor = Oodb_exec.Executor
module Db = Oodb_exec.Db
module Profile = Oodb_obs.Profile
module Interp = Oodb_verify.Interp

type input =
  | Zql of string
  | Algebra of Logical.t

type query = {
  name : string;  (** what a percentile reports it landed on *)
  db : Db.t;  (** executes against *)
  cat : Catalog.t;  (** optimizes against *)
  input : input;
  cache : Plancache.t option;  (** [None]: cold [Optimizer.optimize] *)
  pinned_cost : float option;  (** winning [Cost.total] at the seed commit *)
}

type outcome = {
  compile_s : float;  (** input -> physical plan *)
  exec_s : float;  (** plan -> all rows *)
  result : (unit, string) result;
  est_cost : float;
  io : Executor.io_report option;
  profile : Profile.node option;
  search : Engine.stats option;  (** of a search this call ran; [None] on a cache hit *)
}

let required_of = function
  | None -> Physprop.empty
  | Some (ord_binding, ord_field) ->
    { Physprop.empty with Physprop.order = Some { Physprop.ord_binding; ord_field } }

(* What the oracle evaluates: the simplifier's output for ZQL input. *)
let logical_of q =
  match q.input with
  | Algebra l -> l
  | Zql text -> (
    match Zql.Simplify.compile_ordered q.cat text with
    | Ok c -> c.Zql.Simplify.c_logical
    | Error e -> failwith (Printf.sprintf "%s: %s" q.name e))

let expected q = Check.digest (Interp.rows q.db (logical_of q))

let failed ~compile_s ~exec_s msg =
  { compile_s; exec_s; result = Error msg; est_cost = 0.0; io = None; profile = None;
    search = None }

let compile spans q =
  match q.input with
  | Algebra l -> Ok (l, Physprop.empty)
  | Zql text -> (
    match Span.with_span spans ~cat:"zql" "parse" (fun () -> Zql.Parser.parse text) with
    | Error e -> Error ("parse error: " ^ e)
    | Ok ast -> (
      match
        Span.with_span spans ~cat:"zql" "simplify" (fun () -> Zql.Simplify.query_ordered q.cat ast)
      with
      | Error e -> Error e
      | Ok c -> Ok (c.Zql.Simplify.c_logical, required_of c.Zql.Simplify.c_order)))

let optimize spans q (logical, required) =
  Span.with_span spans ~cat:"core" "compile" (fun () ->
      match q.cache with
      | Some pc ->
        let o = Plancache.optimize ~required ?spans pc q.cat logical in
        (o.Plancache.plan, if o.Plancache.cached then None else Some o.Plancache.stats)
      | None ->
        let o = Optimizer.optimize ~required ?spans q.cat logical in
        (o.Optimizer.plan, Some o.Optimizer.stats))

let execute spans q plan =
  match spans with
  | None ->
    let rows, io = Executor.run_measured q.db plan in
    (rows, io, None)
  | Some _ ->
    Span.with_span spans ~cat:"exec" "build" (fun () -> ignore (Executor.iterator q.db plan));
    let rows, io, node = Span.with_span spans ~cat:"exec" "run" (fun () -> Profile.run ?spans q.db plan) in
    (rows, io, Some node)

(* Runs one query; returns its outcome and rows, unchecked. *)
let run ?spans q =
  let t0 = Sys.time () in
  match
    match compile spans q with
    | Error e -> Error e
    | Ok input -> Ok (optimize spans q input)
  with
  | exception e -> (failed ~compile_s:(Sys.time () -. t0) ~exec_s:0.0 (Printexc.to_string e), [])
  | Error e -> (failed ~compile_s:(Sys.time () -. t0) ~exec_s:0.0 e, [])
  | Ok (None, _) -> (failed ~compile_s:(Sys.time () -. t0) ~exec_s:0.0 "no plan", [])
  | Ok (Some plan, search) -> (
    let t1 = Sys.time () in
    match execute spans q plan with
    | exception e ->
      (failed ~compile_s:(t1 -. t0) ~exec_s:(Sys.time () -. t1) (Printexc.to_string e), [])
    | rows, io, profile ->
      let t2 = Sys.time () in
      ( { compile_s = t1 -. t0; exec_s = t2 -. t1; result = Ok ();
          est_cost = Oodb_cost.Cost.total plan.Engine.cost; io = Some io; profile; search },
        rows ))

(* Checks an outcome's rows against the oracle's answer and its winning
   cost against the pin; runs outside the timed region. *)
let check ~expect q o rows =
  match o.result with
  | Error _ -> o
  | Ok () ->
    let result =
      if not (Check.same (Check.digest rows) expect) then
        Error
          (Printf.sprintf "%s: %d rows differ from the oracle's %d-row answer" q.name
             (List.length rows) expect.Check.rows)
      else
        match q.pinned_cost with
        | Some pinned when not (Check.cost_matches ~pinned o.est_cost) ->
          Error (Printf.sprintf "%s: winning cost %.17g, pinned %.17g" q.name o.est_cost pinned)
        | _ -> Ok ()
    in
    { o with result }
