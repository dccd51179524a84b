(* Per-layer attribution of a traced pass.

   Layers are named after the modules on the query path and are read off
   span categories: the benchmark's own spans ("zql", "core", "exec",
   and "bench" for the whole query) and the ones the engine already has
   ("plancache", "optimizer" and "volcano"; Profile's per-operator
   "exec" spans). A layer's self time is its spans' durations minus the
   part their child spans cover. *)

module Span = Oodb_util.Span

let layers = [ "zql"; "plancache"; "core"; "volcano"; "exec" ]

let layer_of_cat = function
  | "zql" -> "zql"
  | "plancache" -> "plancache"
  | "core" -> "core"
  | "optimizer" | "volcano" -> "volcano"
  | "exec" -> "exec"
  | _ -> "bench"

(* A collector whose clock also reads [Gc.minor_words], so every span
   whose ends are read from the clock gets an allocation delta.
   Profile's operator spans carry explicit timestamps; their
   allocation stays with the enclosing "run" span. *)
type collector = { spans : Span.t; words : (int, float) Hashtbl.t }

let collector () =
  let words = Hashtbl.create 4096 in
  let cell = ref None in
  let clock () =
    (match !cell with
    | Some s -> Hashtbl.replace words (Span.count s) (Gc.minor_words ())
    | None -> ());
    Sys.time ()
  in
  let spans = Span.create ~clock () in
  cell := Some spans;
  { spans; words }

type acc = { mutable self_s : float; mutable incl_s : float; mutable calls : int; mutable words : float }

type t = { by_layer : (string, acc) Hashtbl.t; by_name : (string, acc) Hashtbl.t }

let create () = { by_layer = Hashtbl.create 8; by_name = Hashtbl.create 32 }

let acc tbl key =
  match Hashtbl.find_opt tbl key with
  | Some a -> a
  | None ->
    let a = { self_s = 0.0; incl_s = 0.0; calls = 0; words = 0.0 } in
    Hashtbl.replace tbl key a;
    a

let find t key = acc t.by_name key

let layer t key = acc t.by_layer key

type frame = {
  f_name : string;
  f_cat : string;
  f_ts : float;
  f_words : float option;
  mutable child_s : float;
  mutable child_words : float;
}

(* Folds one collector's spans into [t]. *)
let add t (c : collector) =
  let stack = ref [] in
  List.iteri
    (fun i (ev : Span.event) ->
      match ev.Span.ev_ph with
      | `B ->
        stack :=
          { f_name = ev.Span.ev_name; f_cat = ev.Span.ev_cat; f_ts = ev.Span.ev_ts;
            f_words = Hashtbl.find_opt c.words i; child_s = 0.0; child_words = 0.0 }
          :: !stack
      | `E -> (
        match !stack with
        | [] -> invalid_arg "Layers.add: unbalanced spans"
        | f :: rest ->
          stack := rest;
          let dur = ev.Span.ev_ts -. f.f_ts in
          let words =
            match (f.f_words, Hashtbl.find_opt c.words i) with
            | Some w0, Some w1 -> Some (w1 -. w0)
            | _ -> None
          in
          let self_words = match words with Some w -> w -. f.child_words | None -> 0.0 in
          List.iter
            (fun a ->
              a.self_s <- a.self_s +. dur -. f.child_s;
              a.incl_s <- a.incl_s +. dur;
              a.calls <- a.calls + 1;
              a.words <- a.words +. self_words)
            [ acc t.by_layer (layer_of_cat f.f_cat); acc t.by_name (f.f_cat ^ "/" ^ f.f_name) ];
          match rest with
          | p :: _ ->
            p.child_s <- p.child_s +. dur;
            Option.iter (fun w -> p.child_words <- p.child_words +. w) words
          | [] -> ()))
    (Span.events c.spans)

(* Adds [t] into [into], its times multiplied by [scale]. *)
let merge ~scale ~into t =
  let fold src dst =
    Hashtbl.iter
      (fun k a ->
        let d = acc dst k in
        d.self_s <- d.self_s +. (scale *. a.self_s);
        d.incl_s <- d.incl_s +. (scale *. a.incl_s);
        d.calls <- d.calls + a.calls;
        d.words <- d.words +. a.words)
      src
  in
  fold t.by_layer into.by_layer;
  fold t.by_name into.by_name

let of_collector c =
  let t = create () in
  add t c;
  t
