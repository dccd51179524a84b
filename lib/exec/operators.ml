module Value = Oodb_storage.Value
module Store = Oodb_storage.Store
module Disk = Oodb_storage.Disk
module Btree_index = Oodb_storage.Btree_index
module Pred = Oodb_algebra.Pred
module Logical = Oodb_algebra.Logical
module Physical = Open_oodb.Physical
module Config = Oodb_cost.Config

(* Every operator computes its output layout from its children's when it
   is built, and resolves the bindings it reads to slot indexes there;
   the per-tuple work below indexes arrays and compares ints. *)

(* A reference that leads nowhere ([Null] or not a reference): the tuple
   carrying it is dropped. *)
let no_ref = min_int

(* The OID a path step dereferences: the binding itself, or a reference
   field of its materialized object. *)
let target layout src field =
  match field with
  | None -> Env.oid layout src
  | Some f ->
    let obj = Env.obj layout src in
    fun env -> ( match Store.field (obj env) f with Value.Ref oid -> oid | _ -> no_ref)

let single b ~obj = Env.layout [ (b, obj) ]

(* Output queue of the operators whose expansion is unbounded (hash join,
   unnest): tuples of successive child batches accumulate in an array and
   leave in full batches. *)
type queue = { mutable buf : Env.t array; mutable head : int; mutable tail : int }

let queue () = { buf = [||]; head = 0; tail = 0 }

let q_clear q =
  q.buf <- [||];
  q.head <- 0;
  q.tail <- 0

let q_push q env =
  if q.tail = Array.length q.buf then begin
    let live = q.tail - q.head in
    let buf =
      if 2 * live <= Array.length q.buf && live > 0 then q.buf
      else Array.make (max 64 (2 * live)) [||]
    in
    Array.blit q.buf q.head buf 0 live;
    q.buf <- buf;
    q.head <- 0;
    q.tail <- live
  end;
  q.buf.(q.tail) <- env;
  q.tail <- q.tail + 1

let q_take q n =
  let b = Batch.of_array (Array.sub q.buf q.head n) in
  q.head <- q.head + n;
  if q.head = q.tail then begin
    q.head <- 0;
    q.tail <- 0
  end;
  b

(* Serve [q] in batches of [batch_size], calling [pull] for more input
   whenever less than a batch is queued — selective joins would
   otherwise pass tiny batches downstream and forfeit the amortization.
   [pull] returns [false] once its input is exhausted; it is called
   again on the next request, as the input's own protocol allows. *)
let rec next_queued q ~batch_size pull =
  let n = q.tail - q.head in
  if n >= batch_size then Some (q_take q batch_size)
  else if pull () then next_queued q ~batch_size pull
  else if n = 0 then None
  else Some (q_take q n)

(* Demote slots of bindings outside [keep] to bare references. This is
   the runtime counterpart of the optimizer's delivered-properties
   vector: objects a plan node does not promise in memory are not
   carried (a real engine would not copy them into its output tuples),
   and any later attempt to read their fields raises
   [Env.Not_materialized], surfacing property-machinery bugs. A layout
   change only, decided when the tree is built: no tuple is touched, and
   when nothing outside [keep] is materialized the child is returned as
   is. *)
let trim keep child =
  let l = Iterator.layout child in
  let objs = Array.mapi (fun i o -> o && List.mem l.Env.names.(i) keep) l.Env.objs in
  if objs = l.Env.objs then child else Iterator.with_layout child { l with Env.objs }

let file_scan db ~coll ~binding ~batch_size =
  let store = Db.store db in
  let batch_size = max 1 batch_size in
  let pos = ref 0 in
  Iterator.make_batched ~layout:(single binding ~obj:true)
    ~open_:(fun () -> pos := 0)
    ~next_batch:(fun () ->
      match Store.scan_batch store ~coll ~pos:!pos ~n:batch_size with
      | [||] -> None
      | objs ->
        pos := !pos + Array.length objs;
        Some (Batch.of_array (Array.map (fun o -> [| o |]) objs)))
    ~close:(fun () -> ())

let index_scan db ~coll ~binding ~index ~key ~residual ~derefs ~batch_size =
  ignore coll;
  let store = Db.store db in
  let batch_size = max 1 batch_size in
  let ix =
    match Db.find_index db index with
    | Some ix -> ix
    | None -> invalid_arg (Printf.sprintf "Operators.index_scan: no physical index %s" index)
  in
  let base = single binding ~obj:true in
  let keep = Eval.pred base residual in
  (* Re-emit the reference bindings of a collapsed Mat chain. The first
     link reads a field of the fetched root for free; deeper links must
     fetch the intermediate object (rare: multi-link paths below an
     unprojected root). A link whose source is missing or whose field is
     not a reference leaves its slot [Absent]. *)
  let deref l (src, field, _out) =
    match field with
    | None ->
      let oid = Env.oid l src in
      fun env -> Env.extend env (Env.reference store (oid env))
    | Some f ->
      let i = Env.index l src in
      let materialized = i >= 0 && l.Env.objs.(i) in
      fun (env : Env.t) ->
        let src = if i < 0 then Env.absent else env.(i) in
        Env.extend env
          (if src == Env.absent then Env.absent
           else
             let o = if materialized then src else Store.fetch store src.Store.oid in
             match Store.field o f with
             | Value.Ref oid -> Env.reference store oid
             | _ -> Env.absent)
  in
  let layout, steps =
    List.fold_left
      (fun (l, steps) ((_, _, out) as d) ->
        (Env.append l (single out ~obj:false), deref l d :: steps))
      (base, []) derefs
  in
  let steps = List.rev steps in
  let pos = ref 0 in
  (* [lookup_batch] charges the descent at pos = 0, so once it comes back
     empty we must not probe again. *)
  let exhausted = ref false in
  Iterator.make_batched ~layout
    ~open_:(fun () ->
      pos := 0;
      exhausted := false)
    ~next_batch:(fun () ->
      if !exhausted then None
      else
        match Btree_index.lookup_batch ix key ~pos:!pos ~n:batch_size with
        | [] ->
          exhausted := true;
          None
        | oids ->
          pos := !pos + List.length oids;
          let b =
            Batch.of_array
              (Array.of_list (List.map (fun oid -> [| Store.fetch store oid |]) oids))
          in
          let b = if residual = [] then b else Batch.filter keep b in
          Some
            (if steps = [] then b
             else Batch.map (fun env -> List.fold_left (fun env s -> s env) env steps) b))
    ~close:(fun () -> ())

let filter pred child =
  let keep = Eval.pred (Iterator.layout child) pred in
  Iterator.make_batched ~layout:(Iterator.layout child)
    ~open_:(fun () -> Iterator.open_ child)
    ~next_batch:(fun () ->
      let b = Iterator.next_batch child in
      if pred = [] then b else Option.map (Batch.filter keep) b)
    ~close:(fun () -> Iterator.close child)

(* ------------------------------------------------------------------ *)
(* Hybrid hash join                                                     *)

let operand_side build_scope op =
  let bs = Pred.bindings_of_operand op in
  if bs = [] then `Const
  else if List.for_all (fun b -> List.mem b build_scope) bs then `Build
  else if List.for_all (fun b -> not (List.mem b build_scope)) bs then `Probe
  else `Mixed

(* Split the conjunction into hash-key pairs (build operand, probe
   operand) and residual atoms. *)
let classify_atoms build_scope atoms =
  List.fold_left
    (fun (keys, residual) (a : Pred.atom) ->
      if a.Pred.cmp = Pred.Eq then
        match operand_side build_scope a.Pred.lhs, operand_side build_scope a.Pred.rhs with
        | `Build, `Probe -> ((a.Pred.lhs, a.Pred.rhs) :: keys, residual)
        | `Probe, `Build -> ((a.Pred.rhs, a.Pred.lhs) :: keys, residual)
        | _ -> (keys, a :: residual)
      else (keys, a :: residual))
    ([], []) atoms

(* Bytes a tuple occupies in the join's memory: a fixed header plus each
   materialized object, summed in slot order. *)
let env_bytes store (l : Env.layout) (env : Env.t) =
  let acc = ref 16.0 in
  for i = 0 to Array.length env - 1 do
    if l.Env.objs.(i) && env.(i) != Env.absent then
      acc := !acc +. float_of_int (Store.bytes_of store env.(i).Store.oid)
  done;
  !acc

(* Simulated partitioning pass: write [bytes] to a temp segment and read
   them back, so spills are visible in the disk statistics. *)
let charge_spill store bytes =
  let disk = Store.disk store in
  let pages = int_of_float (Float.ceil (bytes /. float_of_int (Disk.page_size disk))) in
  if pages > 0 then begin
    let seg = Disk.alloc_segment disk ~name:"hashjoin-spill" in
    Disk.extend disk seg pages;
    for p = 0 to pages - 1 do
      Disk.write disk seg p
    done;
    for p = 0 to pages - 1 do
      Disk.read disk seg p
    done
  end

(* Build side of the hash join: the build tuples in build order, their
   key values ([nkeys] per tuple, flattened) and key hashes, chained per
   bucket newest first through [next]. Arrays only: one build tuple adds
   no allocation beyond its key values. *)
type table = {
  envs : Env.t array;
  keys : Value.t array;
  hashes : int array;
  next : int array;
  heads : int array; (* bucket -> newest entry, or -1 *)
}

let empty_table = { envs = [||]; keys = [||]; hashes = [||]; next = [||]; heads = [| -1 |] }

let hash_keys keys base nkeys =
  let h = ref 0 in
  for k = 0 to nkeys - 1 do
    h := (!h * 65599) + Value.hash keys.(base + k)
  done;
  !h

let hash_join db (cfg : Config.t) atoms ~build ~probe =
  let store = Db.store db in
  let batch_size = max 1 cfg.Config.batch_size in
  let bl = Iterator.layout build and pl = Iterator.layout probe in
  let layout = Env.append bl pl in
  let keys, residual = classify_atoms (Env.bindings bl) atoms in
  let build_key = Array.of_list (List.map (fun (b, _) -> Eval.operand bl b) keys) in
  let probe_key = Array.of_list (List.map (fun (_, p) -> Eval.operand pl p) keys) in
  let nkeys = Array.length build_key in
  let residual = Eval.pred layout residual in
  let table = ref empty_table in
  let pkey = Array.make nkeys Value.Null in
  let out = queue () in
  let probe_open = ref false in
  let probe_next = ref (fun () -> None) in
  let open_ () =
    q_clear out;
    probe_open := false;
    let envs = Iterator.to_array build in
    let n = Array.length envs in
    let buckets = ref 16 in
    while !buckets < 2 * n do
      buckets := 2 * !buckets
    done;
    let t =
      { envs;
        keys = Array.make (n * nkeys) Value.Null;
        hashes = Array.make n 0;
        next = Array.make n (-1);
        heads = Array.make !buckets (-1) }
    in
    let mask = !buckets - 1 in
    let build_bytes = ref 0.0 in
    for i = 0 to n - 1 do
      build_bytes := !build_bytes +. env_bytes store bl envs.(i);
      for k = 0 to nkeys - 1 do
        t.keys.((i * nkeys) + k) <- build_key.(k) envs.(i)
      done;
      let h = hash_keys t.keys (i * nkeys) nkeys in
      t.hashes.(i) <- h;
      (* newest first: matches come out in reverse build order *)
      t.next.(i) <- t.heads.(h land mask);
      t.heads.(h land mask) <- i
    done;
    table := t;
    let spilled = !build_bytes > float_of_int cfg.Config.memory_bytes in
    if spilled then begin
      charge_spill store !build_bytes;
      (* both sides take the extra partitioning pass *)
      let envs = Iterator.to_array probe in
      let bytes = Array.fold_left (fun acc e -> acc +. env_bytes store pl e) 0.0 envs in
      charge_spill store bytes;
      let pos = ref 0 in
      probe_next :=
        fun () ->
          let n = min batch_size (Array.length envs - !pos) in
          if n <= 0 then None
          else begin
            let b = Batch.of_array (Array.sub envs !pos n) in
            pos := !pos + n;
            Some b
          end
    end
    else
      probe_next :=
        fun () ->
          if not !probe_open then begin
            Iterator.open_ probe;
            probe_open := true
          end;
          Iterator.next_batch probe
  in
  let rec same_key t base k =
    k >= nkeys || (Value.equal t.keys.(base + k) pkey.(k) && same_key t base (k + 1))
  in
  let match_probe penv =
    let t = !table in
    for k = 0 to nkeys - 1 do
      pkey.(k) <- probe_key.(k) penv
    done;
    let h = hash_keys pkey 0 nkeys in
    let j = ref t.heads.(h land (Array.length t.heads - 1)) in
    while !j >= 0 do
      let i = !j in
      (* re-check key values (hash collisions) and residual *)
      if t.hashes.(i) = h && same_key t (i * nkeys) 0 then begin
        let merged = Env.merge t.envs.(i) penv in
        if residual merged then q_push out merged
      end;
      j := t.next.(i)
    done
  in
  let pull () =
    match !probe_next () with
    | None -> false
    | Some pbatch ->
      Batch.iter match_probe pbatch;
      true
  in
  let close () =
    q_clear out;
    table := empty_table;
    probe_next := (fun () -> None);
    if !probe_open then begin
      probe_open := false;
      Iterator.close probe
    end
  in
  Iterator.make_batched ~layout ~open_ ~close ~next_batch:(fun () ->
      next_queued out ~batch_size pull)

(* ------------------------------------------------------------------ *)
(* Merge join over sorted inputs                                        *)

let merge_join ~key_l ~key_r ~residual ~batch_size ~left ~right =
  let ll = Iterator.layout left and rl = Iterator.layout right in
  let layout = Env.append ll rl in
  let kl = Eval.operand ll key_l and kr = Eval.operand rl key_r in
  let residual = Eval.pred layout residual in
  Iterator.of_array_thunk ~layout ~batch_size (fun () ->
      let ls = Iterator.to_array left in
      let rs = Iterator.to_array right in
      let out = queue () in
      let i = ref 0 and j = ref 0 in
      let nl = Array.length ls and nr = Array.length rs in
      while !i < nl && !j < nr do
        let c = Value.compare (kl ls.(!i)) (kr rs.(!j)) in
        if c < 0 then incr i
        else if c > 0 then incr j
        else begin
          (* emit the cross product of the two equal-key blocks *)
          let key = kl ls.(!i) in
          let i0 = !i and j0 = !j in
          while !i < nl && Value.equal (kl ls.(!i)) key do
            incr i
          done;
          while !j < nr && Value.equal (kr rs.(!j)) key do
            incr j
          done;
          for a = i0 to !i - 1 do
            for b = j0 to !j - 1 do
              let merged = Env.merge ls.(a) rs.(b) in
              if residual merged then q_push out merged
            done
          done
        end
      done;
      Array.sub out.buf out.head (out.tail - out.head))

(* ------------------------------------------------------------------ *)

let pointer_join db ~src ~field ~out ~residual child =
  let store = Db.store db in
  let cl = Iterator.layout child in
  let layout = Env.append cl (single out ~obj:true) in
  let target = target cl src field in
  let keep = Eval.pred layout residual in
  Iterator.make_batched ~layout
    ~open_:(fun () -> Iterator.open_ child)
    ~next_batch:(fun () ->
      match Iterator.next_batch child with
      | None -> None
      | Some b ->
        (* Dereference the batch's references in order; tuples with Null
           references are dropped. *)
        let q = queue () in
        Batch.iter
          (fun env ->
            let oid = target env in
            if oid <> no_ref then q_push q (Env.extend env (Store.fetch store oid)))
          b;
        let b = Batch.of_array (Array.sub q.buf 0 q.tail) in
        Some (if residual = [] then b else Batch.filter keep b))
    ~close:(fun () -> Iterator.close child)

(* ------------------------------------------------------------------ *)
(* Assembly: windowed, elevator-ordered dereferencing                   *)

(* Marks a window position whose tuple a path dropped (Null reference). *)
let dropped : Env.t = [| Env.absent |]

(* One path of an assembly, resolved against the layout the previous
   paths leave: the OID to fetch, and how the fetched object enters the
   tuple (in place of a binding already there, or as a new last slot). *)
type step = { s_target : Env.t -> Value.oid; s_place : Env.t -> Store.obj -> Env.t }

let resolve_path store step (window : Env.t array) =
  let n = Array.length window in
  let oids = Array.make n no_ref in
  let order = ref [] in
  for i = n - 1 downto 0 do
    if window.(i) != dropped then begin
      let oid = step.s_target window.(i) in
      oids.(i) <- oid;
      if oid <> no_ref then order := i :: !order
    end
  done;
  (* Elevator: fetch in physical (segment, page) order. *)
  let order = Array.of_list !order in
  if Array.length order > 1 then begin
    let seg = Array.make n 0 and page = Array.make n 0 in
    Array.iter
      (fun i ->
        seg.(i) <- Store.segment_id store oids.(i);
        page.(i) <- Store.first_page_of store oids.(i))
      order;
    Array.stable_sort
      (fun a b ->
        let c = Int.compare seg.(a) seg.(b) in
        if c <> 0 then c else Int.compare page.(a) page.(b))
      order
  end;
  let objs = Array.make n Env.absent in
  Array.iter (fun i -> objs.(i) <- Store.fetch store oids.(i)) order;
  Array.mapi
    (fun i env -> if objs.(i) == Env.absent then dropped else step.s_place env objs.(i))
    window

let assembly db ~paths ~window ?(warm = None) child =
  let store = Db.store db in
  let window = max 1 window in
  let layout, steps =
    List.fold_left
      (fun (l, steps) (p : Physical.assembly_path) ->
        let s_target = target l p.Physical.ap_src p.Physical.ap_field in
        let i = Env.index l p.Physical.ap_out in
        if i >= 0 then
          (* a bare reference already holds the object's record *)
          let s_place (env : Env.t) o =
            if env.(i) == o then env
            else begin
              let e = Array.copy env in
              e.(i) <- o;
              e
            end
          in
          ( { l with Env.objs = Array.mapi (fun k m -> m || k = i) l.Env.objs },
            { s_target; s_place } :: steps )
        else
          ( Env.append l (single p.Physical.ap_out ~obj:true),
            { s_target; s_place = Env.extend } :: steps ))
      (Iterator.layout child, []) paths
  in
  let steps = List.rev steps in
  let exhausted = ref false in
  (* The child batch being cut into windows, and the next tuple in it. *)
  let cur = ref Batch.empty and pos = ref 0 in
  Iterator.make_batched ~layout
    ~open_:(fun () ->
      exhausted := false;
      cur := Batch.empty;
      pos := 0;
      (* warm start (paper Lesson 7): stream the referenced collection
         into the buffer pool before assembling, so the per-reference
         faults below become hits *)
      (match warm with
      | Some coll -> Store.scan store ~coll (fun _ -> ())
      | None -> ());
      Iterator.open_ child)
    ~next_batch:(fun () ->
      if !exhausted then None
      else begin
        let w = Array.make window dropped in
        let n = ref 0 in
        while (not !exhausted) && !n < window do
          if !pos < Batch.length !cur then begin
            w.(!n) <- Batch.get !cur !pos;
            incr pos;
            incr n
          end
          else
            match Iterator.next_batch child with
            | None -> exhausted := true
            | Some b ->
              cur := b;
              pos := 0
        done;
        if !n = 0 then None
        else begin
          let w = List.fold_left (fun w s -> resolve_path store s w) (Array.sub w 0 !n) steps in
          (* one output batch per assembly window *)
          Some (Batch.filter (fun env -> env != dropped) (Batch.of_array w))
        end
      end)
    ~close:(fun () ->
      cur := Batch.empty;
      Iterator.close child)

(* ------------------------------------------------------------------ *)

let alg_project ps child =
  let cl = Iterator.layout child in
  let used =
    List.concat_map (fun (p : Logical.proj) -> Pred.bindings_of_operand p.Logical.p_expr) ps
  in
  let kept =
    List.init (Array.length cl.Env.names) Fun.id
    |> List.filter (fun i -> List.mem cl.Env.names.(i) used)
    |> Array.of_list
  in
  let layout =
    { Env.names = Array.map (fun i -> cl.Env.names.(i)) kept;
      objs = Array.map (fun i -> cl.Env.objs.(i)) kept }
  in
  let narrow =
    if Array.length kept = Array.length cl.Env.names then None
    else Some (fun (env : Env.t) -> Array.map (fun i -> env.(i)) kept)
  in
  Iterator.make_batched ~layout
    ~open_:(fun () -> Iterator.open_ child)
    ~next_batch:(fun () ->
      match narrow with
      | None -> Iterator.next_batch child
      | Some f -> Option.map (Batch.map f) (Iterator.next_batch child))
    ~close:(fun () -> Iterator.close child)

let alg_unnest db ~src ~field ~out ~batch_size child =
  let store = Db.store db in
  let batch_size = max 1 batch_size in
  let cl = Iterator.layout child in
  let layout = Env.append cl (single out ~obj:false) in
  let obj = Env.obj cl src in
  let q = queue () in
  (* Same accumulation as the hash join: expansions of successive child
     batches coalesce into full output batches. *)
  let expand env =
    let elements =
      match Store.field (obj env) field with
      | v -> Value.set_elements v
      | exception Not_found -> []
    in
    List.iter
      (function Value.Ref oid -> q_push q (Env.extend env (Env.reference store oid)) | _ -> ())
      elements
  in
  let pull () =
    match Iterator.next_batch child with
    | None -> false
    | Some b ->
      Batch.iter expand b;
      true
  in
  Iterator.make_batched ~layout
    ~open_:(fun () ->
      q_clear q;
      Iterator.open_ child)
    ~next_batch:(fun () -> next_queued q ~batch_size pull)
    ~close:(fun () ->
      q_clear q;
      Iterator.close child)

(* ------------------------------------------------------------------ *)
(* Set operations (by tuple identity: the OIDs of all bindings).
   The two inputs of a set operation are free to join in different
   orders, so the key lists OIDs in the order of the sorted binding
   names — canonical across branches. *)

let identity_key (l : Env.layout) =
  let order =
    List.init (Array.length l.Env.names) Fun.id
    |> List.stable_sort (fun i j -> compare l.Env.names.(i) l.Env.names.(j))
    |> Array.of_list
  in
  fun (env : Env.t) -> Array.map (fun i -> env.(i).Store.oid) order

(* Tuples of [right] re-slotted into [left]'s layout, so the set
   operation has one output layout; a slot is materialized in it when
   it is in both inputs. *)
let conform (ll : Env.layout) (rl : Env.layout) =
  let perm = Array.map (fun b -> Env.index rl b) ll.Env.names in
  let layout =
    { ll with
      Env.objs =
        Array.mapi (fun i o -> o && (perm.(i) < 0 || rl.Env.objs.(perm.(i)))) ll.Env.objs }
  in
  let identity = perm = Array.init (Array.length rl.Env.names) Fun.id in
  let f (env : Env.t) = Array.map (fun j -> if j < 0 then Env.absent else env.(j)) perm in
  (layout, if identity then Fun.id else f)

let hash_union ~batch_size left right =
  let ll = Iterator.layout left and rl = Iterator.layout right in
  let layout, conform_right = conform ll rl in
  let key_l = identity_key ll and key_r = identity_key rl in
  Iterator.of_array_thunk ~layout ~batch_size (fun () ->
      let seen = Hashtbl.create 64 in
      let out = queue () in
      (* keyed in the input's own layout, emitted in the output's *)
      let emit key conform env =
        let k = key env in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          q_push out (conform env)
        end
      in
      Array.iter (emit key_l Fun.id) (Iterator.to_array left);
      Array.iter (emit key_r conform_right) (Iterator.to_array right);
      Array.sub out.buf 0 out.tail)

(* Left tuples whose identity is (intersect) or is not (difference) in
   [right], first occurrences only. The right input is drained first. *)
let hash_filter_by_right ~member ~batch_size left right =
  let ll = Iterator.layout left in
  let key_l = identity_key ll and key_r = identity_key (Iterator.layout right) in
  Iterator.of_array_thunk ~layout:ll ~batch_size (fun () ->
      let rights = Hashtbl.create 64 in
      Array.iter (fun env -> Hashtbl.replace rights (key_r env) ()) (Iterator.to_array right);
      let seen = Hashtbl.create 64 in
      let out = queue () in
      Array.iter
        (fun env ->
          let k = key_l env in
          if Hashtbl.mem rights k = member && not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            q_push out env
          end)
        (Iterator.to_array left);
      Array.sub out.buf 0 out.tail)

let hash_intersect ~batch_size left right =
  hash_filter_by_right ~member:true ~batch_size left right

let hash_difference ~batch_size left right =
  hash_filter_by_right ~member:false ~batch_size left right

let sort (o : Open_oodb.Physprop.order) ~batch_size child =
  let cl = Iterator.layout child in
  let b = o.Open_oodb.Physprop.ord_binding in
  let key =
    match o.Open_oodb.Physprop.ord_field with
    | Some f -> Eval.operand cl (Pred.Field (b, f))
    | None -> Eval.operand cl (Pred.Self b)
  in
  Iterator.of_array_thunk ~layout:cl ~batch_size (fun () ->
      let envs = Iterator.to_array child in
      if Array.length envs < 2 then envs
      else begin
        let keys = Array.map key envs in
        let order = Array.init (Array.length envs) Fun.id in
        Array.stable_sort (fun i j -> Value.compare keys.(i) keys.(j)) order;
        Array.map (fun i -> envs.(i)) order
      end)
