type obj = {
  oid : Value.oid;
  cls : string;
  coll : string;
  fields : (string * Value.t) array;
}

type coll_info = {
  c_name : string;
  c_cls : string;
  c_obj_bytes : int;
  c_seg : Disk.segment;
  c_per_page : int;       (* objects per page; 1 when objects span pages *)
  c_pages_per_obj : int;  (* pages per object; 1 when objects share pages *)
  mutable c_members : obj array; (* slot order; the first [c_count] are live *)
  mutable c_count : int;
}

(* Objects are addressed by dense OIDs (issued from 1 in insertion
   order), so every per-OID table is a plain array indexed by OID, grown
   by doubling: no hashing on the fetch path. *)
type t = {
  disk : Disk.t;
  buffer : Buffer_pool.t;
  colls : (string, coll_info) Hashtbl.t;
  (* Indexed by OID; entries at or past [next_oid] (and at 0) are unused. *)
  mutable objects : obj array;
  mutable owner : coll_info array;
  mutable slot : int array; (* slot index within the owning collection *)
  mutable next_oid : Value.oid;
}

let no_obj = { oid = 0; cls = ""; coll = ""; fields = [||] }

(* Double [a] until it has room for index [i]. *)
let grow a i fill =
  let n = Array.length a in
  if i < n then a
  else begin
    let b = Array.make (max 8 (max (i + 1) (2 * n))) fill in
    Array.blit a 0 b 0 n;
    b
  end

let create ?(page_size = 4096) ?(buffer_pages = 2048) () =
  let disk = Disk.create ~page_size () in
  { disk;
    buffer = Buffer_pool.create disk ~capacity_pages:buffer_pages;
    colls = Hashtbl.create 32;
    objects = [||];
    owner = [||];
    slot = [||];
    next_oid = 1 }

let disk t = t.disk

let buffer t = t.buffer

let declare_collection t ~name ~cls ~obj_bytes =
  if obj_bytes <= 0 then invalid_arg "Store.declare_collection: obj_bytes must be positive";
  if Hashtbl.mem t.colls name then
    invalid_arg (Printf.sprintf "Store.declare_collection: duplicate collection %s" name);
  let psize = Disk.page_size t.disk in
  let per_page = max 1 (psize / obj_bytes) in
  let pages_per_obj = if obj_bytes <= psize then 1 else (obj_bytes + psize - 1) / psize in
  Hashtbl.add t.colls name
    { c_name = name;
      c_cls = cls;
      c_obj_bytes = obj_bytes;
      c_seg = Disk.alloc_segment t.disk ~name;
      c_per_page = per_page;
      c_pages_per_obj = pages_per_obj;
      c_members = [||];
      c_count = 0 }

let get_coll t name =
  match Hashtbl.find_opt t.colls name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Store: unknown collection %s" name)

(* First page index of the object in slot [i]. *)
let first_page c i = if c.c_pages_per_obj > 1 then i * c.c_pages_per_obj else i / c.c_per_page

let last_page_needed c count =
  if count = 0 then 0 else first_page c (count - 1) + c.c_pages_per_obj

let insert t ~coll fields =
  let c = get_coll t coll in
  let oid = t.next_oid in
  t.next_oid <- oid + 1;
  let slot = c.c_count in
  c.c_count <- slot + 1;
  let needed = last_page_needed c c.c_count in
  let have = Disk.segment_pages c.c_seg in
  if needed > have then Disk.extend t.disk c.c_seg (needed - have);
  let obj = { oid; cls = c.c_cls; coll; fields = Array.of_list fields } in
  c.c_members <- grow c.c_members slot no_obj;
  c.c_members.(slot) <- obj;
  t.objects <- grow t.objects oid no_obj;
  t.owner <- grow t.owner oid c;
  t.slot <- grow t.slot oid 0;
  t.objects.(oid) <- obj;
  t.owner.(oid) <- c;
  t.slot.(oid) <- slot;
  oid

let check_oid t oid = if oid < 1 || oid >= t.next_oid then raise Not_found

let peek t oid =
  check_oid t oid;
  t.objects.(oid)

let set_field t oid name v =
  let o = peek t oid in
  let rec go i =
    if i >= Array.length o.fields then
      invalid_arg (Printf.sprintf "Store.set_field: object %d has no field %s" oid name)
    else if String.equal (fst o.fields.(i)) name then o.fields.(i) <- (name, v)
    else go (i + 1)
  in
  go 0

let fetch t oid =
  let o = peek t oid in
  let c = t.owner.(oid) in
  let page0 = first_page c t.slot.(oid) in
  for p = page0 to page0 + c.c_pages_per_obj - 1 do
    Buffer_pool.read t.buffer c.c_seg p
  done;
  o

let field o name =
  let rec go i =
    if i >= Array.length o.fields then raise Not_found
    else if String.equal (fst o.fields.(i)) name then snd o.fields.(i)
    else go (i + 1)
  in
  go 0

let oids t ~coll =
  let c = get_coll t coll in
  List.init c.c_count (fun i -> c.c_members.(i).oid)

let scan_batch t ~coll ~pos ~n =
  if pos < 0 then invalid_arg "Store.scan_batch: negative position";
  if n < 1 then invalid_arg "Store.scan_batch: batch size must be >= 1";
  let c = get_coll t coll in
  let count = c.c_count in
  if pos >= count then [||]
  else begin
    let stop = min count (pos + n) in
    (* One buffer-pool interaction per page the slot range spans — the
       page-granular counterpart of per-object [fetch]. With n = 1 the
       charges are exactly [fetch]'s. *)
    let last = first_page c (stop - 1) + c.c_pages_per_obj - 1 in
    for p = first_page c pos to last do
      Buffer_pool.read t.buffer c.c_seg p
    done;
    Array.sub c.c_members pos (stop - pos)
  end

let scan t ~coll f =
  let c = get_coll t coll in
  let n = c.c_count in
  let pages = last_page_needed c n in
  (* Charge pages as we cross page boundaries, in physical order. *)
  let next_page = ref 0 in
  for i = 0 to n - 1 do
    let p_end = first_page c i + c.c_pages_per_obj in
    while !next_page < p_end && !next_page < pages do
      Buffer_pool.read t.buffer c.c_seg !next_page;
      incr next_page
    done;
    f c.c_members.(i)
  done

let cardinality t ~coll = (get_coll t coll).c_count

let segment t ~coll = (get_coll t coll).c_seg

let segment_id t oid =
  check_oid t oid;
  Disk.segment_id t.owner.(oid).c_seg

let first_page_of t oid =
  check_oid t oid;
  first_page t.owner.(oid) t.slot.(oid)

let bytes_of t oid =
  check_oid t oid;
  t.owner.(oid).c_obj_bytes

let class_of t oid = (peek t oid).cls
