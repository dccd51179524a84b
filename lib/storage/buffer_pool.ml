(* Classic O(1) LRU over numbered frames. A page's frame is found by
   indexing: segment id, then page number (segments are numbered densely
   from 0 and their pages from 0). The frames form an intrusive circular
   doubly-linked list through [prev]/[next], ordered most- to
   least-recently used after the sentinel frame 0. Frames [1..count] are
   in use; the frame arrays grow by doubling up to the capacity. *)

type stats = { hits : int; misses : int; evictions : int }

type t = {
  disk : Disk.t;
  cap : int;
  mutable map : int array array; (* segment id -> page -> frame, 0 when not resident *)
  mutable prev : int array;
  mutable next : int array;
  mutable frame_seg : int array;
  mutable frame_page : int array;
  mutable count : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create disk ~capacity_pages =
  if capacity_pages <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  { disk;
    cap = capacity_pages;
    map = [||];
    prev = [| 0 |];
    next = [| 0 |];
    frame_seg = [| -1 |];
    frame_page = [| -1 |];
    count = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

let capacity t = t.cap

let resident t = t.count

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let frame t seg page =
  let sid = Disk.segment_id seg in
  if sid < Array.length t.map && page < Array.length t.map.(sid) then t.map.(sid).(page) else 0

let set_frame t seg page f =
  let sid = Disk.segment_id seg in
  if sid >= Array.length t.map then t.map <- grow t.map (max (sid + 1) (2 * Array.length t.map)) [||];
  let m = t.map.(sid) in
  if page >= Array.length m then
    t.map.(sid) <- grow m (max (page + 1) (max 64 (2 * Array.length m))) 0;
  t.map.(sid).(page) <- f

let unlink t f =
  t.next.(t.prev.(f)) <- t.next.(f);
  t.prev.(t.next.(f)) <- t.prev.(f)

let push_front t f =
  t.prev.(f) <- 0;
  t.next.(f) <- t.next.(0);
  t.prev.(t.next.(0)) <- f;
  t.next.(0) <- f

(* A frame for a page about to be read: the next unused one, or the
   least recently used one, evicted. *)
let free_frame t =
  if t.count >= t.cap then begin
    let victim = t.prev.(0) in
    unlink t victim;
    t.map.(t.frame_seg.(victim)).(t.frame_page.(victim)) <- 0;
    t.evictions <- t.evictions + 1;
    victim
  end
  else begin
    t.count <- t.count + 1;
    let f = t.count in
    if f >= Array.length t.prev then begin
      let n = min (t.cap + 1) (max 16 (2 * f)) in
      t.prev <- grow t.prev n 0;
      t.next <- grow t.next n 0;
      t.frame_seg <- grow t.frame_seg n (-1);
      t.frame_page <- grow t.frame_page n (-1)
    end;
    f
  end

let read t seg page =
  match frame t seg page with
  | 0 ->
    t.misses <- t.misses + 1;
    Disk.read t.disk seg page;
    let f = free_frame t in
    t.frame_seg.(f) <- Disk.segment_id seg;
    t.frame_page.(f) <- page;
    set_frame t seg page f;
    push_front t f
  | f ->
    t.hits <- t.hits + 1;
    unlink t f;
    push_front t f

let contains t seg page = frame t seg page > 0

let flush t =
  for f = 1 to t.count do
    t.map.(t.frame_seg.(f)).(t.frame_page.(f)) <- 0
  done;
  t.prev.(0) <- 0;
  t.next.(0) <- 0;
  t.count <- 0

let stats t = { hits = t.hits; misses = t.misses; evictions = t.evictions }

let sub (a : stats) (b : stats) =
  { hits = a.hits - b.hits; misses = a.misses - b.misses; evictions = a.evictions - b.evictions }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
