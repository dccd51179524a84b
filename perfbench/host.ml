(* Host-speed reference.

   On the shared host this benchmark was built on, identical work takes
   up to 50% more or less CPU time from one minute to the next: other
   tenants contend for the same cores and caches. Raw CPU times of runs
   a few minutes apart therefore cannot be compared. A fixed kernel
   owned by the benchmark runs between queries and measures that drift;
   timings are reported scaled by [reference_ms / kernel time], i.e. as
   CPU time on a host where one kernel round takes [reference_ms].

   The kernel probes an open-addressing hash table, binary-searches a
   sorted array and copies a 2 MB block. Its data lives outside the
   OCaml heap (Bigarray) and it allocates nothing, so it neither sees
   nor changes the program's heap and collector: with 2 MB of ordinary
   heap data instead, the peak heap of the [joins] workload went from
   31 MB to 131 MB. *)

module A = Bigarray.Array1

let reference_ms = 12.0

let ints len v =
  let a = A.create Bigarray.int Bigarray.c_layout len in
  A.fill a v;
  a

let n = 20_000

let slots = 1 lsl 16

let mix x = (x * 0x9E3779B1) land max_int

let table =
  let t = ints slots (-1) in
  for i = 0 to n - 1 do
    let k = i * 7919 in
    let j = ref (mix k land (slots - 1)) in
    while A.get t !j >= 0 do
      j := (!j + 1) land (slots - 1)
    done;
    A.set t !j k
  done;
  t

let sorted =
  let a = ints n 0 in
  for i = 0 to n - 1 do
    A.set a i (i * 104729)
  done;
  a

let src = ints (1 lsl 18) 1

let dst = ints (1 lsl 18) 0

let find k =
  let j = ref (mix k land (slots - 1)) in
  while A.get table !j <> k && A.get table !j >= 0 do
    j := (!j + 1) land (slots - 1)
  done;
  !j

let search k =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if A.get sorted mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

let round () =
  let acc = ref 0 in
  for r = 0 to 2 do
    A.blit src dst;
    for i = 0 to n - 1 do
      acc := !acc + find (i * 7919) + search ((i + r) * 104729 mod (n * 104729))
    done
  done;
  !acc

(* One kernel round's CPU time, in ms. *)
let sample () =
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (round ()));
  (Sys.time () -. t0) *. 1000.0

(* The factor that scales CPU times measured alongside these samples. *)
let factor samples = reference_ms /. Stats.median samples
