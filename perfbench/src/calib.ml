(* Machine-speed calibration. The benchmark's timings are taken on a
   shared machine whose speed for allocation-heavy code swings by up to 2x
   from one stretch of seconds to the next, while plain integer work
   barely moves. A fixed reference kernel, which runs no library code and
   allocates nothing on the OCaml heap, is timed in short slices between
   scenarios; every measured interval is then scaled by how much slower
   than its reference time the kernel ran around it. A change to the
   library cannot change the kernel's speed, so the scaled times move only
   with the program.

   The kernel writes once, sequentially, through a 16 MiB buffer outside
   the OCaml heap: a stream of stores larger than the caches, as the
   library's allocation is. Of the kernels tried (integer hashing, pointer
   chases, sequential writes through 1 to 16 MiB, small short-lived
   allocations, hash-table building), its speed followed that of
   Algorithm 2 scenarios on Figure 1(b) most closely: over a 150 s
   recording, scenario time in 5 s windows ranged 1.63x (interquartile
   range 0.27 of the median) and its ratio to the kernel's time only 1.21x
   (0.07). *)

let size = 1 lsl 21

let buffer = Bigarray.(Array1.create int c_layout size)

(* The kernel's time for one slice on the machine the benchmark was built
   on (a 2-vCPU Intel Xeon VM) at its fast speed: the 1st percentile of
   the recording above. Scaled times are reported at this speed. *)
let reference_ns = 2_400_000

(* How much of the kernel's slowdown is applied. The kernel does not
   slow in proportion to the program under every kind of load: when the
   load on the memory bus dominates, the kernel slowed 2x while E1
   scenarios slowed 1.3x; under other loads the two moved together. Over
   two sets of ten runs of each workload that saw both kinds of load, the
   exponent 0.8 gave the smallest worst spread of throughput (0.12,
   against 0.21 at 1 and 0.25 with no scaling) and moved the medians
   between the sets by about 1%. *)
let gamma = 0.8

let sink = ref 0

(* One slice of the kernel. *)
let slice () =
  let r = !sink land 0xFF in
  for i = 0 to size - 1 do
    Bigarray.Array1.unsafe_set buffer i (i + r)
  done;
  sink := Bigarray.Array1.unsafe_get buffer (r + 1)

(* {1 Slices taken during a run} *)

(* [tick] takes a slice at most this often. *)
let period_ns = 50_000_000

type t = {
  now_ns : unit -> int;
  mutable at : int array;  (** start of each slice, in time order *)
  mutable took : int array;  (** its length *)
  mutable len : int;
  mutable last : int;  (** end of the latest slice *)
}

let create now_ns =
  { now_ns; at = Array.make 256 0; took = Array.make 256 0; len = 0;
    last = min_int }

let push r t0 d =
  if r.len = Array.length r.at then begin
    let grow a = Array.append a (Array.make r.len 0) in
    r.at <- grow r.at;
    r.took <- grow r.took
  end;
  r.at.(r.len) <- t0;
  r.took.(r.len) <- d;
  r.len <- r.len + 1

(* Take and record a slice now. *)
let force r =
  let t0 = r.now_ns () in
  slice ();
  let t1 = r.now_ns () in
  push r t0 (t1 - t0);
  r.last <- t1

(* Take a slice if none was taken in the last [period_ns]. *)
let tick r = if r.now_ns () - r.last >= period_ns then force r

let slices r = r.len

(* Median of a sorted int array, as a float. *)
let median_sorted w =
  let k = Array.length w in
  if k mod 2 = 1 then float_of_int w.(k / 2)
  else float_of_int (w.((k / 2) - 1) + w.(k / 2)) /. 2.

(* First slice starting at or after [t]. *)
let first_at r t =
  let lo = ref 0 and hi = ref r.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if r.at.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* The speed factor at [t]: [reference_ns] over the median length of the
   [k] slices nearest to [t], to the power [gamma]. A scaled time is a
   measured time multiplied by it. *)
let factor ?(k = 9) r t =
  let n = r.len in
  if n = 0 then invalid_arg "Calib.factor: no slices";
  let k = min k n in
  let l = ref (first_at r t) in
  let rt = ref !l in
  (* grow the window [l, rt) to k slices, taking the nearer side first *)
  while !rt - !l < k do
    if !l = 0 then incr rt
    else if !rt = n then decr l
    else if t - r.at.(!l - 1) <= r.at.(!rt) - t then decr l
    else incr rt
  done;
  let w = Array.sub r.took !l k in
  Array.sort Int.compare w;
  (float_of_int reference_ns /. median_sorted w) ** gamma

(* The interval [start, stop) less the slices taken inside it, scaled
   piece by piece between slices, in ns. *)
let scaled_ns r ~start ~stop =
  let scaled = ref 0. in
  let piece a b =
    if b > a then
      scaled := !scaled +. (float_of_int (b - a) *. factor r ((a + b) / 2))
  in
  let i = ref (first_at r start) and from = ref start in
  while !i < r.len && r.at.(!i) < stop do
    piece !from r.at.(!i);
    from := r.at.(!i) + r.took.(!i);
    incr i
  done;
  piece !from stop;
  !scaled
