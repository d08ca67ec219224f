(* Nearest-rank percentiles, and the rule that a reported percentile
   must have at least [tail] samples above it. *)

(* 1-based rank of the [pct]th percentile of [n] samples:
   ceil (pct * n / 100), at least 1. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

(* Samples strictly after the percentile's position in sorted order. *)
let above ~pct n = if n = 0 then 0 else n - rank ~pct n

let percentile ~pct sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Rank.percentile: no samples";
  sorted.(rank ~pct n - 1)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile ~pct:50 a
