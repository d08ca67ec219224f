(* The result-cache split of the traced run's storage replay: the scratch
   cache is first given every third scenario, so the lookups that follow
   read one third from the cache and miss (then store) the other two
   thirds. *)

let every = 3
let prefilled i = i mod every = 0

(* Cache hits the lookups should see on a grid of [n] scenarios. *)
let hits n = (n + every - 1) / every
let misses n = n - hits n
