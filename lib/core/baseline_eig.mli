(** Baseline: exponential-information-gathering (EIG) Byzantine consensus
    under the classical point-to-point model on complete graphs.

    The comparison point quoted in the paper's introduction: under
    point-to-point communication, consensus on a complete graph requires
    [n ≥ 3f + 1] (Pease–Shostak–Lamport). EIG runs [f + 1] rounds; each
    node relays the full information tree level by level and decides by
    recursive majority resolution of its EIG tree.

    Used by the benchmark harness to contrast thresholds and costs with
    the local-broadcast algorithms: on a complete graph the local
    broadcast model needs only [n ≥ 2f + 1]. *)

type attack =
  | Silent  (** faulty nodes send nothing *)
  | Equivocate of int
      (** per-receiver inconsistent values (seeded): the classical
          point-to-point adversary *)
  | Lie  (** consistent wrong values *)

val attack_of_strategy : seed:int -> Lbc_adversary.Strategy.kind -> attack
(** [Silent] and [Crash_at] map to [Silent], [Equivocate] to
    [Equivocate seed], every other kind to [Lie]. Campaigns and
    [lbcast run --algo eig] share it, so repro commands rerun the run. *)

val rounds : f:int -> int
(** [f + 1]. *)

val run :
  n:int ->
  f:int ->
  inputs:Bit.t array ->
  faulty:Lbc_graph.Nodeset.t ->
  ?attack:attack ->
  ?seed:int ->
  unit ->
  Spec.outcome
(** Execute EIG on the complete graph K_n under the point-to-point model.
    Correct iff [n ≥ 3f + 1] and at most [f] nodes are faulty. *)
