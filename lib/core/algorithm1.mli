(** Algorithm 1: exact Byzantine consensus under the local broadcast model
    (Theorem 5.1).

    The algorithm runs one {e phase} per candidate fault set [F ⊆ V],
    [|F| ≤ f], in a fixed deterministic order. Each phase floods every
    node's current binary state with path annotations (step (a)),
    re-estimates who flooded what along [F]-excluding paths (step (b)),
    and conditionally overwrites the state with a value received along
    [f + 1] node-disjoint [A_v v]-paths (step (c)). After all phases the
    state is the output. This is {!Algorithm3} with [t = 0]: the
    {!Phase_driver} schedule under {!Lbc_sim.Engine.Local_broadcast}.

    Correct (agreement + validity + termination) whenever the graph has
    minimum degree ≥ 2f and connectivity ≥ ⌊3f/2⌋ + 1
    ({!Lbc_graph.Conditions.lbc_feasible}), for any placement of at most
    [f] Byzantine nodes and any broadcast-bound strategy. Runs
    [Σ_{k≤f} C(n,k)] phases of [n] rounds each — exponential in [f]; see
    {!Algorithm2} for the O(n) algorithm on 2f-connected graphs. *)

val phases : g:Lbc_graph.Graph.t -> f:int -> int
(** Number of phases the algorithm executes on [g]. *)

val rounds : g:Lbc_graph.Graph.t -> f:int -> int
(** Total synchronous rounds: [phases × size g]. *)

val proc :
  g:Lbc_graph.Graph.t ->
  f:int ->
  me:int ->
  input:Bit.t ->
  (Bit.t Lbc_flood.Flood.wire, Bit.t) Lbc_sim.Engine.proc
(** {!Phase_driver.proc} over [rounds ~g ~f] rounds; it also runs
    unmodified on the directed gadget networks of the necessity proofs
    ({!Lbc_lowerbound}). *)

type phase_observation = Phase_driver.phase_observation = {
  phase_idx : int;
  cap_f : Lbc_graph.Nodeset.t;
  stores : Bit.t Lbc_flood.Flood.store option array;
  before : Bit.t array;
  after : Bit.t array;
}
(** {!Phase_driver.phase_observation}, re-exported for the lemma-level
    property tests and the ablation benchmarks. *)

val run :
  g:Lbc_graph.Graph.t ->
  f:int ->
  inputs:Bit.t array ->
  faulty:Lbc_graph.Nodeset.t ->
  ?strategy:(int -> Lbc_adversary.Strategy.kind) ->
  ?seed:int ->
  ?observer:(phase_observation -> unit) ->
  unit ->
  Spec.outcome
(** Execute the algorithm on [g] with fault budget [f]. [inputs] assigns
    a binary input to every node (length [size g]); nodes in [faulty] are
    adversary-controlled and follow [strategy] (default
    {!Lbc_adversary.Strategy.Flip_forwards}), re-instantiated each phase.
    [seed] (default 0) drives the randomised strategies.

    The caller may pass an infeasible graph or more than [f] faults — the
    run still terminates; the outcome then simply may violate agreement
    or validity (this is how the necessity experiments use it).
    @raise Invalid_argument if [inputs] has the wrong length or [f < 0]. *)
