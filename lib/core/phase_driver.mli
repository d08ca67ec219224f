(** The phase schedule of Algorithm 3, one phase per candidate pair
    [(T, F)], in batch and reactive form; Algorithm 1 is its [t = 0]
    schedule. Each phase floods the current states (step (a)), then
    applies steps (b)–(c) ({!Phase.update}) at every honest node. *)

type schedule = (Lbc_graph.Nodeset.t * Lbc_graph.Nodeset.t) array

val schedule : g:Lbc_graph.Graph.t -> f:int -> t:int -> schedule
(** The pairs [(T, F)] in execution order: every [T ⊆ V] with [|T| ≤ t],
    then every [F ⊆ V − T] with [|F| ≤ f − |T|], smallest sets first. *)

val proc :
  g:Lbc_graph.Graph.t ->
  f:int ->
  schedule:schedule ->
  me:int ->
  input:Bit.t ->
  (Bit.t Lbc_flood.Flood.wire, Bit.t) Lbc_sim.Engine.proc
(** Node [me]'s state machine: phase [p] occupies global rounds
    [p·n .. p·n + n − 1]. One proc per node under {!Lbc_sim.Engine.run}
    is equivalent to {!run}; the output is meaningful only after all
    [Array.length schedule × n] rounds. *)

type phase_observation = {
  phase_idx : int;
  cap_f : Lbc_graph.Nodeset.t;  (** the phase's candidate fault set F *)
  stores : Bit.t Lbc_flood.Flood.store option array;
      (** honest nodes' flood stores after step (a); [None] for faulty *)
  before : Bit.t array;  (** states at the start of the phase *)
  after : Bit.t array;  (** states after step (c) *)
}
(** One phase as a white-box observer sees it. The arrays are the
    driver's own and must not be written. *)

val run :
  g:Lbc_graph.Graph.t ->
  f:int ->
  schedule:schedule ->
  model:Lbc_sim.Engine.model ->
  decisive:string ->
  inputs:Bit.t array ->
  faulty:Lbc_graph.Nodeset.t ->
  strategy:(int -> Lbc_adversary.Strategy.kind) ->
  seed:int ->
  observer:(phase_observation -> unit) option ->
  Spec.outcome
(** Run the phases in order, checking the round budget before each.
    Faulty nodes follow [strategy], re-seeded per phase with
    [seed + 1000 × phase index]. Adds [algo.phases] and observes the last
    phase that changed an honest state under the histogram [decisive]. *)
