module Nodeset = Lbc_graph.Nodeset
module Combi = Lbc_graph.Combi
module Flood = Lbc_flood.Flood
module Engine = Lbc_sim.Engine
module Strategy = Lbc_adversary.Strategy

type schedule = (Nodeset.t * Nodeset.t) array

let schedule ~g ~f ~t =
  let nodes = Lbc_graph.Graph.nodes g in
  Combi.subsets_up_to nodes t
  |> List.concat_map (fun cap_t ->
         let rest = List.filter (fun v -> not (List.mem v cap_t)) nodes in
         let set_t = Nodeset.of_list cap_t in
         List.map
           (fun cap_f -> (set_t, Nodeset.of_list cap_f))
           (Combi.subsets_up_to rest (f - List.length cap_t)))
  |> Array.of_list

(* A phase's steps (b)-(c) run when the next phase starts, or at output
   time. Local round 0's inbox holds only leftovers of the previous phase,
   all on maximal paths the flooding rules discard, so it is dropped. *)
let proc ~g ~f ~schedule ~me ~input : (Bit.t Flood.wire, Bit.t) Engine.proc =
  let n = Lbc_graph.Graph.size g in
  let gamma = ref input in
  let fresh_store () =
    Flood.create g ~me ~vcompare:Bit.compare ~initiate:!gamma ~default:Bit.default ()
  in
  let store = ref (fresh_store ()) in
  let current = ref 0 in
  let finalize () =
    let cap_t, cap_f = schedule.(!current) in
    gamma := Phase.update g ~f ~cap_f ~cap_t ~store:!store ~gamma:!gamma
  in
  let step ~round ~inbox =
    let local = round mod n in
    if local = 0 && round > 0 then begin
      finalize ();
      current := min (round / n) (Array.length schedule - 1);
      store := fresh_store ()
    end;
    let inbox = if local = 0 then [] else inbox in
    (Flood.proc !store).Engine.step ~round:local ~inbox
  in
  let output () =
    finalize ();
    !gamma
  in
  { Engine.step; output }

type phase_observation = {
  phase_idx : int;
  cap_f : Nodeset.t;
  stores : Bit.t Flood.store option array;
  before : Bit.t array;
  after : Bit.t array;
}

(* Each phase maps the states into a fresh array; none is written after. *)
let run ~g ~f ~schedule ~model ~decisive ~inputs ~faulty ~strategy ~seed
    ~observer =
  let n = Lbc_graph.Graph.size g in
  let topo = Engine.topology_of_graph g in
  let rounds = Flood.rounds_needed g in
  let phases = Array.length schedule in
  let gamma = ref (Array.copy inputs) in
  let total_rounds = ref 0 in
  let transmissions = ref 0 in
  let deliveries = ref 0 in
  let last_change = ref 0 in
  for phase_idx = 0 to phases - 1 do
    Engine.check_fuel ();
    let cap_t, cap_f = schedule.(phase_idx) in
    let before = !gamma in
    (* One intern table for the whole flood, shared by every store. *)
    let paths = Lbc_flood.Path_intern.create g in
    let roles =
      Array.init n (fun v ->
          if Nodeset.mem v faulty then
            Engine.Faulty
              (Strategy.fstep ~paths (strategy v) ~g ~me:v ~vcompare:Bit.compare
                 ~input:inputs.(v) ~default:Bit.default ~flip:Bit.flip
                 ~seed:(seed + (1000 * phase_idx)))
          else
            Engine.Honest
              (Flood.proc
                 (Flood.create g ~me:v ~vcompare:Bit.compare
                    ~initiate:before.(v) ~default:Bit.default ~paths ())))
    in
    let result = Engine.run topo ~model ~rounds ~roles in
    let stores = result.Engine.outputs in
    let after =
      Array.mapi
        (fun v state ->
          match stores.(v) with
          | None -> state (* faulty *)
          | Some store ->
              let state' = Phase.update g ~f ~cap_f ~cap_t ~store ~gamma:state in
              if Bit.compare state state' <> 0 then last_change := phase_idx;
              state')
        before
    in
    (match observer with
    | Some observe -> observe { phase_idx; cap_f; stores; before; after }
    | None -> ());
    gamma := after;
    total_rounds := !total_rounds + result.Engine.stats.Engine.rounds;
    transmissions := !transmissions + result.Engine.stats.Engine.transmissions;
    deliveries := !deliveries + result.Engine.stats.Engine.deliveries
  done;
  Lbc_obs.Obs.add "algo.phases" phases;
  Lbc_obs.Obs.observe decisive !last_change;
  {
    Spec.outputs =
      Array.mapi
        (fun v b -> if Nodeset.mem v faulty then None else Some b)
        !gamma;
    faulty;
    inputs;
    rounds = !total_rounds;
    phases;
    transmissions = !transmissions;
    deliveries = !deliveries;
  }
