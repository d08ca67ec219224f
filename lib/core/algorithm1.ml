let phases ~g ~f = Lbc_graph.Combi.phase_count ~n:(Lbc_graph.Graph.size g) ~f
let rounds ~g ~f = phases ~g ~f * Lbc_graph.Graph.size g

let proc ~g ~f =
  Phase_driver.proc ~g ~f ~schedule:(Phase_driver.schedule ~g ~f ~t:0)

type phase_observation = Phase_driver.phase_observation = {
  phase_idx : int;
  cap_f : Lbc_graph.Nodeset.t;
  stores : Bit.t Lbc_flood.Flood.store option array;
  before : Bit.t array;
  after : Bit.t array;
}

let run ~g ~f ~inputs ~faulty
    ?(strategy = fun _ -> Lbc_adversary.Strategy.Flip_forwards) ?(seed = 0)
    ?observer () =
  if Array.length inputs <> Lbc_graph.Graph.size g then
    invalid_arg "Algorithm1.run: inputs length mismatch";
  if f < 0 then invalid_arg "Algorithm1.run: negative f";
  Phase_driver.run ~g ~f ~schedule:(Phase_driver.schedule ~g ~f ~t:0)
    ~model:Lbc_sim.Engine.Local_broadcast ~decisive:"a1.decisive_phase" ~inputs
    ~faulty ~strategy ~seed ~observer
