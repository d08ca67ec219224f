let phases ~g ~f ~t = Array.length (Phase_driver.schedule ~g ~f ~t)

let proc ~g ~f ~t =
  Phase_driver.proc ~g ~f ~schedule:(Phase_driver.schedule ~g ~f ~t)

let run ~g ~f ~t ~inputs ~faulty ?(equivocators = Lbc_graph.Nodeset.empty)
    ?(strategy = fun _ -> Lbc_adversary.Strategy.Flip_forwards) ?(seed = 0) ()
    =
  if Array.length inputs <> Lbc_graph.Graph.size g then
    invalid_arg "Algorithm3.run: inputs length mismatch";
  if f < 0 || t < 0 || t > f then
    invalid_arg "Algorithm3.run: need 0 <= t <= f";
  Phase_driver.run ~g ~f ~schedule:(Phase_driver.schedule ~g ~f ~t)
    ~model:(Lbc_sim.Engine.Hybrid equivocators) ~decisive:"a3.decisive_phase"
    ~inputs ~faulty ~strategy ~seed ~observer:None
