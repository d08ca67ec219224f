module Nodeset = Lbc_graph.Nodeset
module Engine = Lbc_sim.Engine

type attack = Silent | Equivocate of int | Lie

let attack_of_strategy ~seed : Lbc_adversary.Strategy.kind -> attack =
  function
  | Silent | Crash_at _ -> Silent
  | Equivocate -> Equivocate seed
  | _ -> Lie

(* EIG tree labels are sequences of distinct node ids, root = []. The
   value table maps a label to the value relayed along it. *)
type msg = (int list * Bit.t) list

let rounds ~f = f + 1

let honest_proc ~n ~f ~me ~input : (msg, Bit.t) Engine.proc =
  let table : (int list, Bit.t) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace table [] input;
  let step ~round ~inbox =
    (* Store level-[round] reports: sender j reporting (λ, b) defines
       val(λ · j), provided the label is fresh, of the right length, and
       j does not appear in λ. *)
    List.iter
      (fun (j, reports) ->
        List.iter
          (fun (label, b) ->
            if
              List.length label = round - 1
              && (not (List.mem j label))
              && List.length (List.sort_uniq Int.compare label)
                 = List.length label
              && not (Hashtbl.mem table (label @ [ j ]))
            then Hashtbl.replace table (label @ [ j ]) b)
          reports)
      inbox;
    if round > f then []
    else begin
      (* Reports go on the wire; sort by label (a unique key of [table])
         so the message layout never depends on Hashtbl order. *)
      let reports =
        Hashtbl.fold
          (fun label b acc ->
            if List.length label = round && not (List.mem me label) then
              (label, b) :: acc
            else acc)
          table []
        |> List.sort Lbc_sim.Det.by_fst_int_list
      in
      (* A node does not hear its own broadcast; record its child labels
         directly. *)
      List.iter
        (fun (label, b) -> Hashtbl.replace table (label @ [ me ]) b)
        reports;
      [ reports ]
    end
  in
  let output () =
    let rec resolve label =
      if List.length label = f + 1 then
        Option.value ~default:Bit.default (Hashtbl.find_opt table label)
      else begin
        let children =
          List.filter_map
            (fun j ->
              if List.mem j label then None else Some (resolve (label @ [ j ])))
            (List.init n Fun.id)
        in
        Bit.majority children
      end
    in
    resolve []
  in
  { Engine.step; output }

(* Faulty behaviours: the honest message stream, corrupted. *)
let faulty_step ~n ~f ~me ~input ~attack ~seed : msg Engine.fstep =
  let inner = honest_proc ~n ~f ~me ~input in
  let st = Random.State.make [| seed; me |] in
  fun ~round ~inbox ->
    let outs = inner.Engine.step ~round ~inbox in
    match attack with
    | Silent -> []
    | Lie ->
        List.map
          (fun reports ->
            Engine.Broadcast
              (List.map (fun (l, b) -> (l, Bit.flip b)) reports))
          outs
    | Equivocate _ ->
        List.concat_map
          (fun reports ->
            List.filter_map
              (fun v ->
                if v = me then None
                else
                  Some
                    (* lbclint: disable=M1 this IS the classical point-to-point EIG baseline, run under Engine.Point_to_point to exhibit the equivocation local broadcast forbids *)
                    (Engine.Unicast
                       ( v,
                         List.map
                           (fun (l, b) ->
                             (l, if Random.State.bool st then b else Bit.flip b))
                           reports )))
              (List.init n Fun.id))
          outs

let run ~n ~f ~inputs ~faulty ?(attack = Equivocate 0) ?(seed = 0) () =
  if Array.length inputs <> n then
    invalid_arg "Baseline_eig.run: inputs length mismatch";
  let g = Lbc_graph.Builders.complete n in
  let topo = Engine.topology_of_graph g in
  let roles =
    Array.init n (fun v ->
        if Nodeset.mem v faulty then
          Engine.Faulty (faulty_step ~n ~f ~me:v ~input:inputs.(v) ~attack ~seed)
        else Engine.Honest (honest_proc ~n ~f ~me:v ~input:inputs.(v)))
  in
  let result =
    Engine.run topo ~model:Engine.Point_to_point ~rounds:(rounds ~f + 1) ~roles
  in
  {
    Spec.outputs = result.Engine.outputs;
    faulty;
    inputs;
    rounds = result.Engine.stats.Engine.rounds;
    phases = 1;
    transmissions = result.Engine.stats.Engine.transmissions;
    deliveries = result.Engine.stats.Engine.deliveries;
  }
