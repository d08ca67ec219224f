(* The traced run's layer replays. Each scenario the runner executed is
   run again, directly through the public functions of each layer, with a
   span around every call: [Scenario.execute_observed] (what the runner
   calls), the algorithm itself, Algorithm 2's attribution and discovery
   per honest node, and a flood replay of step (a) through [Engine.run]
   over [Flood.proc] with every honest [step] wrapped. Every replay is
   checked against the run it repeats. *)

open Perfbench_lib
module Sc = Lbc_campaign.Scenario
module Cache = Lbc_campaign.Cache
module Journal = Lbc_campaign.Journal
module Grid = Lbc_campaign.Grid
module Engine = Lbc_sim.Engine
module Flood = Lbc_flood.Flood
module Bit = Lbc_consensus.Bit
module A1 = Lbc_consensus.Algorithm1
module A2 = Lbc_consensus.Algorithm2
module Obs = Lbc_obs.Obs
module S = Lbc_adversary.Strategy
module Nodeset = Lbc_graph.Nodeset

type acc = {
  mutable problems : string list;
  mutable scenarios : int;  (** scenarios replayed *)
  mutable exec_counters : (string * int) list;
      (** merged counters of the [execute_observed] replays *)
  mutable flood_counters : (string * int) list;
      (** merged counters of the step-(a) flood replays *)
  mutable rounds : int;
  mutable tx : int;
  mutable rx : int;
  mutable cache_counts : int * int * int;
      (** hits, misses and stores (after a miss) of the scratch cache *)
}

let create () =
  {
    problems = [];
    scenarios = 0;
    exec_counters = [];
    flood_counters = [];
    rounds = 0;
    tx = 0;
    rx = 0;
    cache_counts = (0, 0, 0);
  }

let problem acc fmt = Printf.ksprintf (fun m -> acc.problems <- m :: acc.problems) fmt

(* Accepted records in acceptance order, which is deterministic. *)
let records store =
  let acc = ref [] in
  Flood.iter_records store (fun ~origin ~path ~sans_me:_ ~value ->
      acc := (origin, path, value) :: !acc);
  !acc

(* One flood of [initiate] with the scenario's faulty nodes following its
   strategy, built as Algorithm 1's step (a) and Algorithm 2's phase 1
   build it; the honest stores must equal [reference]. *)
let flood acc ~g ~(s : Sc.t) ~seed ~initiate ~rounds ~reference =
  let roles =
    Array.init (Lbc_graph.Graph.size g) (fun v ->
        if Nodeset.mem v s.Sc.faulty then
          Engine.Faulty
            (S.fstep s.Sc.strategy ~g ~me:v ~vcompare:Bit.compare
               ~input:s.Sc.inputs.(v) ~default:Bit.default ~flip:Bit.flip ~seed)
        else
          let p =
            Flood.proc
              (Flood.create g ~me:v ~vcompare:Bit.compare ~initiate:initiate.(v)
                 ~default:Bit.default ())
          in
          Engine.Honest
            {
              p with
              Engine.step =
                (fun ~round ~inbox ->
                  Span.with_span "flood.step" (fun () -> p.Engine.step ~round ~inbox));
            })
  in
  let topo = Engine.topology_of_graph g in
  let result, report =
    Obs.record (fun () ->
        Span.with_span "engine.run" (fun () ->
            Engine.run topo ~model:Engine.Local_broadcast ~rounds ~roles))
  in
  acc.flood_counters <- Obs.merge_counters acc.flood_counters report.Obs.counters;
  let st = result.Engine.stats in
  acc.rounds <- acc.rounds + st.Engine.rounds;
  acc.tx <- acc.tx + st.Engine.transmissions;
  acc.rx <- acc.rx + st.Engine.deliveries;
  Array.iteri
    (fun v want ->
      match (want, result.Engine.outputs.(v)) with
      | Some a, Some b when records a = records b -> ()
      | None, None -> ()
      | _ -> problem acc "%s: flood replay differs at node %d" (Sc.id s) v)
    reference

let decisions_match acc (s : Sc.t) (outcome : Lbc_consensus.Spec.outcome)
    (v : Sc.verdict) =
  if
    not
      (Array.for_all
         (function None -> true | Some b -> Some b = v.Sc.decision)
         outcome.Lbc_consensus.Spec.outputs)
  then problem acc "%s: replayed decisions differ from the verdict" (Sc.id s)

let algorithm1 acc (s : Sc.t) ~seed ~verdict =
  let g = s.Sc.build () in
  let phases = ref [] in
  let last = ref 0 in
  let observer (o : A1.phase_observation) =
    let t = Span.now_ns () in
    Span.record ~name:"a1.phase" ~start_ns:!last ~stop_ns:t ();
    phases := o :: !phases;
    last := t
  in
  let outcome =
    Span.with_span "a1.run" (fun () ->
        last := Span.now_ns ();
        A1.run ~g ~f:s.Sc.f ~inputs:s.Sc.inputs ~faulty:s.Sc.faulty
          ~strategy:(fun _ -> s.Sc.strategy)
          ~seed ~observer ())
  in
  decisions_match acc s outcome verdict;
  List.iter
    (fun (o : A1.phase_observation) ->
      flood acc ~g ~s
        ~seed:(seed + (1000 * o.A1.phase_idx))
        ~initiate:o.A1.before ~rounds:(Flood.rounds_needed g)
        ~reference:o.A1.stores)
    (List.rev !phases)

let algorithm2 acc (s : Sc.t) ~seed ~verdict =
  let g = s.Sc.build () in
  let f = s.Sc.f in
  let tr =
    Span.with_span "a2.run" (fun () ->
        A2.run_traced ~g ~f ~inputs:s.Sc.inputs ~faulty:s.Sc.faulty
          ~strategy:(fun _ -> s.Sc.strategy)
          ~seed ())
  in
  decisions_match acc s tr.A2.outcome verdict;
  Array.iteri
    (fun v report ->
      match (report, tr.A2.store1.(v), tr.A2.store2.(v)) with
      | Some (r : A2.node_report), Some store1, Some store2 ->
          let learns =
            Span.with_span "a2.attribution" (fun () ->
                A2.attribution_index g ~me:v ~heard:tr.A2.heard.(v) ~store2)
          in
          let detected =
            Span.with_span "a2.discover" (fun () ->
                A2.discover g ~f ~me:v ~store1 ~learns ())
          in
          if not (Nodeset.equal detected r.A2.detected) then
            problem acc "%s: re-run discovery differs at node %d" (Sc.id s) v
      | _ -> ())
    tr.A2.node_reports;
  flood acc ~g ~s ~seed ~initiate:s.Sc.inputs
    ~rounds:(Flood.rounds_needed g + 1)
    ~reference:tr.A2.store1

let verdict_string v = Lbc_campaign.Jsonio.to_string (Sc.verdict_to_json v)

(* Replay scenario [index]; returns what the runner would cache for it. *)
let scenario acc ~base_seed ~index (s : Sc.t) ~(reference : Sc.verdict) =
  Span.with_span ~scenario:index "replay" (fun () ->
      let v, counters =
        Span.with_span "scenario.execute" (fun () ->
            Sc.execute_observed ~base_seed ~index s)
      in
      if verdict_string v <> verdict_string reference then
        problem acc "%s: re-executed verdict differs from the runner's" (Sc.id s);
      acc.scenarios <- acc.scenarios + 1;
      acc.exec_counters <- Obs.merge_counters acc.exec_counters counters;
      let seed = Sc.scenario_seed ~base:base_seed s in
      (match s.Sc.algo with
      | Sc.A1 -> algorithm1 acc s ~seed ~verdict:v
      | Sc.A2 -> algorithm2 acc s ~seed ~verdict:v
      | _ -> ());
      { Cache.algo = Sc.algo_name s.Sc.algo; counters; verdict = v })

(* The campaign's storage layer on its own: append every scenario's record
   to a scratch journal. *)
let journal ~path ~name ~base_seed scenarios (entries : Cache.entry array) =
  Workload.rm_rf path;
  let header =
    {
      Journal.campaign = name;
      count = Array.length scenarios;
      base_seed;
      budget = 0;
      fingerprint = Grid.fingerprint scenarios;
    }
  in
  let w = Journal.open_writer ~path ~header () in
  Array.iteri
    (fun i (e : Cache.entry) ->
      Span.with_span ~scenario:i "journal.append" (fun () ->
          Journal.append w
            {
              Journal.index = i;
              wall_s = 0.0;
              algo = e.Cache.algo;
              counters = e.Cache.counters;
              verdict = e.Cache.verdict;
            }))
    entries;
  Journal.close w;
  Journal.remove ~path

(* Set-up's stores, then the pass's lookups with a store after each miss,
   on a scratch cache. *)
let cache acc ~dir ~base_seed scenarios (entries : Cache.entry array) =
  Workload.rm_rf dir;
  let c = Cache.create ~dir in
  let key i = Cache.key ~id:(Sc.id scenarios.(i)) ~base_seed ~budget:0 in
  let store i =
    Span.with_span ~scenario:i "cache.store" (fun () ->
        Cache.store c ~key:(key i) entries.(i))
  in
  Array.iteri (fun i _ -> if Prefill.prefilled i then store i) scenarios;
  let prefill_stores = Cache.stores c in
  Array.iteri
    (fun i _ ->
      let t0 = Span.now_ns () in
      let found = Cache.find c ~key:(key i) in
      let t1 = Span.now_ns () in
      let name =
        match found with Some _ -> "cache.find_hit" | None -> "cache.find_miss"
      in
      Span.record ~scenario:i ~name ~start_ns:t0 ~stop_ns:t1 ();
      if found = None then store i)
    scenarios;
  let n = Array.length scenarios in
  if Cache.hits c <> Prefill.hits n || Cache.misses c <> Prefill.misses n then
    problem acc "scratch cache: %d hits / %d misses" (Cache.hits c) (Cache.misses c);
  acc.cache_counts <- (Cache.hits c, Cache.misses c, Cache.stores c - prefill_stores);
  Workload.rm_rf dir
