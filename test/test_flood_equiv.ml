(* QCheck equivalence: the interned-path flooding store (lib/flood) vs
   the retained list-keyed reference implementation (flood_reference).

   Every honest node runs both stores in lock-step on the same engine
   inbox — so the comparison covers adversarial traffic (every
   broadcast-bound strategy) and chaos-perturbed delivery, not just
   clean floods — and must produce identical forwards each round and
   identical query results afterwards. As the execution drivers do, all
   the production stores of one execution (honest and faulty) share one
   path table, so forwards carry ids the receiver can trust; a second
   property splits the nodes over two tables whose ids disagree, so
   receivers must not trust them. Also checks the packing certificate
   cache against fresh counts. *)

module Flood = Lbc_flood.Flood
module Packing = Lbc_flood.Packing
module Path_intern = Lbc_flood.Path_intern
module Ref = Flood_reference
module S = Lbc_adversary.Strategy
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset
module Engine = Lbc_sim.Engine
module P = Lbc_sim.Perturb
module Obs = Lbc_obs.Obs

(* The observable content of a wire; the path-id hint is not part of it. *)
let proj (m : int Flood.wire) = (m.Flood.value, m.Flood.path)

(* Does [m]'s id name a path of [paths] other than [m]'s own? *)
let misnamed paths (m : int Flood.wire) =
  m.Flood.id > Path_intern.root
  &&
  match Path_intern.path paths m.Flood.id with
  | p -> p <> m.Flood.path
  | exception Invalid_argument _ -> false

(* One honest node driving both implementations on the same inbox; the
   production store interns into [paths]. [misnamed_rx] counts the
   deliveries whose id names another path in [paths]. *)
let mirrored ?misnamed_rx g ~paths ~me ~initiate ~default : ('a, 'b) Engine.proc
    =
  let st = Flood.create g ~me ~vcompare:Int.compare ~initiate ~default ~paths () in
  let rf = Ref.create g ~me ~initiate ~default () in
  let p = Flood.proc st in
  let q = Ref.proc rf in
  let step ~round ~inbox =
    Option.iter
      (fun c ->
        List.iter (fun (_, m) -> if misnamed paths m then incr c) inbox)
      misnamed_rx;
    let out = p.Engine.step ~round ~inbox in
    let out' = q.Engine.step ~round ~inbox in
    if List.map proj out <> List.map proj out' then
      QCheck.Test.fail_reportf "node %d round %d: forwards diverge" me round;
    out
  in
  { Engine.step; output = (fun () -> (st, rf)) }

let chaos_specs =
  [
    P.zero;
    { P.zero with P.drop = 0.15 };
    { P.zero with P.dup = 0.2 };
    { P.zero with P.delay = 1; delay_p = 0.3 };
    { P.zero with P.drop = 0.1; delay = 2; delay_p = 0.2 };
  ]

let subset_of_seed seed n =
  List.filter (fun v -> (seed lsr v) land 1 = 1) (List.init n Fun.id)
  |> Nodeset.of_list

(* Compare every observable query of the two stores. *)
let compare_stores g ~f (st, rf) =
  let n = G.size g in
  let me = Flood.me st in
  let recs = Flood.records st in
  if recs <> Ref.records rf then
    QCheck.Test.fail_reportf "node %d: records diverge" me;
  List.iter
    (fun (_, path, _) ->
      if Flood.value_along st ~path <> Ref.value_along rf ~path then
        QCheck.Test.fail_reportf "node %d: value_along diverges" me)
    recs;
  assert (Flood.value_along st ~path:[ n + 3; me ] = None);
  for origin = 0 to n - 1 do
    let vs = Flood.origin_values st ~origin in
    if vs <> Ref.origin_values rf ~origin then
      QCheck.Test.fail_reportf "node %d origin %d: origin_values diverge" me
        origin;
    if Flood.reliable_values ~f st ~origin <> Ref.reliable_values ~f rf ~origin
    then
      QCheck.Test.fail_reportf "node %d origin %d: reliable_values diverge" me
        origin;
    if origin <> me then
      List.iter
        (fun value ->
          let excluded = subset_of_seed (origin + (7 * me)) n in
          let d =
            Flood.disjoint_count st ~origin ~value ~excluded ()
          in
          let d' = Ref.disjoint_count rf ~origin ~value ~excluded () in
          if d <> d' then
            QCheck.Test.fail_reportf
              "node %d origin %d: disjoint_count %d <> %d" me origin d d')
        vs
  done;
  let sources = Nodeset.of_list (List.init ((n / 2) + 1) Fun.id) in
  List.iter
    (fun value ->
      let d = Flood.disjoint_count_from_set st ~sources ~value () in
      let d' = Ref.disjoint_count_from_set rf ~sources ~value () in
      if d <> d' then
        QCheck.Test.fail_reportf "node %d: disjoint_count_from_set %d <> %d" me
          d d')
    (Flood.origin_values st ~origin:(Nodeset.min_elt sources))

(* One lock-step execution: node [v]'s production store (honest or
   faulty) interns into [table v]. *)
let run_mirrored ?misnamed_rx (n, seed, kind_i, chaos_i) ~table =
  let g = B.random_augmented_circulant ~seed ~n ~k:2 ~extra:0.3 in
  let table = table g in
  let faulty = seed mod n in
  let kind = List.nth S.kinds_lbc kind_i in
  let roles =
    Array.init n (fun v ->
        if v = faulty then
          Engine.Faulty
            (S.fstep ~paths:(table v) kind ~g ~me:v ~vcompare:Int.compare
               ~input:(100 + v) ~default:(-1)
               ~flip:(fun x -> -x)
               ~seed)
        else
          Engine.Honest
            (mirrored ?misnamed_rx g ~paths:(table v) ~me:v ~initiate:(100 + v)
               ~default:(-1)))
  in
  let topo = Engine.topology_of_graph g in
  let rounds = Flood.rounds_needed g + 3 in
  let r =
    P.with_chaos (List.nth chaos_specs chaos_i) ~seed:(seed + 1) (fun () ->
        Engine.run topo ~model:Engine.Local_broadcast ~rounds ~roles)
  in
  Array.iteri
    (fun v out ->
      match out with
      | Some pair when v <> faulty -> compare_stores g ~f:1 pair
      | _ -> ())
    r.Engine.outputs

let case_gen =
  QCheck.(
    quad (int_range 5 8) (int_bound 1000)
      (int_bound (List.length S.kinds_lbc - 1))
      (int_bound (List.length chaos_specs - 1)))

(* One path table per execution, as the execution drivers build it. *)
let equivalence =
  QCheck.Test.make ~name:"interned flood = reference flood" ~count:60 case_gen
    (fun case ->
      run_mirrored case ~table:(fun g ->
          let paths = Path_intern.create g in
          fun _ -> paths);
      true)

(* Even nodes on one table, odd nodes on another that first interned the
   single-node paths in reverse order, so an id one side emits names a
   different path on the other side. The stores must ignore such ids and
   still match the reference — and the case must actually deliver some. *)
let cross_table =
  QCheck.Test.make ~name:"cross-table flood = reference flood" ~count:40
    case_gen (fun ((n, _, _, _) as case) ->
      let misnamed_rx = ref 0 in
      run_mirrored ~misnamed_rx case ~table:(fun g ->
          let even = Path_intern.create g and odd = Path_intern.create g in
          for u = n - 1 downto 0 do
            ignore (Path_intern.intern odd [ u ])
          done;
          fun v -> if v land 1 = 0 then even else odd);
      if !misnamed_rx = 0 then
        QCheck.Test.fail_report "no delivery carried a misnamed id";
      true)

(* The packing certificate cache must be a pure memo of Packing.count:
   same result as a fresh computation, for any interleaving of queries
   and limits, and a repeated query must hit. *)
let cache_matches_fresh =
  QCheck.Test.make ~name:"packing cache = fresh count" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_bound 8)
           (list_of_size (Gen.int_bound 6) (int_bound 50)))
        (int_range (-1) 6))
    (fun (nodelists, limit) ->
      let masks = List.map Packing.mask_of_nodes nodelists in
      let cache = Packing.Cache.create () in
      let fresh = Packing.count masks ~limit in
      let (a, b, c), rep =
        Obs.record (fun () ->
            let a = Packing.Cache.count cache masks ~limit in
            (* interleave a different query, then repeat the first *)
            let b = Packing.Cache.count cache masks ~limit:(limit + 1) in
            let c = Packing.Cache.count cache masks ~limit in
            (a, b, c))
      in
      if a <> fresh || c <> fresh then
        QCheck.Test.fail_reportf "cached %d/%d <> fresh %d" a c fresh;
      if b <> Packing.count masks ~limit:(limit + 1) then
        QCheck.Test.fail_report "interleaved limit diverges";
      let counter name =
        try List.assoc name rep.Obs.counters with Not_found -> 0
      in
      (* repeating the first query must hit; with limit <= 0 the a/c
         queries bypass the cache and only the interleaved limit+1 query
         may record (a single miss) *)
      if limit > 0 then counter "packing.cache_hit" >= 1
      else
        counter "packing.cache_hit" = 0 && counter "packing.cache_miss" <= 1)

let () =
  Alcotest.run "flood_equiv"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest equivalence;
          QCheck_alcotest.to_alcotest cross_table;
          QCheck_alcotest.to_alcotest cache_matches_fresh;
        ] );
    ]
