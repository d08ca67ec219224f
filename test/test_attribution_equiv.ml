(* QCheck equivalence: Algorithm 2's hash-consed, int-keyed attribution
   index (lib/core/algorithm2.ml) vs the retained structural reference
   (attribution_reference).

   Each case runs Algorithm 2 on a random 2f-connected graph (Figure
   1(b), a circulant or a random G(n, p)) with at most f faulty nodes,
   each following a broadcast-bound strategy — sometimes two tampering
   relays, whose flips of flips are physically new lists structurally
   equal to the originals. At every honest node it then checks that

   - every sent / silent_on probe the reference discovery makes, plus a
     sent and a silent_on probe for every claim some honest node heard,
     gets the same answer from both indexes (the production one built
     over one context shared by the nodes, as the algorithm builds it,
     but on a path table of its own: the heard wires carry ids from the
     run's table, which the index must not trust);
   - the production discovery (id-keyed probes, shared or standalone
     context) detects exactly the reference's set, which is also the
     set the run itself reported. *)

module A2 = Lbc_consensus.Algorithm2
module Bit = Lbc_consensus.Bit
module Flood = Lbc_flood.Flood
module Ref = Attribution_reference
module S = Lbc_adversary.Strategy
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset

(* A graph and the largest f (at most 2) it is 2f-connected for. *)
let graph_of ~family ~n ~seed =
  let connected g k = Lbc_graph.Disjoint.connectivity_at_least g k in
  let g =
    match family with
    | 0 -> B.fig1b ()
    | 1 -> B.circulant n [ 1; 2 ]
    | _ ->
        (* flooding is exponential in the path count: keep these small *)
        let g = B.random_gnp ~seed (n - 1) 0.75 in
        if connected g 2 then g else B.circulant n [ 1; 2 ]
  in
  (g, if connected g 4 then 2 else 1)

let subset_of_seed seed n ~size =
  List.filter (fun v -> (seed lsr v) land 1 = 1) (List.init n Fun.id)
  |> List.filteri (fun i _ -> i < size)
  |> Nodeset.of_list

let fail fmt = QCheck.Test.fail_reportf fmt

(* The reference discovery, with every probe it makes recorded. *)
let recorded_discover g ~f ~me ~store1 (rf : Ref.attribution) =
  let sent = ref [] and silent = ref [] in
  let learns =
    {
      Ref.sent =
        (fun ~f ~z ~m ->
          let r = rf.Ref.sent ~f ~z ~m in
          sent := (z, m, r) :: !sent;
          r);
      silent_on =
        (fun ~f ~z ~path ->
          let r = rf.Ref.silent_on ~f ~z ~path in
          silent := (z, path, r) :: !silent;
          r);
    }
  in
  let detected = Ref.discover g ~f ~me ~store1 ~learns in
  (detected, !sent, !silent)

let check_node g ~f ~ctx ~claims (t : A2.traced) v =
  match (t.A2.store1.(v), t.A2.store2.(v), t.A2.node_reports.(v)) with
  | Some store1, Some store2, Some report ->
      let heard = t.A2.heard.(v) in
      let prod = A2.attribution_index ~ctx g ~me:v ~heard ~store2 in
      let rf = Ref.attribution_index g ~me:v ~heard ~store2 in
      let detected, sent, silent = recorded_discover g ~f ~me:v ~store1 rf in
      List.iter
        (fun (z, m, r) ->
          if prod.A2.sent ~f ~z ~m <> r then
            fail "node %d: discovery probe sent z=%d diverges" v z)
        sent;
      List.iter
        (fun (z, path, r) ->
          if prod.A2.silent_on ~f ~z ~path <> r then
            fail "node %d: discovery probe silent_on z=%d diverges" v z)
        silent;
      List.iter
        (fun (z, (m : Bit.t Flood.wire)) ->
          if prod.A2.sent ~f ~z ~m <> rf.Ref.sent ~f ~z ~m then
            fail "node %d: heard-claim probe sent z=%d diverges" v z;
          let path = m.Flood.path in
          if prod.A2.silent_on ~f ~z ~path <> rf.Ref.silent_on ~f ~z ~path
          then fail "node %d: heard-claim probe silent_on z=%d diverges" v z)
        claims;
      let shared = A2.discover g ~f ~me:v ~store1 ~learns:prod () in
      let alone =
        A2.discover g ~f ~me:v ~store1
          ~learns:(A2.attribution_index g ~me:v ~heard ~store2)
          ()
      in
      if not (Nodeset.equal shared detected && Nodeset.equal alone detected)
      then
        fail "node %d: detected %s (shared) / %s (standalone), reference %s" v
          (Nodeset.to_string shared) (Nodeset.to_string alone)
          (Nodeset.to_string detected);
      if not (Nodeset.equal detected report.A2.detected) then
        fail "node %d: reference detects %s, the run reported %s" v
          (Nodeset.to_string detected)
          (Nodeset.to_string report.A2.detected)
  | _ -> ()

let equivalence =
  QCheck.Test.make ~name:"hash-consed attribution = reference" ~count:40
    QCheck.(
      quad (int_bound 2) (int_range 5 7) (int_bound 1023)
        (pair (int_bound (List.length S.kinds_lbc - 1)) bool))
    (fun (family, n, seed, (kind_i, two_flips)) ->
      let g, f = graph_of ~family ~n ~seed in
      let size = G.size g in
      let faulty = subset_of_seed (seed * 37) size ~size:f in
      let kinds = Array.of_list S.kinds_lbc in
      let strategy v =
        if two_flips then S.Flip_forwards
        else kinds.((kind_i + v) mod Array.length kinds)
      in
      let inputs = Array.init size (fun v -> Bit.of_int ((seed lsr v) land 1)) in
      let t = A2.run_traced ~g ~f ~inputs ~faulty ~strategy ~seed () in
      let claims =
        List.sort_uniq
          (fun a b -> compare (Ref.claim_key a) (Ref.claim_key b))
          (List.concat (Array.to_list t.A2.heard))
      in
      let ctx = A2.context g in
      for v = 0 to size - 1 do
        check_node g ~f ~ctx ~claims t v
      done;
      true)

(* Hash-consing: a physically fresh flip of a flip gets the original's
   id, the flip itself does not, and neither does a list that differs
   only in its last entry's path — the full-list hash must not stop at a
   prefix. *)
let test_hash_consing () =
  let g = B.fig1b () in
  let n = G.size g in
  let entry i =
    ( i mod n,
      Flood.wire (Bit.of_int (i land 1)) [ (i + 1) mod n; (i + 3) mod n ] )
  in
  let l = List.init 60 entry in
  let flip =
    List.map (fun (z, (m : Bit.t Flood.wire)) ->
        (z, Flood.with_value m (Bit.flip m.Flood.value)))
  in
  let last_changed =
    List.mapi
      (fun i ((z, m) as e) ->
        if i = 59 then (z, Flood.wire m.Flood.value [ 5; 6; 7 ]) else e)
      l
  in
  let ctx = A2.context g in
  let id = A2.canonical_id ctx in
  let base = id l in
  let twice = flip (flip l) in
  Alcotest.(check bool) "flip (flip l) is a fresh allocation" false (twice == l);
  Alcotest.(check int) "flip (flip l) shares l's id" base (id twice);
  Alcotest.(check int) "a repeated lookup is stable" base (id l);
  Alcotest.(check bool) "flip l gets its own id" true (id (flip l) <> base);
  Alcotest.(check bool) "a different last entry gets its own id" true
    (id last_changed <> base);
  Alcotest.(check bool) "the empty list gets its own id" true (id [] <> base)

(* A Byzantine transmitter controls its path annotation, so claims can
   name nodes outside the graph. They cannot be int-encoded; both
   indexes must still agree on them, and on every ordinary claim. *)
let test_out_of_graph_claims () =
  let g = B.cycle 6 in
  let wire = Flood.wire in
  let compare_claims a b =
    compare (List.map Ref.claim_key a) (List.map Ref.claim_key b)
  in
  let reports v =
    List.concat_map
      (fun z -> [ (z, wire Bit.One []); (z, wire Bit.Zero [ 99; z ]) ])
      (G.neighbor_list g v)
  in
  let roles =
    Array.init 6 (fun v ->
        Lbc_sim.Engine.Honest
          (Flood.proc
             (Flood.create g ~me:v ~vcompare:compare_claims
                ~initiate:(reports v)
                ~default:[] ())))
  in
  let r =
    Lbc_sim.Engine.run
      (Lbc_sim.Engine.topology_of_graph g)
      ~model:Lbc_sim.Engine.Local_broadcast ~rounds:(Flood.rounds_needed g)
      ~roles
  in
  let me = 0 in
  let store2 = Option.get r.Lbc_sim.Engine.outputs.(me) in
  let heard = [ (1, wire Bit.Zero [ 99; 1 ]) ] in
  let prod = A2.attribution_index g ~me ~heard ~store2 in
  let rf = Ref.attribution_index g ~me ~heard ~store2 in
  List.iter
    (fun f ->
      for z = 0 to 5 do
        List.iter
          (fun (m : Bit.t Flood.wire) ->
            let what = Printf.sprintf "f=%d z=%d" f z in
            Alcotest.(check bool)
              ("sent " ^ what) (rf.Ref.sent ~f ~z ~m) (prod.A2.sent ~f ~z ~m);
            let path = m.Flood.path in
            Alcotest.(check bool)
              ("silent_on " ^ what)
              (rf.Ref.silent_on ~f ~z ~path)
              (prod.A2.silent_on ~f ~z ~path))
          [
            wire Bit.Zero [ 99; z ];
            wire Bit.One [ 99; z ];
            wire Bit.One [];
            wire Bit.Zero [];
          ]
      done)
    [ 0; 1 ];
  Alcotest.(check bool)
    "an out-of-graph claim is reliably attributed" true
    (prod.A2.sent ~f:0 ~z:3 ~m:(wire Bit.Zero [ 99; 3 ]))

let () =
  Alcotest.run "attribution_equiv"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest equivalence;
          Alcotest.test_case "hash-consing" `Quick test_hash_consing;
          Alcotest.test_case "out-of-graph claims" `Quick
            test_out_of_graph_claims;
        ] );
    ]
