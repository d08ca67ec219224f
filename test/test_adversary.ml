(* Tests for the Byzantine strategy library: legality under each model,
   determinism, and the intended corruption behaviours. *)

module S = Lbc_adversary.Strategy
module Flood = Lbc_flood.Flood
module Engine = Lbc_sim.Engine
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk kind ~me ?(seed = 0) () =
  let g = B.cycle 5 in
  (g,
    S.fstep kind ~g ~me ~vcompare:Int.compare ~input:1 ~default:9
      ~flip:(fun v -> -v) ~seed)

(* The [(value, path)] content of each broadcast: wires also carry a
   path-id hint, which is not part of what a strategy says. *)
let broadcasts out =
  List.filter_map
    (function
      | Engine.Broadcast (m : int Flood.wire) -> Some (m.Flood.value, m.Flood.path)
      | Engine.Unicast _ -> None)
    out

let wire = Flood.wire

let test_silent () =
  let _, f = mk S.Silent ~me:0 () in
  check "nothing at 0" true (f ~round:0 ~inbox:[] = []);
  check "nothing later" true
    (f ~round:3 ~inbox:[ (1, wire 5 []) ] = [])

let test_honest_behavior () =
  let _, f = mk S.Honest_behavior ~me:0 () in
  let out = f ~round:0 ~inbox:[] in
  check "initiates" true
    (broadcasts out = [ (1, []) ]);
  let out1 = f ~round:1 ~inbox:[ (1, wire 5 []) ] in
  (* forwards 1's initiation, plus the default for silent neighbour 4 *)
  check "forwards" true
    (List.mem (5, [ 1 ]) (broadcasts out1));
  check "defaults synthesized" true
    (List.mem (9, [ 4 ]) (broadcasts out1))

let test_crash_at () =
  let _, f = mk (S.Crash_at 1) ~me:0 () in
  check "alive at 0" true (f ~round:0 ~inbox:[] <> []);
  check "dead at 1" true
    (f ~round:1 ~inbox:[ (1, wire 5 []) ] = [])

let test_lie () =
  let _, f = mk S.Lie ~me:0 () in
  check "flipped initiation" true
    (broadcasts (f ~round:0 ~inbox:[]) = [ (-1, []) ])

let test_flip_forwards () =
  let _, f = mk S.Flip_forwards ~me:0 () in
  check "own initiation intact" true
    (broadcasts (f ~round:0 ~inbox:[]) = [ (1, []) ]);
  let out = f ~round:1 ~inbox:[ (1, wire 5 []) ] in
  check "forward flipped" true
    (List.mem (-5, [ 1 ]) (broadcasts out))

let test_flip_from () =
  let _, f = mk (S.Flip_from (Nodeset.singleton 2)) ~me:0 () in
  (* deliver each message in its timing-valid round *)
  let out1 = f ~round:1 ~inbox:[ (1, wire 5 []) ] in
  let out2 = f ~round:2 ~inbox:[ (1, wire 7 [ 2 ]) ] in
  check "other origin intact" true
    (List.mem (5, [ 1 ]) (broadcasts out1));
  check "target origin flipped" true
    (List.mem (-7, [ 2; 1 ]) (broadcasts out2))

let test_spurious_well_formed () =
  let g, f = mk (S.Spurious 3) ~me:0 () in
  let out = f ~round:0 ~inbox:[] in
  (* All fabricated messages must still be well-formed G-paths ending next
     to the sender (they are lies, not garbage). *)
  List.iter
    (fun (_, path) ->
      if path <> [] then begin
        check "path valid" true (G.is_path g path);
        let last = List.nth path (List.length path - 1) in
        check "adjacent to sender" true (G.mem_edge g last 0)
      end)
    (broadcasts out)

let test_determinism () =
  let _, f1 = mk (S.Noise 2) ~me:0 ~seed:5 () in
  let _, f2 = mk (S.Noise 2) ~me:0 ~seed:5 () in
  let _, f3 = mk (S.Noise 2) ~me:0 ~seed:6 () in
  let o1 = broadcasts (f1 ~round:0 ~inbox:[]) in
  let o2 = broadcasts (f2 ~round:0 ~inbox:[]) in
  let o3 = broadcasts (f3 ~round:0 ~inbox:[]) in
  check "same seed same output" true (o1 = o2);
  check "different seed differs" true (o1 <> o3)

let test_equivocate_unicasts () =
  let _, f = mk S.Equivocate ~me:0 () in
  let out = f ~round:0 ~inbox:[] in
  check "only unicasts" true
    (List.for_all (function Engine.Unicast _ -> true | _ -> false) out);
  (* Neighbours of 0 in the 5-cycle are 1 and 4: one true, one flipped. *)
  let values =
    List.filter_map
      (function
        | Engine.Unicast (v, (m : int Flood.wire)) -> Some (v, m.Flood.value)
        | Engine.Broadcast _ -> None)
      out
    |> List.sort compare
  in
  check "inconsistent per neighbour" true (values = [ (1, 1); (4, -1) ])

let test_broadcast_bound_classification () =
  check "equivocate is not broadcast bound" false (S.broadcast_bound S.Equivocate);
  check "all lbc kinds are" true (List.for_all S.broadcast_bound S.kinds_lbc);
  check_int "hybrid has one more" 1
    (List.length S.kinds_hybrid - List.length S.kinds_lbc)

let () =
  Alcotest.run "adversary"
    [
      ( "strategies",
        [
          Alcotest.test_case "silent" `Quick test_silent;
          Alcotest.test_case "honest behavior" `Quick test_honest_behavior;
          Alcotest.test_case "crash at" `Quick test_crash_at;
          Alcotest.test_case "lie" `Quick test_lie;
          Alcotest.test_case "flip forwards" `Quick test_flip_forwards;
          Alcotest.test_case "flip from" `Quick test_flip_from;
          Alcotest.test_case "spurious well-formed" `Quick
            test_spurious_well_formed;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "equivocate unicasts" `Quick test_equivocate_unicasts;
          Alcotest.test_case "classification" `Quick
            test_broadcast_bound_classification;
        ] );
    ]
