(* End-to-end tests for Algorithm 3 (hybrid model, Theorem 6.1). *)

module A1 = Lbc_consensus.Algorithm1
module A3 = Lbc_consensus.Algorithm3
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module S = Lbc_adversary.Strategy
module B = Lbc_graph.Builders
module Nodeset = Lbc_graph.Nodeset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok_decides uni o =
  Spec.agreement o && Spec.validity o && Spec.decision o = Some uni

let test_phase_count () =
  let g = B.complete 4 in
  (* t=0: like Algorithm 1. *)
  check_int "t=0 matches A1" (A1.phases ~g ~f:1) (A3.phases ~g ~f:1 ~t:0);
  (* f=t=1 on K4: T in {∅, {0..3}} = 5 choices; |T|=0 -> F <= 1 (5),
     |T|=1 -> F = ∅ only (1 each): 5 + 4 = 9. *)
  check_int "f=t=1 on K4" 9 (A3.phases ~g ~f:1 ~t:1)

let test_t0_equals_algorithm1 () =
  (* With t = 0 the hybrid algorithm must behave exactly like
     Algorithm 1 on the same execution: the whole outcome and every
     recorded counter agree, the decisive-phase histogram differing only
     in its name. *)
  let module Obs = Lbc_obs.Obs in
  let rename (name, v) =
    ((if name = "a3.decisive_phase" then "a1.decisive_phase" else name), v)
  in
  List.iter
    (fun (label, g, f, faulty, inputs) ->
      List.iter
        (fun kind ->
          let strategy _ = kind in
          let o1, r1 =
            Obs.record (fun () -> A1.run ~g ~f ~inputs ~faulty ~strategy ())
          in
          let o3, r3 =
            Obs.record (fun () ->
                A3.run ~g ~f ~t:0 ~inputs ~faulty ~strategy ())
          in
          let name = Format.asprintf "%s %a" label S.pp_kind kind in
          check (name ^ ": outcome") true (o1 = o3);
          check (name ^ ": counters") true
            (r1.Obs.counters = List.map rename r3.Obs.counters);
          check (name ^ ": stats") true
            (r1.Obs.stats = List.map rename r3.Obs.stats))
        [
          S.Flip_forwards;
          S.Omit_from (Nodeset.singleton 0);
          S.Spurious 2;
          S.Silent;
        ])
    [
      ( "fig1a",
        B.fig1a (),
        1,
        Nodeset.singleton 2,
        [| Bit.Zero; Bit.One; Bit.Zero; Bit.One; Bit.One |] );
      ( "C7(1,2)",
        B.circulant 7 [ 1; 2 ],
        2,
        Nodeset.of_list [ 1; 4 ],
        [| Bit.Zero; Bit.One; Bit.One; Bit.Zero; Bit.One; Bit.Zero; Bit.One |]
      );
    ]

let test_k4_equivocator_exhaustive () =
  (* K4, f = t = 1 (the point-to-point adversary); n = 4 = 3f + 1. *)
  let g = B.complete 4 in
  List.iter
    (fun uni ->
      List.iter
        (fun kind ->
          List.iter
            (fun bad ->
              let inputs = Array.make 4 uni in
              inputs.(bad) <- Bit.flip uni;
              let o =
                A3.run ~g ~f:1 ~t:1 ~inputs ~faulty:(Nodeset.singleton bad)
                  ~equivocators:(Nodeset.singleton bad)
                  ~strategy:(fun _ -> kind) ()
              in
              check
                (Format.asprintf "uni=%a bad=%d %a" Bit.pp uni bad S.pp_kind
                   kind)
                true (ok_decides uni o))
            [ 0; 1; 2; 3 ])
        S.kinds_hybrid)
    [ Bit.Zero; Bit.One ]

let test_k6_mixed_faults () =
  (* K6 satisfies the hybrid condition for f = 2, t = 1: one equivocator
     plus one broadcast-bound fault. *)
  let g = B.complete 6 in
  List.iter
    (fun uni ->
      List.iter
        (fun (i, j) ->
          let inputs = Array.make 6 uni in
          inputs.(i) <- Bit.flip uni;
          inputs.(j) <- Bit.flip uni;
          let o =
            A3.run ~g ~f:2 ~t:1 ~inputs ~faulty:(Nodeset.of_list [ i; j ])
              ~equivocators:(Nodeset.singleton i)
              ~strategy:(fun v -> if v = i then S.Equivocate else S.Flip_forwards)
              ()
          in
          check (Printf.sprintf "pair (%d,%d)" i j) true (ok_decides uni o))
        [ (0, 1); (2, 5) ])
    [ Bit.Zero; Bit.One ]

let test_mixed_inputs_k6 () =
  let g = B.complete 6 in
  let inputs =
    [| Bit.Zero; Bit.One; Bit.Zero; Bit.One; Bit.Zero; Bit.One |]
  in
  let o =
    A3.run ~g ~f:2 ~t:1 ~inputs ~faulty:(Nodeset.of_list [ 1; 4 ])
      ~equivocators:(Nodeset.singleton 4)
      ~strategy:(fun v -> if v = 4 then S.Equivocate else S.Lie)
      ()
  in
  check "consensus" true (Spec.consensus_ok o)

let test_proc_equivalent_to_run () =
  (* The reactive hybrid procs on the plain engine reproduce the driver
     (fault-free execution: equivocation requires a faulty driver). *)
  let g = B.complete 4 in
  let inputs = [| Bit.Zero; Bit.One; Bit.One; Bit.Zero |] in
  let o = A3.run ~g ~f:1 ~t:1 ~inputs ~faulty:Nodeset.empty () in
  let module Engine = Lbc_sim.Engine in
  let topo = Engine.topology_of_graph g in
  let roles =
    Array.init 4 (fun v ->
        Engine.Honest (A3.proc ~g ~f:1 ~t:1 ~me:v ~input:inputs.(v)))
  in
  let rounds = A3.phases ~g ~f:1 ~t:1 * 4 in
  let r = Engine.run topo ~model:Engine.Local_broadcast ~rounds ~roles in
  Array.iteri
    (fun v out ->
      check
        (Printf.sprintf "node %d equal" v)
        true
        (Some (Option.get out) = o.Spec.outputs.(v)))
    r.Engine.outputs

let test_pinned_costs () =
  (* Costs of two t >= 1 executions, pinned at the values the separate
     Algorithm 3 phase loop produced before Algorithms 1 and 3 shared one
     driver; no campaign grid runs Algorithm 3, so nothing else pins
     them. *)
  let module Obs = Lbc_obs.Obs in
  let bits s =
    Array.init (String.length s) (fun i -> Bit.of_int (Char.code s.[i] - 48))
  in
  List.iter
    (fun (label, g, f, t, faulty, equivocators, kind, inputs, seed, want) ->
      let o, r =
        Obs.record (fun () ->
            A3.run ~g ~f ~t ~inputs:(bits inputs)
              ~faulty:(Nodeset.of_list faulty)
              ~equivocators:(Nodeset.of_list equivocators)
              ~strategy:(fun _ -> kind)
              ~seed ())
      in
      let decisive = List.assoc "a3.decisive_phase" r.Obs.stats in
      Alcotest.(check (list int))
        (label ^ ": phases, rounds, transmissions, decisive sum")
        want
        [ o.Spec.phases; o.Spec.rounds; o.Spec.transmissions; decisive.Obs.sum ])
    [
      ( "K4 f=t=1",
        B.complete 4, 1, 1, [ 2 ], [ 2 ], S.Equivocate, "0110", 3,
        [ 9; 36; 864; 1 ] );
      ( "K6 f=2 t=1",
        B.complete 6, 2, 1, [ 1; 4 ], [ 1 ], S.Flip_forwards, "010110", 5,
        [ 58; 348; 113_448; 0 ] );
    ]

let test_bad_args () =
  let g = B.complete 4 in
  check "t > f" true
    (match
       A3.run ~g ~f:1 ~t:2 ~inputs:(Array.make 4 Bit.One)
         ~faulty:Nodeset.empty ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "algorithm3"
    [
      ( "structure",
        [
          Alcotest.test_case "phase count" `Quick test_phase_count;
          Alcotest.test_case "t=0 equals A1" `Quick test_t0_equals_algorithm1;
          Alcotest.test_case "proc = run" `Quick test_proc_equivalent_to_run;
          Alcotest.test_case "bad args" `Quick test_bad_args;
          Alcotest.test_case "pinned costs" `Quick test_pinned_costs;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "K4 equivocator exhaustive" `Slow
            test_k4_equivocator_exhaustive;
          Alcotest.test_case "K6 mixed faults" `Slow test_k6_mixed_faults;
          Alcotest.test_case "K6 mixed inputs" `Quick test_mixed_inputs_k6;
        ] );
    ]
