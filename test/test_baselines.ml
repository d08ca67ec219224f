(* Tests for the point-to-point baselines: EIG on complete graphs and
   Dolev-relayed EIG on incomplete graphs. *)

module EIG = Lbc_consensus.Baseline_eig
module Relay = Lbc_consensus.Baseline_relay
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module S = Lbc_adversary.Strategy
module B = Lbc_graph.Builders
module Nodeset = Lbc_graph.Nodeset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok_decides uni o =
  Spec.agreement o && Spec.validity o && Spec.decision o = Some uni

let test_eig_no_faults () =
  List.iter
    (fun uni ->
      let o =
        EIG.run ~n:4 ~f:1 ~inputs:(Array.make 4 uni) ~faulty:Nodeset.empty ()
      in
      check "unanimous" true (ok_decides uni o))
    [ Bit.Zero; Bit.One ];
  let o =
    EIG.run ~n:4 ~f:1
      ~inputs:[| Bit.Zero; Bit.One; Bit.One; Bit.Zero |]
      ~faulty:Nodeset.empty ()
  in
  check "mixed" true (Spec.consensus_ok o)

let test_eig_k4_exhaustive () =
  List.iter
    (fun uni ->
      List.iter
        (fun attack ->
          List.iter
            (fun bad ->
              let inputs = Array.make 4 uni in
              inputs.(bad) <- Bit.flip uni;
              let o =
                EIG.run ~n:4 ~f:1 ~inputs ~faulty:(Nodeset.singleton bad)
                  ~attack ()
              in
              check "consensus" true (ok_decides uni o))
            [ 0; 1; 2; 3 ])
        [ EIG.Silent; EIG.Equivocate 3; EIG.Lie ])
    [ Bit.Zero; Bit.One ]

let test_eig_k7_f2 () =
  let inputs =
    Array.init 7 (fun i -> if i mod 2 = 0 then Bit.Zero else Bit.One)
  in
  List.iter
    (fun attack ->
      let o =
        EIG.run ~n:7 ~f:2 ~inputs ~faulty:(Nodeset.of_list [ 1; 4 ]) ~attack ()
      in
      check "consensus" true (Spec.consensus_ok o))
    [ EIG.Silent; EIG.Equivocate 1; EIG.Lie ]

let test_eig_rounds () =
  check_int "f=1" 2 (EIG.rounds ~f:1);
  check_int "f=3" 4 (EIG.rounds ~f:3)

let test_eig_attack_of_strategy () =
  (* One mapping for campaign scenarios and [lbcast run --algo eig]. *)
  List.iter
    (fun (kind, want) ->
      check
        (Format.asprintf "%a" S.pp_kind kind)
        true
        (EIG.attack_of_strategy ~seed:9 kind = want))
    [
      (S.Silent, EIG.Silent);
      (S.Crash_at 2, EIG.Silent);
      (S.Equivocate, EIG.Equivocate 9);
      (S.Lie, EIG.Lie);
      (S.Flip_forwards, EIG.Lie);
      (S.Honest_behavior, EIG.Lie);
      (S.Flip_from (Nodeset.singleton 0), EIG.Lie);
      (S.Omit_from (Nodeset.singleton 0), EIG.Lie);
      (S.Omit_sampled 1, EIG.Lie);
      (S.Spurious 2, EIG.Lie);
      (S.Noise 3, EIG.Lie);
    ];
  (* E8's EIG scenario (K7, f = 2, faulty {1, 4}, -s lie, all ones):
     21 transmissions, as its artifact records. *)
  let o =
    EIG.run ~n:7 ~f:2 ~inputs:(Array.make 7 Bit.One)
      ~faulty:(Nodeset.of_list [ 1; 4 ])
      ~attack:(EIG.attack_of_strategy ~seed:0 S.Lie)
      ()
  in
  check_int "e8 transmissions" 21 o.Spec.transmissions

let test_relay_no_faults () =
  let g = B.wheel 7 in
  let o =
    Relay.run ~g ~f:1 ~inputs:(Array.make 7 Bit.One) ~faulty:Nodeset.empty ()
  in
  check "unanimous" true (ok_decides Bit.One o)

let test_relay_wheel_exhaustive () =
  (* wheel(7): 3-connected = 2f+1 for f=1, n = 7 >= 4. *)
  let g = B.wheel 7 in
  List.iter
    (fun uni ->
      List.iter
        (fun kind ->
          List.iter
            (fun bad ->
              let inputs = Array.make 7 uni in
              inputs.(bad) <- Bit.flip uni;
              let o =
                Relay.run ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton bad)
                  ~strategy:(fun _ -> kind) ()
              in
              check
                (Format.asprintf "uni=%a bad=%d %a" Bit.pp uni bad S.pp_kind
                   kind)
                true (ok_decides uni o))
            [ 0; 1; 4 ])
        [ S.Equivocate; S.Lie; S.Silent; S.Flip_forwards ])
    [ Bit.Zero; Bit.One ]

let test_relay_rounds_linear () =
  let g = B.wheel 9 in
  check_int "(f+1)n" 18 (Relay.rounds ~g ~f:1)

let test_relay_circulant_f2 () =
  (* C9(1,2,3) is 6-regular hence >= 5-connected; n = 9 > 3f = 6. *)
  let g = B.circulant 9 [ 1; 2; 3 ] in
  let inputs = Array.make 9 Bit.Zero in
  inputs.(2) <- Bit.One;
  inputs.(7) <- Bit.One;
  let o =
    Relay.run ~g ~f:2 ~inputs ~faulty:(Nodeset.of_list [ 2; 7 ])
      ~strategy:(fun v -> if v = 2 then S.Equivocate else S.Lie)
      ()
  in
  check "consensus" true (ok_decides Bit.Zero o)

let () =
  Alcotest.run "baselines"
    [
      ( "eig",
        [
          Alcotest.test_case "no faults" `Quick test_eig_no_faults;
          Alcotest.test_case "K4 exhaustive" `Quick test_eig_k4_exhaustive;
          Alcotest.test_case "K7 f=2" `Quick test_eig_k7_f2;
          Alcotest.test_case "rounds" `Quick test_eig_rounds;
          Alcotest.test_case "attack of strategy" `Quick
            test_eig_attack_of_strategy;
        ] );
      ( "relay",
        [
          Alcotest.test_case "no faults" `Quick test_relay_no_faults;
          Alcotest.test_case "wheel exhaustive" `Slow
            test_relay_wheel_exhaustive;
          Alcotest.test_case "rounds linear" `Quick test_relay_rounds_linear;
          Alcotest.test_case "circulant f=2" `Slow test_relay_circulant_f2;
        ] );
    ]
