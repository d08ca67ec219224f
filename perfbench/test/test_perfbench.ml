open Perfbench_lib

(* Percentile rule: a reported percentile needs at least 10 samples above
   it. *)
let test_rank () =
  Alcotest.(check int) "p90 of 100 is the 90th" 90 (Rank.rank ~pct:90 100);
  Alcotest.(check int) "10 above p90 of 100" 10 (Rank.above ~pct:90 100);
  Alcotest.(check int) "9 above p90 of 99" 9 (Rank.above ~pct:90 99);
  Alcotest.(check int) "10 above p50 of 20" 10 (Rank.above ~pct:50 20);
  Alcotest.(check int) "9 above p50 of 19" 9 (Rank.above ~pct:50 19);
  Alcotest.(check int) "16 above p90 of 167 (a2-fig1b)" 16 (Rank.above ~pct:90 167);
  Alcotest.(check int) "rank is at least 1" 1 (Rank.rank ~pct:50 1);
  let sorted = Array.init 200 float_of_int in
  Alcotest.(check (float 0.)) "p50 of 0..199" 99. (Rank.percentile ~pct:50 sorted);
  Alcotest.(check (float 0.)) "p90 of 0..199" 179. (Rank.percentile ~pct:90 sorted);
  Alcotest.(check (float 0.)) "median" 2. (Rank.median [ 3.; 1.; 2. ])

let span ~id ?(parent = -1) a b =
  { Span.id; name = Printf.sprintf "s%d" id; start_ns = a; stop_ns = b; parent;
    scenario = -1 }

let test_covered () =
  let check msg want got = Alcotest.(check int) msg want got in
  check "empty" 0 (Span.covered ~lo:0 ~hi:10 []);
  check "adjacent" 6 (Span.covered ~lo:0 ~hi:10 [ (1, 4); (4, 7) ]);
  check "nested" 5 (Span.covered ~lo:0 ~hi:10 [ (2, 7); (3, 5) ]);
  check "overlap" 6 (Span.covered ~lo:0 ~hi:10 [ (5, 9); (3, 6) ]);
  check "clipped" 2 (Span.covered ~lo:2 ~hi:6 [ (0, 3); (5, 20) ]);
  check "disjoint" 4 (Span.covered ~lo:0 ~hi:10 [ (8, 9); (0, 3) ])

(* Self time: a root [0,100) with two adjacent children [10,30) and
   [30,60), the second holding a nested grandchild [40,50). The
   grandchild counts against its parent only. *)
let test_self_time () =
  let spans =
    [|
      span ~id:0 0 100;
      span ~id:1 ~parent:0 10 30;
      span ~id:2 ~parent:0 30 60;
      span ~id:3 ~parent:2 40 50;
    |]
  in
  Alcotest.(check (array int)) "self" [| 50; 20; 20; 10 |] (Span.self_ns spans);
  let layers = Span.layers spans in
  Alcotest.(check (list string)) "first-appearance order"
    [ "s0"; "s1"; "s2"; "s3" ]
    (List.map (fun (l : Span.layer) -> l.name) layers)

let test_recorder () =
  Span.start ();
  let v =
    Span.with_span ~scenario:7 "outer" (fun () ->
        Span.with_span "inner" (fun () -> ());
        Span.record ~name:"measured" ~start_ns:1 ~stop_ns:2 ();
        42)
  in
  Span.with_span "after" ignore;
  let spans = Span.stop () in
  Alcotest.(check int) "result" 42 v;
  let parents = Array.map (fun (s : Span.span) -> (s.name, s.parent, s.scenario)) spans in
  Alcotest.(check (array (triple string int int)))
    "links"
    [| ("outer", -1, 7); ("inner", 0, 7); ("measured", 0, 7); ("after", -1, -1) |]
    parents;
  Alcotest.(check int) "nothing recorded after stop" 0
    (Span.with_span "ignored" ignore;
     Array.length (Span.stop ()))

(* One-in-three pre-fill of the traced run's scratch cache: every third
   scenario is a hit, the other two thirds miss and are stored. *)
let test_prefill () =
  for n = 1 to 60 do
    let hits = List.length (List.filter Prefill.prefilled (List.init n Fun.id)) in
    Alcotest.(check int) (Printf.sprintf "hits of %d" n) hits (Prefill.hits n);
    Alcotest.(check int) "misses" (n - hits) (Prefill.misses n)
  done;
  Alcotest.(check int) "E1 hits" 1174 (Prefill.hits 3520);
  Alcotest.(check int) "E1 misses" 2346 (Prefill.misses 3520)

(* Calibration: ten slices at the reference speed, then ten at half of
   it, 100 ns apart. *)
let recorder () =
  let r = Calib.create (fun () -> 0) in
  for i = 0 to 19 do
    Calib.push r (i * 100) (if i < 10 then Calib.reference_ns else 2 * Calib.reference_ns)
  done;
  r

let test_factor () =
  let r = recorder () in
  let check msg want got = Alcotest.(check (float 1e-9)) msg want got in
  let slow = 0.5 ** Calib.gamma in
  check "fast stretch" 1.0 (Calib.factor ~k:3 r 450);
  check "slow stretch" slow (Calib.factor ~k:3 r 1450);
  check "before the first slice" 1.0 (Calib.factor ~k:3 r (-500));
  check "after the last slice" slow (Calib.factor ~k:3 r 5000);
  (* nearest five to 1000 are slices 8..12: three slow, so the median is slow *)
  check "median of the nearest" slow (Calib.factor ~k:5 r 1000);
  check "k above the slice count" ((2. /. 3.) ** Calib.gamma) (Calib.factor ~k:40 r 0)

(* Scaled time: slices inside an interval are left out, and every piece
   is scaled by the speed factor around it. *)
let test_scaled () =
  let at_reference = Calib.create (fun () -> 0) in
  Calib.push at_reference 0 Calib.reference_ns;
  Alcotest.(check (float 1e-9)) "reference speed" 50.
    (Calib.scaled_ns at_reference ~start:2000 ~stop:2050);
  let r = Calib.create (fun () -> 0) in
  Calib.push r 100 10;
  Calib.push r 300 10;
  Calib.push r 1000 (Calib.reference_ns / 10);
  (* the three slices' median is 10 ns, a speed factor of
     (reference / 10) ** gamma *)
  let f = (float_of_int Calib.reference_ns /. 10.) ** Calib.gamma in
  (* [0,100) + [110,300) + [310,400) *)
  Alcotest.(check (float 1e-3)) "slices left out" (380. *. f)
    (Calib.scaled_ns r ~start:0 ~stop:400);
  Alcotest.(check (float 1e-3)) "no slice inside" (10. *. f)
    (Calib.scaled_ns r ~start:120 ~stop:130)

let () =
  Alcotest.run "perfbench"
    [
      ( "rank",
        [ Alcotest.test_case "percentile rule" `Quick test_rank ] );
      ( "span",
        [
          Alcotest.test_case "covered" `Quick test_covered;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "prefill", [ Alcotest.test_case "one in three" `Quick test_prefill ] );
      ( "calib",
        [
          Alcotest.test_case "speed factor" `Quick test_factor;
          Alcotest.test_case "scaled time" `Quick test_scaled;
        ] );
    ]
