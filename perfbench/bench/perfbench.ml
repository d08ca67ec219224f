(* The repository benchmark. One workload per invocation, on one domain:

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] it times closed-loop passes of [Runner.run] over the
   workload's population, at least [min_passes] of them and more while
   they fit in [--seconds], and prints the end-to-end metrics, with every
   time scaled to a reference machine speed ({!Calib}). With [--trace 1]
   it runs one untraced and one traced pass, replays every scenario layer
   by layer with spans around each call, writes
   the spans to a trace file and prints the per-layer metrics. Either way
   every verdict must be Checked and ok and every pass must produce the
   same artifact digest; the last line of standard output is a JSON
   summary, and the exit code is 1 when anything was incorrect. See
   README.md beside this file. *)

open Perfbench_lib
module W = Workload
module Artifact = Lbc_campaign.Artifact

type metric = { name : string; value : float; unit_ : string; base : string }

let metric ?(base = "") name unit_ value = { name; value; unit_; base }
let ratio a b = if b = 0. then 0. else a /. b
let secs ns = float_of_int ns *. 1e-9

(* JSON numbers: integral values print as integers, the rest with the
   fewest digits that read back as the same float. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let exact p = float_of_string (Printf.sprintf "%.*g" p v) = v in
    let p = if exact 15 then 15 else if exact 16 then 16 else 17 in
    Printf.sprintf "%.*g" p v

let print_metrics metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-36s %16s %-6s%s\n" m.name (number m.value) m.unit_
        (if m.base = "" then "" else "  " ^ m.base))
    metrics

let print_summary ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (number m.value) m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " fields)

(* Set-up, timed. With [calib], a calibration slice is taken just before
   and just after it, and the interval is kept for scaling. *)
let timed_setup ?calib w times =
  Option.iter Calib.force calib;
  let t0 = Span.now_ns () in
  let p = W.setup w in
  let t1 = Span.now_ns () in
  Option.iter Calib.force calib;
  times := (t0, t1) :: !times;
  p

let initial_setups ?calib w times =
  let p = ref (timed_setup ?calib w times) in
  for _ = 2 to w.W.setup_reps do
    p := timed_setup ?calib w times
  done;
  !p

(* Correctness across passes: every pass correct, and one artifact digest
   for all of them. Prints the digest and the counters. *)
let check_passes passes =
  let failed = List.fold_left (fun k (ps : W.pass) -> k + ps.W.failed) 0 passes in
  let problems = List.concat_map (fun (ps : W.pass) -> ps.W.problems) passes in
  let digests =
    List.sort_uniq compare (List.filter_map (fun (ps : W.pass) -> ps.W.digest) passes)
  in
  let problems =
    match digests with
    | [ d ] ->
        Printf.printf "digest   %s (deterministic artifact, %d passes)\n" d
          (List.length passes);
        problems
    | ds -> problems @ [ Printf.sprintf "%d distinct artifact digests" (List.length ds) ]
  in
  (match passes with
  | ps :: _ -> List.iter (Printf.printf "counters %s\n") ps.W.counters
  | [] -> ());
  (failed, problems)

let print_times ~setups passes =
  let line xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs) in
  Printf.printf "setups   %s ms\n"
    (line (List.rev_map (fun (a, b) -> float_of_int (b - a) *. 1e-6) setups));
  Printf.printf "passes   %s s\n" (line (List.map (fun ps -> ps.W.wall_s) passes))

(* {1 End-to-end run} *)

let untraced w ~seed ~seconds =
  let calib = Calib.create Span.now_ns in
  Calib.force calib;
  let setups = ref [] in
  let p = initial_setups ~calib w setups in
  let passes = ref [] and measured = ref 0.0 in
  (* Whole passes only: at least [min_passes] while under the budget, then
     another one only while it is expected to end within the budget. *)
  let another () =
    match List.length !passes with
    | 0 -> true
    | k when k < w.W.min_passes && !measured < seconds -> true
    | k -> !measured +. (!measured /. float_of_int k) <= seconds
  in
  while another () do
    (* every pass starts from a compacted heap, as the first one starts
       from a fresh process *)
    if !passes <> [] then Gc.compact ();
    let pass = W.run_pass ~calib ~seed ~traced:false ~keep:false p in
    measured := !measured +. pass.W.wall_s;
    passes := pass :: !passes
  done;
  for _ = 1 to w.W.setup_after do
    ignore (timed_setup ~calib w setups)
  done;
  let passes = List.rev !passes in
  let n = Array.length p.W.scenarios in
  let k = List.length passes in
  print_times ~setups:!setups passes;
  let failed, problems = check_passes passes in
  let attempted = n * k in
  let scaled = Calib.scaled_ns calib in
  let setup_scaled =
    List.map (fun (a, b) -> scaled ~start:a ~stop:b *. 1e-9) !setups
  in
  let pass_scaled =
    List.map (fun (ps : W.pass) -> scaled ~start:ps.W.start_ns ~stop:ps.W.stop_ns *. 1e-9)
      passes
  in
  let raw_walls = List.map (fun (ps : W.pass) -> ps.W.wall_s) passes in
  let line f xs = String.concat " " (List.map (fun x -> Printf.sprintf "%.3f" (f x)) xs) in
  Printf.printf "setups'  %s ms (scaled)\n" (line (fun x -> x *. 1e3) (List.rev setup_scaled));
  Printf.printf "passes'  %s s (scaled)\n" (line Fun.id pass_scaled);
  Printf.printf "calib    %d slices; speed factor of each pass %s\n" (Calib.slices calib)
    (line Fun.id (List.map2 ( /. ) pass_scaled raw_walls));
  (* each scenario's scaled time in every pass, scenario 0 (which also
     holds the runner's start-up) excepted *)
  let per_scenario (ps : W.pass) =
    Array.init
      (max 0 (Array.length ps.W.ends - 1))
      (fun j -> scaled ~start:ps.W.starts.(j + 1) ~stop:ps.W.ends.(j + 1) *. 1e-6)
  in
  let runs = List.map per_scenario passes in
  let samples = List.fold_left (fun m a -> min m (Array.length a)) max_int runs in
  let samples = if samples = max_int then 0 else samples in
  let each = Array.init samples (fun j -> Rank.median (List.map (fun a -> a.(j)) runs)) in
  Array.sort Float.compare each;
  let above = Rank.above ~pct:90 samples in
  let problems =
    if above < 10 then
      problems
      @ [ Printf.sprintf "%d samples leave %d above p90, fewer than 10" samples above ]
    else problems
  in
  let pct p = if samples = 0 then 0. else Rank.percentile ~pct:p each in
  let sample_base =
    Printf.sprintf "scaled; median of %d executions of each of %d scenarios; %d above p90" k
      samples above
  in
  let first = List.hd passes in
  let fail_ratio = ratio (float_of_int failed) (float_of_int attempted) in
  let metrics =
    [
      metric "setup_s" "s" (Rank.median setup_scaled)
        ~base:
          (Printf.sprintf "scaled; median of %d set-ups (measured median %.4f s)"
             (List.length setup_scaled)
             (Rank.median (List.map (fun (a, b) -> secs (b - a)) !setups)));
      metric "scenarios_per_s" "1/s"
        (ratio (float_of_int n) (Rank.median pass_scaled))
        ~base:
          (Printf.sprintf
             "scaled; %d scenarios / %.3f s, the median of %d passes (measured median %.3f s)"
             n (Rank.median pass_scaled) k (Rank.median raw_walls));
      metric "scenario_ms.p50" "ms" (pct 50) ~base:sample_base;
      metric "scenario_ms.p90" "ms" (pct 90) ~base:sample_base;
      metric "alloc_words_per_scenario" "words"
        (ratio first.W.minor_words (float_of_int n))
        ~base:(Printf.sprintf "minor words of the first pass / %d scenarios" n);
      metric "peak_heap_mb" "MB"
        (float_of_int (first.W.top_heap_words * (Sys.word_size / 8)) *. 1e-6)
        ~base:"top_heap_words at the end of the first pass";
      metric "verdict_ok_ratio" "ratio" (1. -. fail_ratio)
        ~base:
          (Printf.sprintf "%d of %d verdicts Checked and ok; failed_ratio %s"
             (attempted - failed) attempted (number fail_ratio));
    ]
  in
  (problems, attempted, failed, metrics)

(* {1 Traced run} *)

let print_layers layers =
  Printf.printf "  %-20s %9s %12s %12s\n" "layer" "spans" "total_ms" "self_ms";
  List.iter
    (fun (l : Span.layer) ->
      Printf.printf "  %-20s %9d %12.3f %12.3f\n" l.name l.count
        (float_of_int l.total_ns *. 1e-6)
        (float_of_int l.self_ns *. 1e-6))
    layers

(* The per-layer metrics, from the spans, the replays' counters, the
   traced pass's artifact and the untraced base pass. *)
let layer_metrics ~n ~spans ~(acc : Replay.acc) ~bytes ~(base : W.pass)
    ~(pass : W.pass) =
  let layers = Span.layers spans in
  let layer name =
    match List.find_opt (fun (l : Span.layer) -> l.name = name) layers with
    | Some l -> l
    | None -> { Span.name; count = 0; total_ns = 0; self_ns = 0 }
  in
  print_layers layers;
  let total name = float_of_int (layer name).total_ns in
  let count name = (layer name).count in
  let total_ms name = total name *. 1e-6 in
  let mean_us name = ratio (total name *. 1e-3) (float_of_int (count name)) in
  let mean_base what name =
    Printf.sprintf "mean of %d %s%s" (count name) what
      (if count name = 0 then " (unused on this workload)" else "")
  in
  let counter cs name = float_of_int (Option.value ~default:0 (List.assoc_opt name cs)) in
  let exec = counter acc.exec_counters and fl = counter acc.flood_counters in
  let hits, misses, stores = acc.cache_counts in
  let hits = float_of_int hits in
  let lookups = hits +. float_of_int misses in
  let replayed = float_of_int acc.scenarios in
  let per_scenario = Printf.sprintf "per replayed scenario (%d)" acc.scenarios in
  let a2_runs = float_of_int (count "a2.run") and a1_runs = float_of_int (count "a1.run") in
  let run_ns = total "campaign.run" and exec_ns = total "scenario.execute" in
  let rx = float_of_int acc.rx in
  let pk_hit = exec "packing.cache_hit" in
  let pk_lookups = pk_hit +. exec "packing.cache_miss" in
  let m = metric in
  let untraced = "untraced pass" in
  [
    m "campaign.run_s" "s" (run_ns *. 1e-9)
      ~base:(Printf.sprintf "Runner.run, %d scenarios" n);
    m "campaign.execute_s" "s" (exec_ns *. 1e-9)
      ~base:
        (Printf.sprintf "Scenario.execute_observed on the %d executed scenarios"
           (count "scenario.execute"));
    m "campaign.plumbing_us_per_scenario" "us"
      (ratio ((run_ns -. exec_ns) *. 1e-3) (float_of_int n))
      ~base:(Printf.sprintf "(run - execute) / %d scenarios" n);
    m "journal.append_us" "us" (mean_us "journal.append")
      ~base:(mean_base "appends" "journal.append");
    m "cache.find_hit_us" "us" (mean_us "cache.find_hit")
      ~base:(mean_base "finds" "cache.find_hit");
    m "cache.find_miss_us" "us" (mean_us "cache.find_miss")
      ~base:(mean_base "finds" "cache.find_miss");
    m "cache.store_us" "us" (mean_us "cache.store") ~base:(mean_base "stores" "cache.store");
    m "cache.hits" "count" hits ~base:"scratch cache replay";
    m "cache.misses" "count" (float_of_int misses) ~base:"scratch cache replay";
    m "cache.stores" "count" (float_of_int stores) ~base:"scratch cache replay";
    m "cache.hit_ratio" "ratio" (ratio hits lookups)
      ~base:(Printf.sprintf "hits / lookups = %.0f / %.0f" hits lookups);
    m "artifact.to_string_ms" "ms"
      (mean_us "artifact.to_string" *. 1e-3)
      ~base:(mean_base "renderings" "artifact.to_string");
    m "artifact.bytes" "bytes" (float_of_int bytes) ~base:"Artifact.to_string";
    m "grid.enumerate_ms" "ms"
      (mean_us "grid.enumerate" *. 1e-3)
      ~base:(mean_base "set-ups" "grid.enumerate");
    m "a2.run_ms" "ms" (ratio (total_ms "a2.run") a2_runs)
      ~base:(mean_base "Algorithm2.run_traced" "a2.run");
    m "a2.attribution_ms" "ms"
      (ratio (total_ms "a2.attribution") a2_runs)
      ~base:"attribution_index over the honest nodes, per A2 run";
    m "a2.discover_ms" "ms"
      (ratio (total_ms "a2.discover") a2_runs)
      ~base:"discover over the honest nodes, per A2 run";
    m "a2.attribution_share" "ratio"
      (ratio (total "a2.attribution") (total "a2.run"))
      ~base:"a2.attribution_ms / a2.run_ms";
    m "a2.evidence.tamper" "count" (exec "a2.evidence.tamper");
    m "a2.evidence.omission" "count" (exec "a2.evidence.omission");
    m "a2.faults_discovered" "count" (exec "a2.faults_discovered.sum")
      ~base:
        (Printf.sprintf "over %.0f honest-node discoveries"
           (exec "a2.faults_discovered.count"));
    m "a2.type_a" "count" (exec "a2.type_a");
    m "a2.type_b" "count" (exec "a2.type_b");
    m "a1.run_ms" "ms" (ratio (total_ms "a1.run") a1_runs)
      ~base:(mean_base "Algorithm1.run" "a1.run");
    m "a1.phase_ms" "ms"
      (ratio (total_ms "a1.phase") (float_of_int (count "a1.phase")))
      ~base:(mean_base "observer intervals" "a1.phase");
    m "algo.phases" "count" (exec "algo.phases") ~base:"A1 and A2 phases executed";
    m "engine.self_ms" "ms"
      (ratio (float_of_int (layer "engine.run").self_ns *. 1e-6) replayed)
      ~base:("Engine.run minus honest steps, " ^ per_scenario);
    m "engine.rounds" "count" (float_of_int acc.rounds) ~base:"flood replays";
    m "engine.tx" "count" (float_of_int acc.tx) ~base:"flood replays";
    m "engine.rx" "count" rx ~base:"flood replays";
    m "flood.step_ms" "ms" (ratio (total_ms "flood.step") replayed)
      ~base:("honest Flood.proc steps, " ^ per_scenario);
    m "flood.step_share" "ratio"
      (ratio (total "flood.step") (total "engine.run"))
      ~base:"flood.step time / Engine.run time in the replays";
    m "flood.accept" "count" (fl "flood.accept");
    m "flood.reject_own" "count" (fl "flood.reject_own");
    m "flood.dedup_hit" "count" (fl "flood.dedup_hit");
    m "flood.reject_path" "count" (fl "flood.reject_path");
    m "flood.accept_ratio" "ratio" (ratio (fl "flood.accept") rx)
      ~base:(Printf.sprintf "flood.accept / engine.rx = %.0f / %.0f" (fl "flood.accept") rx);
    m "packing.cache_hit" "count" pk_hit;
    m "packing.cache_miss" "count" (exec "packing.cache_miss");
    m "packing.dfs_visited" "count" (exec "packing.dfs_visited");
    m "packing.hit_ratio" "ratio" (ratio pk_hit pk_lookups)
      ~base:(Printf.sprintf "hits / lookups = %.0f / %.0f" pk_hit pk_lookups);
    m "gc.minor_words" "words" base.minor_words ~base:untraced;
    m "gc.promoted_words" "words" base.promoted_words ~base:untraced;
    m "gc.promoted_ratio" "ratio"
      (ratio base.promoted_words base.minor_words)
      ~base:"promoted / minor words";
    m "gc.minor_collections" "count" (float_of_int base.minor_collections) ~base:untraced;
    m "gc.major_collections" "count" (float_of_int base.major_collections) ~base:untraced;
    m "trace.overhead_ratio" "ratio" (ratio pass.wall_s base.wall_s)
      ~base:
        (Printf.sprintf "traced / untraced Runner.run = %.3f s / %.3f s" pass.wall_s
           base.wall_s);
  ]

let print_sanity metrics =
  let value name = (List.find (fun x -> x.name = name) metrics).value in
  let shown name = if value name = 0. then "n/a" else Printf.sprintf "%.3f" (value name) in
  Printf.printf
    "sanity   a2.attribution_share %s (reference 0.60 on a2-fig1b; ROADMAP 58%%)   \
     flood.step_share %s (reference 0.86 on a1-petersen)\n"
    (shown "a2.attribution_share") (shown "flood.step_share")

let traced w ~seed ~work ~trace_path =
  Span.start ();
  let setups = ref [] in
  let p = W.traced_subset w (initial_setups w setups) in
  let base = Span.paused (fun () -> W.run_pass ~seed ~traced:false ~keep:false p) in
  let pass = W.run_pass ~seed ~traced:true ~keep:true p in
  print_times ~setups:!setups [ base; pass ];
  let failed, problems = check_passes [ base; pass ] in
  let artifact =
    match pass.W.artifact with Some a -> a | None -> failwith "partial run"
  in
  let acc = Replay.create () in
  let entries =
    Array.mapi
      (fun i s ->
        Replay.scenario acc ~base_seed:seed ~index:i s
          ~reference:artifact.Artifact.verdicts.(i))
      p.W.scenarios
  in
  if w.W.storage then begin
    Replay.journal
      ~path:(Filename.concat work "scratch.journal")
      ~name:p.W.grid.Lbc_campaign.Grid.name ~base_seed:seed p.W.scenarios entries;
    Replay.cache acc
      ~dir:(Filename.concat work "scratch-cache")
      ~base_seed:seed p.W.scenarios entries
  end;
  let bytes = ref 0 in
  for _ = 1 to 3 do
    let s = Span.with_span "artifact.to_string" (fun () -> Artifact.to_string artifact) in
    bytes := String.length s
  done;
  let spans = Span.stop () in
  Span.write ~path:trace_path spans;
  Printf.printf "spans    %d written to %s\n" (Array.length spans) trace_path;
  let n = Array.length p.W.scenarios in
  let metrics = layer_metrics ~n ~spans ~acc ~bytes:!bytes ~base ~pass in
  print_sanity metrics;
  (problems @ List.rev acc.problems, n, failed, metrics)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " " ^ String.concat " | " (List.map (fun w -> w.W.name) W.all) );
      ("--seed", Arg.Set_int seed, " base seed of every scenario");
      ("--seconds", Arg.Set_int seconds, " measured seconds (whole passes)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match W.find !workload with
    | Some w when !seed >= 0 && !seconds >= 1 && (!trace = 0 || !trace = 1) -> w
    | _ ->
        prerr_endline usage;
        exit 2
  in
  (* Scratch files and traces stay inside the checkout. *)
  let out = ".perfbench" in
  let scratch = Filename.concat out w.W.name in
  W.rm_rf scratch;
  W.mkdir_p scratch;
  Printf.printf "workload %s seed %d seconds %d trace %d\n%!" w.W.name !seed !seconds
    !trace;
  let problems, attempted, failed, metrics =
    if !trace = 1 then
      let name = Printf.sprintf "trace-%s-seed%d.tsv" w.W.name !seed in
      traced w ~seed:!seed ~work:scratch ~trace_path:(Filename.concat out name)
    else untraced w ~seed:!seed ~seconds:(float_of_int !seconds)
  in
  W.rm_rf scratch;
  List.iter (Printf.printf "INCORRECT: %s\n") problems;
  print_metrics metrics;
  let correct = problems = [] && failed = 0 in
  print_summary ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
