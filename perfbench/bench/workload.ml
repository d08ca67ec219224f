(* The benchmark's workloads, their set-up, and one timed pass of
   [Runner.run] over a prepared population. *)

open Perfbench_lib
module Sc = Lbc_campaign.Scenario
module Grid = Lbc_campaign.Grid
module Runner = Lbc_campaign.Runner
module Artifact = Lbc_campaign.Artifact
module S = Lbc_adversary.Strategy
module B = Lbc_graph.Builders
module Nodeset = Lbc_graph.Nodeset

type t = {
  name : string;
  grid : unit -> Grid.t;
  feasible : unit -> bool;
      (** the graph meets the conditions under which every verdict must
          be ok *)
  storage : bool;
      (** the traced run also replays the campaign's storage layers: a
          journal and a one-in-three pre-filled result cache *)
  setup_reps : int;  (** set-ups before the first pass *)
  setup_after : int;
      (** set-ups after the last pass, so that the reported median samples
          the machine at both ends of the run *)
  min_passes : int;
      (** every scenario runs at least this often (unless the passes
          already exceed [--seconds]), so that its time is the median of
          executions taken at moments far apart *)
  traced : int -> bool;  (** the scenario indices the traced run covers *)
}

(* All 28 fault pairs with three strategies, one mode each on a quiet
   machine: Noise ~10 ms, Omit_from ~90 ms, Flip_forwards ~300 ms.
   Omit_from runs with both unanimous inputs and the other two with one,
   alternating by pair, so the four scenarios of a pair sort into quarters
   Noise | Omit_from | Omit_from | Flip_forwards: p50 falls in the middle
   of the Omit_from half and p90 inside the Flip_forwards quarter. Silent
   (~9 ms) is left out, as it would share the bottom mode. Halving the
   Flip_forwards share keeps a pass short enough for two per run. *)
let a2_grid () =
  let g = B.fig1b () in
  let scenario ~faulty strategy inputs =
    Sc.make ~gname:"fig1b" ~build:B.fig1b ~algo:Sc.A2 ~f:2 ~faulty ~strategy ~inputs ()
  in
  let pair k faulty =
    match Grid.unanimous_inputs g ~faulty with
    | [ zeros; ones ] ->
        let one = if k mod 2 = 0 then zeros else ones in
        [
          scenario ~faulty (S.Noise 2) one;
          scenario ~faulty (S.Omit_from (Nodeset.of_list [ 2; 3 ])) zeros;
          scenario ~faulty (S.Omit_from (Nodeset.of_list [ 2; 3 ])) ones;
          scenario ~faulty S.Flip_forwards one;
        ]
    | _ -> invalid_arg "a2_grid: two unanimous inputs expected"
  in
  Grid.of_list ~name:"a2-fig1b"
    (List.concat (List.mapi pair (Grid.placements_of_size 2 g ~f:2)))

let a2_fig1b =
  {
    name = "a2-fig1b";
    grid = a2_grid;
    feasible =
      (fun () -> Lbc_graph.Disjoint.connectivity_at_least (B.fig1b ()) (2 * 2));
    storage = false;
    setup_reps = 20;
    setup_after = 20;
    min_passes = 2;
    (* every other fault pair, keeping the strategy mix *)
    traced = (fun i -> i / 4 mod 2 = 0);
  }

let campaign_e1 =
  {
    name = "campaign-e1";
    grid = (fun () -> Lbc_campaign.Grids.e1 ());
    feasible =
      (fun () ->
        let g = B.fig1a () in
        Lbc_graph.Conditions.lbc_feasible g ~f:1
        && Lbc_graph.Disjoint.connectivity_at_least g 2);
    storage = true;
    setup_reps = 20;
    setup_after = 20;
    min_passes = 3;
    traced = (fun _ -> true);
  }

let all = [ a2_fig1b; campaign_e1 ]
let find name = List.find_opt (fun w -> w.name = name) all

(* {1 Scratch files} — all under the working directory given by the
   caller, inside the checkout. *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* {1 Set-up} *)

type prepared = {
  scenarios : Sc.t array;
  grid : Grid.t;  (** the enumerated population, as handed to the runner *)
}

(* Everything before the first timed scenario: enumerate the grid and
   check the graph's feasibility. *)
let setup (w : t) =
  let grid = w.grid () in
  let scenarios =
    Span.with_span "grid.enumerate" (fun () -> Grid.to_array grid)
  in
  if not (w.feasible ()) then failwith (w.name ^ ": graph is not feasible");
  { scenarios; grid = Grid.of_list ~name:grid.Grid.name (Array.to_list scenarios) }

(* The traced run's population. *)
let traced_subset (w : t) p =
  let keep = List.filter w.traced (List.init (Array.length p.scenarios) Fun.id) in
  let scenarios = Array.of_list (List.map (Array.get p.scenarios) keep) in
  { scenarios; grid = Grid.of_list ~name:p.grid.Grid.name (Array.to_list scenarios) }

(* {1 Correctness} *)

let verdict_ok (v : Sc.verdict) =
  match v.Sc.status with Sc.Checked -> v.Sc.ok | _ -> false

let digest a = Digest.to_hex (Digest.string (Artifact.deterministic_string a))

(* Failed scenarios of a pass (all of them when it did not complete), and
   the reasons the pass is not correct. *)
let check p ~progress_calls outcome =
  let n = Array.length p.scenarios in
  match outcome with
  | Runner.Partial _ -> (n, [ "runner returned a partial outcome" ])
  | Runner.Complete a ->
      let failed =
        Array.fold_left
          (fun k v -> if verdict_ok v then k else k + 1)
          0 a.Artifact.verdicts
      in
      let problems = ref [] in
      let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
      if failed > 0 then fail "%d verdicts are not Checked and ok" failed;
      if Array.length a.Artifact.verdicts <> n then
        fail "%d verdicts for %d scenarios" (Array.length a.Artifact.verdicts) n;
      if a.Artifact.quarantined <> [] then fail "quarantined scenarios";
      if progress_calls <> n then
        fail "%d progress callbacks for %d scenarios" progress_calls n;
      (failed, List.rev !problems)

(* The deterministic counters of an artifact's stats section, one line per
   algorithm. *)
let counter_lines a =
  List.map
    (fun (s : Lbc_campaign.Stats.algo_stats) ->
      Printf.sprintf "%s scenarios=%d %s" s.algo s.scenarios
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.counters)))
    a.Artifact.stats

(* {1 One timed pass} *)

type pass = {
  wall_s : float;  (** less the calibration slices taken during the pass *)
  start_ns : int;
  stop_ns : int;
  starts : int array;
  ends : int array;
      (** scenario [k]'s time is [starts.(k)] to [ends.(k)]: from the
          progress callback of scenario [k - 1] (and the calibration slice
          it took, if any) to that of scenario [k]; scenario 0's starts
          with [Runner.run] *)
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
  failed : int;  (** verdicts not Checked and ok *)
  problems : string list;  (** why the pass is not correct *)
  digest : string option;  (** of the deterministic artifact *)
  counters : string list;  (** {!counter_lines} *)
  artifact : Artifact.t option;  (** kept only when asked for *)
}

(* [Runner.run] on one domain with the workload's seed as base seed,
   checked as soon as it returns. When [traced], each progress interval is
   also recorded as a [scenario] span under the [campaign.run] span. With
   [calib], the progress callback takes the calibration slices that are
   due. The artifact is dropped unless [keep], so that passes do not pile
   up live data in the heap. *)
let run_pass ?calib ~seed ~traced ~keep p =
  let n = Array.length p.scenarios in
  let starts = Array.make (n + 1) 0 and ends = Array.make n 0 in
  let calls = ref 0 in
  let progress ~done_scenarios:_ ~total:_ =
    let t = Span.now_ns () in
    let k = !calls in
    if k < n then begin
      ends.(k) <- t;
      if traced then
        Span.record ~scenario:k ~name:"scenario" ~start_ns:starts.(k) ~stop_ns:t
          ();
      Option.iter Calib.tick calib;
      starts.(k + 1) <- Span.now_ns ()
    end;
    calls := k + 1
  in
  let config =
    {
      Runner.default with
      base_seed = seed;
      progress = Some progress;
    }
  in
  let gc0 = Gc.quick_stat () in
  let words0 = Gc.minor_words () in
  let t0 = Span.now_ns () in
  let outcome =
    Span.with_span "campaign.run" (fun () ->
        starts.(0) <- Span.now_ns ();
        Runner.run ~config p.grid)
  in
  let t1 = Span.now_ns () in
  let words1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  let in_slices = ref 0 in
  for k = 0 to min !calls n - 1 do
    in_slices := !in_slices + (starts.(k + 1) - ends.(k))
  done;
  let failed, problems = check p ~progress_calls:!calls outcome in
  let artifact =
    match outcome with Runner.Complete a -> Some a | Runner.Partial _ -> None
  in
  {
    wall_s = float_of_int (t1 - t0 - !in_slices) *. 1e-9;
    start_ns = t0;
    stop_ns = t1;
    starts = Array.sub starts 0 (min !calls n);
    ends = Array.sub ends 0 (min !calls n);
    minor_words = words1 -. words0;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    top_heap_words = gc1.Gc.top_heap_words;
    failed;
    problems;
    digest = Option.map digest artifact;
    counters = Option.fold ~none:[] ~some:counter_lines artifact;
    artifact = (if keep then artifact else None);
  }

