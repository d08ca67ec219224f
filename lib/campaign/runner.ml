type config = {
  domains : int;
  base_seed : int;
  journal : string option;
  cache : string option;
  stop_after : int option;
  progress : (done_scenarios:int -> total:int -> unit) option;
  max_rounds : int option;
  deadline_s : float option;
  retries : int;
  strict : bool;
  kill_after_verdicts : (int * bool) option;
}

let default =
  {
    domains = 1;
    base_seed = 0;
    journal = None;
    cache = None;
    stop_after = None;
    progress = None;
    max_rounds = None;
    deadline_s = None;
    retries = 1;
    strict = false;
    kill_after_verdicts = None;
  }

type outcome =
  | Complete of Artifact.t
  | Partial of { completed : int; total : int; recovery : Journal.recovery }

let now = Clock.now_s

(* The watchdog's budget when no --max-rounds is set: large enough that
   fuel alone never fires, small enough that zeroing the cell stops the
   engine within one round. *)
let watchdog_budget = 1_000_000

let run ?(config = default) grid =
  let config =
    { config with domains = max 1 config.domains; retries = max 0 config.retries }
  in
  let started = now () in
  let scenarios = Grid.to_array grid in
  let total = Array.length scenarios in
  let fingerprint = Grid.fingerprint scenarios in
  let budget = Option.value ~default:0 config.max_rounds in
  let header =
    {
      Journal.campaign = grid.Grid.name;
      count = total;
      base_seed = config.base_seed;
      budget;
      fingerprint;
    }
  in
  (* Resume: adopt every journaled verdict for this exact grid identity.
     Slots are keyed by scenario index; first record wins (duplicates can
     only arise from a resumed run racing a kill, and are identical). *)
  let slots : Journal.record option array = Array.make total None in
  let recovery, writer =
    match config.journal with
    | None -> (Journal.no_recovery, None)
    | Some path ->
        let records, recovery = Journal.recover ~path ~header in
        List.iter
          (fun (r : Journal.record) ->
            if r.Journal.index >= 0 && r.Journal.index < total
               && slots.(r.Journal.index) = None
            then slots.(r.Journal.index) <- Some r)
          records;
        let kill =
          Option.map
            (fun (after, torn) -> { Journal.after; torn })
            config.kill_after_verdicts
        in
        (recovery, Some (Journal.open_writer ~path ~header ?kill ()))
  in
  let resumed =
    Array.fold_left (fun k r -> if r = None then k else k + 1) 0 slots
  in
  let pending =
    Array.of_list
      (List.filter_map
         (fun i -> if slots.(i) = None then Some i else None)
         (List.init total Fun.id))
  in
  let pending =
    match config.stop_after with
    | Some k when k < Array.length pending -> Array.sub pending 0 (max 0 k)
    | _ -> pending
  in
  let cache =
    match config.cache with
    | None -> None
    | Some dir -> Some (Cache.create ~dir)
  in
  (* Fuel-cell registry: scenario index → the live fuel counter of the
     worker executing it. The watchdog zeroes an overdue scenario's cell
     from its own domain, turning the hang into Fuel_exhausted — and so
     into the ordinary Timed_out verdict — on the worker. *)
  let cells_mutex = Mutex.create () in
  let cells : (int, int Atomic.t) Hashtbl.t = Hashtbl.create 16 in
  let with_registered_fuel i thunk =
    match (config.max_rounds, config.deadline_s) with
    | None, None -> thunk ()
    | _ ->
        let fuel =
          match config.max_rounds with
          | Some b -> b
          | None -> watchdog_budget
        in
        Lbc_sim.Engine.with_fuel ~budget:fuel (fun () ->
            (match Lbc_sim.Engine.current_fuel_cell () with
            | Some cell ->
                Mutex.lock cells_mutex;
                Hashtbl.replace cells i cell;
                Mutex.unlock cells_mutex
            | None -> ());
            Fun.protect
              ~finally:(fun () ->
                Mutex.lock cells_mutex;
                Hashtbl.remove cells i;
                Mutex.unlock cells_mutex)
              thunk)
  in
  let on_overdue _pos i =
    Mutex.lock cells_mutex;
    (match Hashtbl.find_opt cells i with
    | Some cell -> Atomic.set cell 0
    | None -> ());
    Mutex.unlock cells_mutex
  in
  (* The sink serializes slot filling, journal appends and progress
     snapshots across worker domains. *)
  let sink = Mutex.create () in
  let done_count = ref resumed in
  let exec i =
    let s = scenarios.(i) in
    let key =
      Cache.key ~id:(Scenario.id s) ~base_seed:config.base_seed ~budget
    in
    let record =
      match Option.bind cache (fun c -> Cache.find c ~key) with
      | Some (e : Cache.entry) ->
          (* A hit replays the stored verdict; only the index is
             positional and is remapped to this grid. wall_s is 0: the
             execution cost was not paid by this run. *)
          {
            Journal.index = i;
            wall_s = 0.0;
            algo = e.Cache.algo;
            counters = e.Cache.counters;
            verdict = { e.Cache.verdict with Scenario.index = i };
          }
      | None ->
          let t0 = now () in
          let v, counters =
            with_registered_fuel i (fun () ->
                Scenario.execute_observed ~base_seed:config.base_seed ~index:i
                  s)
          in
          (* Strict mode re-raises contained failures so they poison the
             pool — the fail-fast discipline, with the scenario id in the
             failure message. *)
          (if config.strict then
             match v.Scenario.status with
             | Scenario.Checked -> ()
             | Scenario.Timed_out { budget } ->
                 failwith
                   (Printf.sprintf "scenario %s timed out (round budget %d)"
                      v.Scenario.id budget)
             | Scenario.Crashed { exn; _ } ->
                 failwith
                   (Printf.sprintf "scenario %s crashed: %s" v.Scenario.id exn));
          let wall = now () -. t0 in
          (match cache with
          | Some c -> (
              (* Watchdog-induced timeouts are wall-clock accidents, not
                 content-derived verdicts — caching one would poison
                 future runs with this machine's scheduling luck. *)
              match (v.Scenario.status, config.deadline_s) with
              | Scenario.Timed_out _, Some _ -> ()
              | _ ->
                  Cache.store c ~key
                    {
                      Cache.algo = Scenario.algo_name s.Scenario.algo;
                      counters;
                      verdict = v;
                    })
          | None -> ());
          {
            Journal.index = i;
            wall_s = wall;
            algo = Scenario.algo_name s.Scenario.algo;
            counters;
            verdict = v;
          }
    in
    (* The critical section must unlock on any exception (journal I/O
       errors and the kill shim both raise mid-append). Recording is
       idempotent: a retried scenario whose first attempt already
       recorded must not double-count, re-append or replay its progress
       callback. The user progress callback runs outside the lock, on a
       snapshot taken under it. *)
    Mutex.lock sink;
    let snapshot =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock sink)
        (fun () ->
          if slots.(i) = None then begin
            slots.(i) <- Some record;
            incr done_count;
            (match writer with
            | Some w -> Journal.append w record
            | None -> ());
            Some !done_count
          end
          else None)
    in
    match (snapshot, config.progress) with
    | Some snap, Some f -> f ~done_scenarios:snap ~total
    | _ -> ()
  in
  let describe _pos i =
    Printf.sprintf "scenario %d: %s" i (Scenario.id scenarios.(i))
  in
  Fun.protect ~finally:(fun () -> Option.iter Journal.close writer)
  @@ fun () ->
  let steal_report, failures =
    (* Strict mode is the same scheduler with no retries and every
       exception fatal: the first crashed or timed-out scenario aborts
       the pool with [exec]'s [Failure] naming the scenario id. *)
    Pool.run_stealing ~describe ~seed:config.base_seed
      ~retries:(if config.strict then 0 else config.retries)
      ?deadline:
        (Option.map (fun limit -> (limit, on_overdue)) config.deadline_s)
      ~fatal:(function Journal.Killed _ -> true | _ -> config.strict)
      ~domains:config.domains ~tasks:pending
      (fun _pos i -> exec i)
  in
  (* Quarantine at scenario granularity: the failing scenario gets a
     deterministic crash-record verdict; every other scenario is
     unaffected. Quarantined verdicts are deliberately NOT journaled
     — a resumed run gets a fresh chance at them. *)
  let quarantined =
    List.map
      (fun (fl : Pool.failure) ->
        let i = pending.(fl.Pool.index) in
        let s = scenarios.(i) in
        let id = Scenario.id s in
        let message =
          match fl.Pool.prior_messages with
          | [] -> fl.Pool.message
          | prior -> String.concat "; then " (prior @ [ fl.Pool.message ])
        in
        (if slots.(i) = None then
           let seed = Scenario.scenario_seed ~base:config.base_seed s in
           let verdict =
             Scenario.crashed_verdict ~index:i ~id
               ~repro:(Scenario.repro_command s ~seed) ~message
           in
           slots.(i) <-
             Some
               {
                 Journal.index = i;
                 wall_s = 0.0;
                 algo = Scenario.algo_name s.Scenario.algo;
                 counters = [];
                 verdict;
               });
        { Artifact.index = i; id; message })
      failures
  in
  if Array.exists (( = ) None) slots then
    Partial { completed = !done_count; total; recovery }
  else begin
    let records = Array.map Option.get slots in
    let verdicts = Array.map (fun r -> r.Journal.verdict) records in
    (* Stats merge in scenario order — but merging is commutative, so any
       order (and any resume/steal split) yields the same aggregate. *)
    let stats =
      Array.fold_left
        (fun acc (r : Journal.record) ->
          Stats.merge acc (Stats.single ~algo:r.Journal.algo r.Journal.counters))
        Stats.empty records
    in
    let slowest =
      let timed =
        List.filter
          (fun (_, w) -> w > 0.0)
          (Array.to_list
             (Array.map
                (fun (r : Journal.record) -> (r.Journal.index, r.Journal.wall_s))
                records))
      in
      let cmp (i1, w1) (i2, w2) =
        match Float.compare w2 w1 with 0 -> Int.compare i1 i2 | c -> c
      in
      List.filteri (fun k _ -> k < 8) (List.sort cmp timed)
    in
    let artifact =
      {
        Artifact.campaign = grid.Grid.name;
        count = total;
        base_seed = config.base_seed;
        grid_fingerprint = fingerprint;
        verdicts;
        stats;
        quarantined;
        run =
          {
            Artifact.domains = config.domains;
            wall_s = now () -. started;
            slowest;
            resumed_scenarios = resumed;
            cache =
              (match cache with
              | None -> Artifact.no_cache_info
              | Some c ->
                  {
                    Artifact.hits = Cache.hits c;
                    misses = Cache.misses c;
                    stores = Cache.stores c;
                  });
            steal =
              {
                Artifact.steals = steal_report.Pool.steals;
                retried = steal_report.Pool.retried;
              };
            recovery =
              {
                Artifact.recovered_records = recovery.Journal.recovered;
                dropped_bytes = recovery.Journal.dropped_bytes;
                first_corrupt_record = recovery.Journal.first_corrupt;
              };
          };
      }
    in
    (match config.journal with
    | Some path ->
        Option.iter Journal.close writer;
        Journal.remove ~path
    | None -> ());
    Complete artifact
  end

let run_exn ?config grid =
  match run ?config grid with
  | Complete a -> a
  | Partial { completed; total; recovery } ->
      let damage =
        if recovery.Journal.dropped_bytes > 0 then
          Printf.sprintf "; journal recovery dropped %d bytes%s"
            recovery.Journal.dropped_bytes
            (match recovery.Journal.first_corrupt with
            | Some n -> Printf.sprintf " at record %d" n
            | None -> "")
        else ""
      in
      failwith
        (Printf.sprintf "campaign %s stopped at %d/%d scenarios%s"
           grid.Grid.name completed total damage)
