(** The campaign's worker pool on OCaml 5 domains.

    Built on the stdlib only ([Domain], [Mutex], [Atomic] — domainslib
    is deliberately not a dependency). Campaign determinism is
    unaffected by scheduling because results are keyed by task, not by
    completion order.

    One discipline, {!run_stealing}: per-worker contiguous blocks with
    tail-stealing (a straggler task does not idle the other workers),
    capped-exponential-backoff retries with deterministic jitter, an
    optional per-task deadline watchdog, and a fatal-exception escape.
    With [domains <= 1] no worker domain is spawned and the calling
    domain drains the tasks itself — through {e the same} worker loop
    and exception-capture path as spawned workers, so 1-domain and
    N-domain campaigns fail identically. Fail-fast use (the runner's
    strict mode) is [~retries:0 ~fatal:(fun _ -> true)]. *)

type failure = {
  index : int;  (** position of the failing task in [tasks] *)
  description : string;  (** from [describe]; [""] if none given *)
  message : string;  (** [Printexc.to_string] of the final exception *)
  backtrace : string;  (** captured at the final raise, in the worker *)
  attempts : int;  (** executions attempted (retries + 1) *)
  prior_messages : string list;
      (** messages of the earlier failed attempts, oldest first — so a
          transient-then-different failure is distinguishable from a
          deterministic one repeating verbatim *)
}

type steal_report = {
  steals : int;  (** tasks executed by a non-owner worker *)
  retried : int;  (** retry attempts across all tasks *)
}

val run_stealing :
  ?describe:(int -> 'a -> string) ->
  ?seed:int ->
  ?retries:int ->
  ?backoff_s:float * float ->
  ?deadline:float * (int -> 'a -> unit) ->
  ?fatal:(exn -> bool) ->
  domains:int ->
  tasks:'a array ->
  (int -> 'a -> unit) ->
  steal_report * failure list
(** The scenario-granular campaign scheduler. Tasks are partitioned into
    contiguous per-worker blocks; each worker pops its own block from the
    front and, when empty, steals from the {e back} of other workers'
    blocks in ring order. [f] receives the task's index alongside the
    task.

    A failing task is retried up to [retries] (default 1) more times,
    inline on the same worker — so the final failure set is independent
    of the domain layout — sleeping
    [min cap (base * 2^(attempt-1)) * jitter] between attempts
    ([backoff_s] is [(base, cap)], default [(0.001, 0.05)]; the jitter in
    [0.5, 1.5) is a pure splitmix64 function of [seed], task index and
    attempt). Tasks still failing are quarantined and returned sorted by
    index, with earlier attempts' messages in [prior_messages].

    [deadline = (limit_s, on_overdue)] spawns a watchdog domain that
    calls [on_overdue index task] once per task attempt exceeding
    [limit_s] of wall time. The callback runs on the watchdog domain and
    must be domain-safe; the runner uses it to zero the overdue
    execution's fuel cell, converting the hang into an ordinary timeout
    verdict. Each retry attempt restarts the task's clock.

    An exception satisfying [fatal] (default: none) aborts the pool:
    in-flight tasks finish, queued ones are abandoned, every domain is
    joined, and the exception is re-raised to the caller. The kill-point
    fuzzer routes {!Journal.Killed} through this to simulate a crash at
    an exact journal position. *)
