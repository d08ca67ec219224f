(** The [--deep] whole-program pass: E1 (nondeterminism taint), E2
    (cross-domain mutable state), E3 (lockset data races), E4
    (check-then-act atomicity), M1 (local-broadcast model invariant),
    X1 (dead exports, advisory).

    Requires a prior [dune build] — the pass reads the
    [.cmt]/[.cmti] binary annotations dune emits, it never re-types
    sources. *)

type result = {
  kept : Rules.finding list;  (** survived inline suppression, sorted *)
  suppressed : Rules.finding list;
  errors : string list;
      (** annotation files that failed to load — the driver maps these
          onto exit code 2, same as shallow parse errors *)
  units : int;  (** compilation units analyzed *)
}

val run :
  ?skip_components:string list ->
  build_dirs:string list ->
  source_root:string ->
  unit ->
  result
(** [run ~build_dirs ~source_root ()] scans [build_dirs] (typically
    [["_build/default"]]) for annotations, skipping any unit whose
    source path contains a component of [skip_components], and prefixes
    finding paths with nothing — they stay build-root-relative, which
    matches the shallow walk's paths when linting from the repo root.
    [source_root] locates the sources for the inline-directive scan. *)
