(* The --deep pass: load typed ASTs, build the call graph, run the
   whole-program rules, apply inline suppressions.

   Annotation files are discovered and grouped by compilation unit
   (dune's file naming makes the unit name recoverable from the path,
   so grouping costs no deserialisation), and each group is loaded and
   reduced to a {!Callgraph.summary} on its own, so only one unit's
   typed AST is live at a time. The [skip_components] filter applies to
   the summaries (fixture trees are deliberately bad code), but skipped
   units still count toward the unit-name set: their presence can
   affect reference canonicalisation.

   Two suppression moments, deliberately distinct:

   - taint seeds are cut where the *primitive's own* line carries a
     matching D1/D2/D3 directive — a justified nondeterminism site must
     not re-fire as E1 through every transitive caller;
   - finding-site suppression is applied here, uniformly, with the deep
     rule's own id ([disable=E2 ...] on or above the flagged line), so
     each pass stays purely analytical.

   File paths in deep findings are build-root-relative (that is what
   [Cmt_format.cmt_sourcefile] records); [source_root] maps them back to
   readable sources for the directive scan. A source that cannot be
   read simply has no directives — the conservative direction. *)

type result = {
  kept : Rules.finding list;
  suppressed : Rules.finding list;
  errors : string list;  (* cmt load failures: exit-code-2 material *)
  units : int;
}

let summaries ~build_dirs =
  let files, walk_errors = Cmt_load.discover build_dirs in
  let groups : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let names = ref [] in
  List.iter
    (fun path ->
      let name = Cmt_load.predicted_unit_name path in
      (match Hashtbl.find_opt groups name with
      | Some paths -> Hashtbl.replace groups name (paths @ [ path ])
      | None ->
          names := name :: !names;
          Hashtbl.replace groups name [ path ]))
    files;
  let names = List.sort String.compare !names in
  let unit_names = Callgraph.unit_names_of names in
  let errors = ref walk_errors in
  let summaries =
    List.filter_map
      (fun name ->
        let units, errs = Cmt_load.load_paths (Hashtbl.find groups name) in
        errors := !errors @ errs;
        match
          List.find_opt
            (fun (u : Cmt_load.unit_info) -> u.unit_name = name)
            units
        with
        | Some u -> Some (Callgraph.summarize ~unit_names u)
        | None -> (
            match units with
            | u :: _ -> Some (Callgraph.summarize ~unit_names u)
            | [] -> None))
      names
  in
  (summaries, !errors)

let run ?(skip_components = []) ~build_dirs ~source_root () =
  let summaries, errors = summaries ~build_dirs in
  let summaries =
    List.filter
      (fun (s : Callgraph.summary) ->
        let keep = function
          | Some src -> not (Cmt_load.source_skipped ~skip_components src)
          | None -> true
        in
        keep s.Callgraph.s_impl && keep s.Callgraph.s_intf)
      summaries
  in
  let g = Callgraph.assemble summaries in
  let directive_cache : (string, Suppress.directive list) Hashtbl.t =
    Hashtbl.create 32
  in
  let directives file =
    match Hashtbl.find_opt directive_cache file with
    | Some dirs -> dirs
    | None ->
        let path = Filename.concat source_root file in
        let dirs =
          match In_channel.with_open_bin path In_channel.input_all with
          | exception Sys_error _ -> []
          | text -> fst (Suppress.scan ~path text)
        in
        Hashtbl.replace directive_cache file dirs;
        dirs
  in
  let suppressed_at file rule line = Suppress.covers (directives file) rule line in
  let findings =
    Taint.run g ~suppressed_at @ Domsafe.run g @ Lockset.run g
    @ Atomicity.run g @ Model.run g @ Deadexport.run g
  in
  let suppressed, kept =
    List.partition
      (fun (f : Rules.finding) ->
        suppressed_at f.Rules.file f.Rules.rule f.Rules.line)
      findings
  in
  {
    kept = List.sort Rules.compare_finding kept;
    suppressed = List.sort Rules.compare_finding suppressed;
    errors;
    units = List.length summaries;
  }
