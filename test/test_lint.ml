(* Fixture-driven tests for the lbclint analyzer (lib/lint). Each
   fixture under lint_fixtures/ demonstrates one rule firing, one rule
   correctly not firing, a suppression, or a baseline interaction; the
   assertions pin exact rules, locations, severities and exit codes so
   the engine's behaviour is part of the repo's contract. *)

module Rules = Lbc_lint.Rules
module Driver = Lbc_lint.Driver
module Baseline = Lbc_lint.Baseline
module Check = Lbc_lint.Check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let fixture name = Filename.concat "lint_fixtures" name

let summarize (fs : Rules.finding list) =
  List.map (fun (f : Rules.finding) -> (Rules.id f.Rules.rule, f.Rules.line)) fs

let pp_summary s =
  String.concat ";"
    (List.map (fun (r, l) -> Printf.sprintf "%s:%d" r l) s)

(* Analyze a single fixture and assert the exact actionable findings
   and exit code. *)
let expect ?(baseline = Baseline.empty) ~file ~findings ~exit () =
  let o = Driver.analyze ~baseline ~roots:[ fixture file ] () in
  check_str
    (file ^ " findings")
    (pp_summary findings)
    (pp_summary (summarize o.Driver.actionable));
  check_int (file ^ " exit code") exit (Driver.exit_code o);
  o

let test_d1_fires () =
  ignore (expect ~file:"lib/d1_clock.ml" ~findings:[ ("D1", 2) ] ~exit:1 ())

let test_d1_suppressed () =
  let o = expect ~file:"lib/d1_suppressed.ml" ~findings:[] ~exit:0 () in
  check_str "suppressed list" "D1:4" (pp_summary (summarize o.Driver.suppressed))

(* Suppression placement and parsing edge cases; these pin the scanner's
   exact (textual, line-based) semantics. *)

let test_sup_multi_rule () =
  (* one [disable=D2,D4] directive covers both findings on the next line *)
  let o = expect ~file:"lib/sup_multi.ml" ~findings:[] ~exit:0 () in
  check_str "both rules suppressed" "D2:3;D4:3"
    (pp_summary (summarize o.Driver.suppressed))

let test_sup_same_line () =
  let o = expect ~file:"lib/sup_same_line.ml" ~findings:[] ~exit:0 () in
  check_str "same-line placement" "D1:1"
    (pp_summary (summarize o.Driver.suppressed))

let test_sup_two_above_out_of_range () =
  (* coverage is the directive's own line plus the next one, no further *)
  ignore (expect ~file:"lib/sup_two_above.ml" ~findings:[ ("D1", 3) ] ~exit:1 ())

let test_sup_crlf () =
  let o = expect ~file:"lib/sup_crlf.ml" ~findings:[] ~exit:0 () in
  check_str "CRLF endings" "D1:3" (pp_summary (summarize o.Driver.suppressed))

let test_sup_inside_comment_block () =
  (* the scan is textual: a directive line nested in a larger comment
     still applies to the following line *)
  let o = expect ~file:"lib/sup_in_comment.ml" ~findings:[] ~exit:0 () in
  check_str "directive inside comment block" "D1:3"
    (pp_summary (summarize o.Driver.suppressed))

let test_d2_fires () =
  ignore (expect ~file:"lib/d2_fold.ml" ~findings:[ ("D2", 3) ] ~exit:1 ())

let test_d2_sorted_clean () =
  ignore (expect ~file:"lib/d2_sorted.ml" ~findings:[] ~exit:0 ())

let test_d3_fires () =
  ignore (expect ~file:"lib/d3_random.ml" ~findings:[ ("D3", 3) ] ~exit:1 ())

let test_d3_state_clean () =
  ignore (expect ~file:"lib/d3_state_ok.ml" ~findings:[] ~exit:0 ())

let test_d4_fires () =
  ignore (expect ~file:"lib/d4_poly.ml" ~findings:[ ("D4", 2) ] ~exit:1 ())

let test_d5_fires () =
  ignore (expect ~file:"lib/d5_global.ml" ~findings:[ ("D5", 3) ] ~exit:1 ())

let test_d6_fires () =
  ignore (expect ~file:"lib/d6_swallow.ml" ~findings:[ ("D6", 3) ] ~exit:1 ())

let test_reasonless_directive_is_finding () =
  ignore (expect ~file:"lib/bad_sup.ml" ~findings:[ ("SUP", 3) ] ~exit:1 ())

let test_parse_error_exit_2 () =
  let o = Driver.analyze ~roots:[ fixture "lib/parse_error.ml" ] () in
  (match o.Driver.actionable with
  | [ f ] -> check "rule is PARSE" true (f.Rules.rule = Rules.Parse)
  | fs ->
      Alcotest.failf "expected one PARSE finding, got [%s]"
        (pp_summary (summarize fs)));
  check_int "parse error exit code" 2 (Driver.exit_code o)

let test_app_scope_clean () =
  ignore (expect ~file:"bin/app_scope.ml" ~findings:[] ~exit:0 ())

let test_severities () =
  List.iter
    (fun (r, want) ->
      check_str (Rules.id r ^ " severity") want
        (Rules.severity_string (Rules.severity r)))
    [
      (Rules.D1, "error");
      (Rules.D2, "error");
      (Rules.D3, "error");
      (Rules.D4, "warning");
      (Rules.D5, "warning");
      (Rules.D6, "error");
      (Rules.Badsup, "error");
      (Rules.Parse, "error");
    ]

let load_fixture_baseline () =
  match Baseline.load ~path:(fixture "fixtures.baseline") with
  | Ok b -> b
  | Error m -> Alcotest.failf "fixtures.baseline: %s" m

let test_baseline_absorbs () =
  let baseline = load_fixture_baseline () in
  let o =
    expect ~baseline ~file:"lib/d2_baselined.ml" ~findings:[] ~exit:0 ()
  in
  check_str "baselined list" "D2:3" (pp_summary (summarize o.Driver.baselined));
  check "no stale entries" true (o.Driver.stale = [])

let test_baseline_does_not_leak_across_files () =
  (* The entry names d2_baselined.ml, so the identical finding in
     d2_fold.ml must still fail, and the unused entry is reported
     stale. *)
  let baseline = load_fixture_baseline () in
  let o =
    expect ~baseline ~file:"lib/d2_fold.ml" ~findings:[ ("D2", 3) ] ~exit:1 ()
  in
  check "stale entry reported" true
    (o.Driver.stale = [ ("D2", "lint_fixtures/lib/d2_baselined.ml", 1) ])

let test_baseline_rejects_unbaselinable () =
  List.iter
    (fun rid ->
      match Baseline.of_string (rid ^ " some/file.ml 1") with
      | Ok _ -> Alcotest.failf "%s must not be baselinable" rid
      | Error _ -> ())
    [ "D1"; "D3"; "D6"; "SUP"; "PARSE" ];
  match Baseline.of_string "# comment\nD2 a.ml 2\nD4 b.ml 1\n" with
  | Ok b -> check_int "entries parsed" 2 (List.length b)
  | Error m -> Alcotest.failf "valid baseline rejected: %s" m

let test_whole_tree () =
  (* One analyze over the whole fixture tree: every rule fires once,
     the suppressed findings are counted apart, the baseline absorbs one
     D2, and the parse error forces exit 2. The trailing D1 is
     sup_two_above.ml, whose directive sits out of coverage range. *)
  let baseline = load_fixture_baseline () in
  let o = Driver.analyze ~baseline ~roots:[ "lint_fixtures" ] () in
  check_str "whole-tree findings"
    "SUP:3;D1:2;D2:3;D3:3;D4:2;D5:3;D6:3;PARSE:2;D1:3"
    (pp_summary (summarize o.Driver.actionable));
  check_int "suppressed" 6 (List.length o.Driver.suppressed);
  check_int "baselined" 1 (List.length o.Driver.baselined);
  check_int "exit" 2 (Driver.exit_code o)

let test_scope_of_path () =
  check "lib component" true (Check.scope_of_path "lib/core/cpa.ml" = Check.Lib);
  check "nested lib component" true
    (Check.scope_of_path "lint_fixtures/lib/d4_poly.ml" = Check.Lib);
  check "bin is app" true (Check.scope_of_path "bin/lbcast.ml" = Check.App);
  check "substring is not a component" true
    (Check.scope_of_path "library/x.ml" = Check.App)

let test_findings_sorted () =
  let text = "let a () = Random.self_init ()\nlet b () = Sys.time ()\n" in
  let fs = Check.file ~path:"lib/two.ml" text in
  check_str "sorted by position" "D3:1;D1:2" (pp_summary (summarize fs))

let null_fmt =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_main_exit_codes () =
  let run roots baseline =
    Driver.main ~fmt:null_fmt
      {
        Driver.roots;
        baseline;
        write_baseline = false;
        update_baseline = false;
        json = false;
        deep = false;
        sarif = None;
      }
  in
  check_int "clean tree" 0 (run [ fixture "lib/d2_sorted.ml" ] None);
  check_int "findings" 1 (run [ fixture "lib/d2_fold.ml" ] None);
  check_int "parse error" 2 (run [ fixture "lib/parse_error.ml" ] None);
  check_int "missing root" 2 (run [ fixture "lib/no_such_file.ml" ] None);
  check_int "baseline absorbs" 0
    (run [ fixture "lib/d2_baselined.ml" ] (Some (fixture "fixtures.baseline")))

let render_to_string o =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Driver.render_json fmt o;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let str_contains s needle =
  let nl = String.length needle and hl = String.length s in
  let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
  go 0

let test_json_render () =
  let o = Driver.analyze ~roots:[ fixture "lib/d1_clock.ml" ] () in
  let s = render_to_string o in
  let contains = str_contains s in
  check "format tag" true (contains "\"format\":\"lbclint/4\"");
  check "rule emitted" true (contains "\"rule\":\"D1\"");
  check "file emitted" true (contains "lint_fixtures/lib/d1_clock.ml");
  check "exit emitted" true (contains "\"exit\":1");
  (* shallow-only runs carry a null deep block *)
  check "deep block present" true (contains "\"deep\":null")

let test_json_stale_entries () =
  (* an unmatched baseline entry surfaces under the lbclint/4 "stale"
     key with its rule, file and unmatched count *)
  let baseline = load_fixture_baseline () in
  let o = Driver.analyze ~baseline ~roots:[ fixture "lib/d2_fold.ml" ] () in
  let s = render_to_string o in
  check "stale array" true
    (str_contains s
       "\"stale\":[{\"rule\":\"D2\",\"file\":\"lint_fixtures/lib/d2_baselined.ml\",\"unmatched\":1}]")

let test_update_baseline_shrinks_and_drops () =
  (* unit-level: an over-counted entry shrinks to the live count, a
     stale entry for a file with no findings drops entirely, and the
     machinery never invents entries for unbaselined findings *)
  let baseline =
    match
      Baseline.of_string
        ("D2 " ^ fixture "lib/d2_fold.ml" ^ " 5\nD4 "
       ^ fixture "lib/gone.ml" ^ " 2\n")
    with
    | Ok b -> b
    | Error m -> Alcotest.failf "baseline rejected: %s" m
  in
  let o = Driver.analyze ~roots:[ fixture "lib/d2_fold.ml" ] () in
  let updated, dropped = Baseline.update baseline o.Driver.actionable in
  check_int "one entry kept" 1 (List.length updated);
  check "kept entry shrunk to live count" true
    (str_contains (Baseline.to_string updated)
       ("D2 " ^ fixture "lib/d2_fold.ml" ^ " 1\n"));
  check "shrinkage reported" true
    (List.mem ("D2", fixture "lib/d2_fold.ml", 4) dropped);
  check "stale entry dropped" true
    (List.mem ("D4", fixture "lib/gone.ml", 2) dropped)

let test_update_baseline_end_to_end () =
  (* driver-level --update-baseline: the file on disk is rewritten and
     the run then gates against the pruned entries *)
  let path = Filename.temp_file "lbclint_test" ".baseline" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        ("D2 " ^ fixture "lib/d2_fold.ml" ^ " 5\nD4 "
       ^ fixture "lib/gone.ml" ^ " 2\n"));
  let config baseline update_baseline write_baseline =
    {
      Driver.roots = [ fixture "lib/d2_fold.ml" ];
      baseline;
      write_baseline;
      update_baseline;
      json = false;
      deep = false;
      sarif = None;
    }
  in
  let code = Driver.main ~fmt:null_fmt (config (Some path) true false) in
  check_int "gates clean against the pruned baseline" 0 code;
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  check "live entry shrunk on disk" true
    (str_contains s ("D2 " ^ fixture "lib/d2_fold.ml" ^ " 1\n"));
  check "stale entry gone from disk" true (not (str_contains s "gone.ml"));
  (* misuse is rejected before anything is touched *)
  check_int "--update-baseline without --baseline" 2
    (Driver.main ~fmt:null_fmt (config None true false));
  check_int "--update-baseline with --write-baseline" 2
    (Driver.main ~fmt:null_fmt (config (Some path) true true))

let test_sarif_render () =
  let o = Driver.analyze ~roots:[ fixture "lib/d1_clock.ml" ] () in
  let sup = Driver.analyze ~roots:[ fixture "lib/d1_suppressed.ml" ] () in
  let s =
    Lbc_lint.Sarif.render ~actionable:o.Driver.actionable
      ~suppressed:sup.Driver.suppressed ~baselined:[]
  in
  let contains = str_contains s in
  check "schema version" true (contains "\"version\":\"2.1.0\"");
  check "schema uri" true (contains "sarif-2.1.0.json");
  check "tool name" true
    (contains "\"driver\":{\"name\":\"lbclint\",\"version\":\"3\"");
  check "rule registry carries the deep rules" true
    (contains "{\"id\":\"E3\"" && contains "{\"id\":\"E4\"");
  check "result for the finding" true (contains "\"ruleId\":\"D1\"");
  check "uri is the finding path" true
    (contains "\"uri\":\"lint_fixtures/lib/d1_clock.ml\"");
  check "region emitted" true (contains "\"startLine\":2,\"startColumn\":");
  check "inline suppression marked inSource" true
    (contains "\"suppressions\":[{\"kind\":\"inSource\"}]")

let test_default_roots_include_examples () =
  check_str "default roots" "lib bin bench test examples"
    (String.concat " " Driver.default_roots)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "D1 wall clock" `Quick test_d1_fires;
          Alcotest.test_case "D2 unsorted fold" `Quick test_d2_fires;
          Alcotest.test_case "D2 sorted fold clean" `Quick
            test_d2_sorted_clean;
          Alcotest.test_case "D3 global random" `Quick test_d3_fires;
          Alcotest.test_case "D3 seeded state clean" `Quick
            test_d3_state_clean;
          Alcotest.test_case "D4 polymorphic compare" `Quick test_d4_fires;
          Alcotest.test_case "D5 top-level mutable" `Quick test_d5_fires;
          Alcotest.test_case "D6 exception swallow" `Quick test_d6_fires;
          Alcotest.test_case "severities" `Quick test_severities;
          Alcotest.test_case "lib scope by path component" `Quick
            test_scope_of_path;
          Alcotest.test_case "bin fixtures out of D4/D5 scope" `Quick
            test_app_scope_clean;
          Alcotest.test_case "findings sorted by position" `Quick
            test_findings_sorted;
        ] );
      ( "suppress",
        [
          Alcotest.test_case "reasoned directive suppresses" `Quick
            test_d1_suppressed;
          Alcotest.test_case "reasonless directive is a finding" `Quick
            test_reasonless_directive_is_finding;
          Alcotest.test_case "multi-rule disable=D2,D4" `Quick
            test_sup_multi_rule;
          Alcotest.test_case "same-line placement" `Quick test_sup_same_line;
          Alcotest.test_case "two lines above is out of range" `Quick
            test_sup_two_above_out_of_range;
          Alcotest.test_case "CRLF line endings" `Quick test_sup_crlf;
          Alcotest.test_case "directive inside comment block" `Quick
            test_sup_inside_comment_block;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "absorbs grandfathered finding" `Quick
            test_baseline_absorbs;
          Alcotest.test_case "scoped to its file" `Quick
            test_baseline_does_not_leak_across_files;
          Alcotest.test_case "rejects unbaselinable rules" `Quick
            test_baseline_rejects_unbaselinable;
        ] );
      ( "driver",
        [
          Alcotest.test_case "parse error exits 2" `Quick
            test_parse_error_exit_2;
          Alcotest.test_case "whole fixture tree" `Quick test_whole_tree;
          Alcotest.test_case "exit codes end to end" `Quick
            test_main_exit_codes;
          Alcotest.test_case "json report" `Quick test_json_render;
          Alcotest.test_case "json stale baseline entries" `Quick
            test_json_stale_entries;
          Alcotest.test_case "update-baseline shrinks and drops" `Quick
            test_update_baseline_shrinks_and_drops;
          Alcotest.test_case "update-baseline end to end" `Quick
            test_update_baseline_end_to_end;
          Alcotest.test_case "sarif report" `Quick test_sarif_render;
          Alcotest.test_case "default roots include examples" `Quick
            test_default_roots_include_examples;
        ] );
    ]
