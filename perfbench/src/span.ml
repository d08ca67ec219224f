(* In-memory span recorder for the traced run. A span is a named
   interval on the monotonic clock with the span that was open when it
   started as its parent, and the scenario it belongs to. Spans are
   recorded only by the benchmark's own code, around calls into the
   library; nothing is recorded unless [start] was called. *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;  (** [-1] for a root *)
  scenario : int;  (** scenario index, [-1] outside any scenario *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type recorder = {
  mutable spans : span array;
  mutable len : int;
  mutable stack : (int * int) list;  (** open spans as (id, scenario) *)
}

let placeholder =
  { id = -1; name = ""; start_ns = 0; stop_ns = 0; parent = -1; scenario = -1 }

let active : recorder option ref = ref None

let start () =
  active := Some { spans = Array.make 4096 placeholder; len = 0; stack = [] }

let stop () =
  match !active with
  | None -> [||]
  | Some r ->
      active := None;
      Array.sub r.spans 0 r.len

(* Run [f] with recording suspended (for the untraced base pass). *)
let paused f =
  let saved = !active in
  active := None;
  Fun.protect ~finally:(fun () -> active := saved) f

let reserve r =
  if r.len = Array.length r.spans then begin
    let bigger = Array.make (2 * r.len) placeholder in
    Array.blit r.spans 0 bigger 0 r.len;
    r.spans <- bigger
  end;
  let id = r.len in
  r.len <- id + 1;
  id

let top r = match r.stack with top :: _ -> top | [] -> (-1, -1)

(* Record an interval measured by the caller, as a child of the innermost
   open span (and in its scenario) unless told otherwise. *)
let record ?parent ?scenario ~name ~start_ns ~stop_ns () =
  match !active with
  | None -> ()
  | Some r ->
      let open_id, open_scenario = top r in
      let parent = Option.value parent ~default:open_id in
      let scenario = Option.value scenario ~default:open_scenario in
      let id = reserve r in
      r.spans.(id) <- { id; name; start_ns; stop_ns; parent; scenario }

let with_span ?scenario name f =
  match !active with
  | None -> f ()
  | Some r ->
      let parent, open_scenario = top r in
      let scenario = Option.value scenario ~default:open_scenario in
      let id = reserve r in
      r.stack <- (id, scenario) :: r.stack;
      let start_ns = now_ns () in
      let finish () =
        let stop_ns = now_ns () in
        r.stack <- List.tl r.stack;
        r.spans.(id) <- { id; name; start_ns; stop_ns; parent; scenario }
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e

(* Length of the union of [intervals], clipped to [lo, hi]. Nested,
   overlapping and adjacent intervals are each counted once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let flush total = function None -> total | Some (a, b) -> total + (b - a) in
  let total, run =
    List.fold_left
      (fun (total, run) (a, b) ->
        match run with
        | Some (ra, rb) when a <= rb -> (total, Some (ra, max rb b))
        | _ -> (flush total run, Some (a, b)))
      (0, None)
      (List.sort compare clipped)
  in
  flush total run

(* Self time of every span: its duration minus the part of it its direct
   children cover. Indexed by span id. *)
let self_ns spans =
  let n = Array.length spans in
  let children = Array.make n [] in
  Array.iter
    (fun s ->
      if s.parent >= 0 && s.parent < n then
        children.(s.parent) <- (s.start_ns, s.stop_ns) :: children.(s.parent))
    spans;
  Array.map
    (fun s ->
      s.stop_ns - s.start_ns
      - covered ~lo:s.start_ns ~hi:s.stop_ns children.(s.id))
    spans

type layer = { name : string; count : int; total_ns : int; self_ns : int }

(* Per-name totals, in order of first appearance. *)
let layers spans =
  let self = self_ns spans in
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Array.iter
    (fun (s : span) ->
      let l =
        match Hashtbl.find_opt tbl s.name with
        | Some l -> l
        | None ->
            order := s.name :: !order;
            { name = s.name; count = 0; total_ns = 0; self_ns = 0 }
      in
      Hashtbl.replace tbl s.name
        {
          l with
          count = l.count + 1;
          total_ns = l.total_ns + (s.stop_ns - s.start_ns);
          self_ns = l.self_ns + self.(s.id);
        })
    spans;
  List.rev_map (Hashtbl.find tbl) !order

let write ~path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\tscenario\n";
  Array.iter
    (fun s ->
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" s.id s.name s.start_ns
        s.stop_ns s.parent s.scenario)
    spans
