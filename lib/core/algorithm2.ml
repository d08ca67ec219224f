module Nodeset = Lbc_graph.Nodeset
module G = Lbc_graph.Graph
module Flood = Lbc_flood.Flood
module Packing = Lbc_flood.Packing
module Engine = Lbc_sim.Engine
module Strategy = Lbc_adversary.Strategy

type report = int * Bit.t Flood.wire
(* (z, m): "node z transmitted message m in phase 1". *)

type node_report = { type_a : bool; detected : Nodeset.t; decision : Bit.t }

type traced = {
  outcome : Spec.outcome;
  node_reports : node_report option array;
  store1 : Bit.t Flood.store option array;
  heard : (int * Bit.t Flood.wire) list array;
  store2 : report list Flood.store option array;
}

(* Phase 1 runs one extra delivery round: a relay accepted in the final
   flooding round is still transmitted, and the neighbours' reports must
   include it — otherwise omission evidence would falsely accuse honest
   nodes of exactly the maximal-length forwards. Phases 2 and 3 need no
   extra round (only their *deliveries* matter). *)
let rounds ~g = (3 * G.size g) + 1

(* ------------------------------------------------------------------ *)
(* Phase 1: flood inputs, logging everything heard for phase 2.        *)
(* ------------------------------------------------------------------ *)

type p1_out = {
  store1 : Bit.t Flood.store;
  mutable heard_rev : (int * Bit.t Flood.wire) list;
      (* timing-valid receptions only, reverse-chronological *)
}

(* Only timing-valid transmissions count as observations: a k-hop
   annotation is honest only when heard in round k+1 (see Flood.handle's
   rule (i) timing check). Everything else is fabrication that no honest
   node acts on, so reporting it would only pollute attribution. *)
let timing_valid ~heard_round (m : Bit.t Flood.wire) =
  List.length m.Flood.path = heard_round - 1

let phase1_proc g ~paths ~me ~input =
  let store1 =
    Flood.create g ~me ~vcompare:Bit.compare ~initiate:input
      ~default:Bit.default ~paths ()
  in
  let st = { store1; heard_rev = [] } in
  let inner = Flood.proc store1 in
  let step ~round ~inbox =
    List.iter
      (fun (sender, m) ->
        if timing_valid ~heard_round:round m then
          st.heard_rev <- (sender, m) :: st.heard_rev)
      inbox;
    inner.Engine.step ~round ~inbox
  in
  { Engine.step; output = (fun () -> st) }

(* Everything [who] heard in phase 1, with silent neighbours replaced by
   the default initiation, exactly as the flooding rule treats them. *)
let with_defaults g ~who heard =
  let initiated =
    List.filter_map
      (fun (z, (m : Bit.t Flood.wire)) -> if m.Flood.path = [] then Some z else None)
      heard
    |> Nodeset.of_list
  in
  let missing =
    List.filter
      (fun w -> not (Nodeset.mem w initiated))
      (G.neighbor_list g who)
  in
  heard
  @ List.map (fun w -> (w, Flood.wire Bit.default [])) missing

(* Same order as the polymorphic compare this replaces: sender, then wire
   value, then wire path. All three fields must participate so that
   [sort_uniq] still deduplicates exact duplicates only. *)
let compare_report (z1, (m1 : Bit.t Flood.wire)) (z2, (m2 : Bit.t Flood.wire)) =
  match Int.compare z1 z2 with
  | 0 -> (
      match Bit.compare m1.Flood.value m2.Flood.value with
      | 0 -> Lbc_sim.Det.compare_int_list m1.Flood.path m2.Flood.path
      | c -> c)
  | c -> c

let compare_reports = List.compare compare_report

let reports_of g ~who heard : report list =
  List.sort_uniq compare_report (with_defaults g ~who heard)

(* A faulty node's heard log, reconstructed from the recorded phase-1
   transcript (it hears every broadcast by a neighbour); like honest
   nodes, only timing-valid transmissions are kept. *)
let heard_from_transcript g ~who transcript =
  List.filter_map
    (fun (round, sender, d) ->
      match d with
      | Engine.Broadcast m
        when G.mem_edge g sender who
             && timing_valid ~heard_round:(round + 1) m ->
          Some (sender, m)
      | Engine.Broadcast _ | Engine.Unicast _ -> None)
    transcript

(* ------------------------------------------------------------------ *)
(* Phase 2: attribution and fault discovery.                            *)
(* ------------------------------------------------------------------ *)

module Path_intern = Lbc_flood.Path_intern

(* Claims as int keys. A report (z, m) is encoded against the
   execution's path table as the tamper key [2 * (path_id * n + z) + bit];
   the omission key [path_id * n + z] is present iff either of its two
   tamper keys is. A claim set is a bitset over tamper keys. Reports the
   encoding cannot express (a node id outside the graph: a Byzantine
   transmitter controls its path annotation, and honest nodes log what
   they hear) are kept aside in [odd] and compared structurally; no
   encodable probe can equal them, so membership stays exact for every
   probe. *)
type claims = { bits : Bytes.t; odd : report list }

let mem_bit bits k =
  k lsr 3 < Bytes.length bits
  && Char.code (Bytes.get bits (k lsr 3)) land (1 lsl (k land 7)) <> 0

let tamper_key k bit = (2 * k) + Bit.to_int bit

(* [z]'s omission key for path [pid], or [-1] when unencodable. *)
let key ~n ~z ~pid = if pid < 0 || z < 0 || z >= n then -1 else (pid * n) + z

let mem_key c k = mem_bit c.bits (2 * k) || mem_bit c.bits ((2 * k) + 1)

(* A report list, hash-consed: [id] is dense per context, and [claims]
   is built on the first non-direct probe that needs it. *)
type canon = { id : int; value : report list; mutable claims : claims option }

(* One phase-2 context per execution, shared by every honest node's
   index and discovery. Physically distinct report lists are few (honest
   relays forward the reporter's allocation unchanged; each tampering
   relay allocates one flipped copy), so [seen] maps each physical list
   to its canonical entry and only a physically new list pays for the
   full-list hash and one structural comparison against its bucket. Two
   tampering relays flipping in turn produce exactly such a list: a new
   allocation, structurally equal to the original. Ids never leave the
   context and are never serialized. *)
type context = {
  g : G.t;
  n : int;
  paths : Path_intern.t;
      (* phase-1 wire paths of claims and probes: the execution's table
         when run by [run_traced], so claims resolve by their wire ids *)
  mutable seen : (report list * canon) list; (* physical-identity memo *)
  by_hash : (int, canon list) Hashtbl.t; (* full-list hash -> entries *)
  mutable count : int;
  disjoint : (int, int list list) Hashtbl.t; (* discover's 2f-path sets *)
}

let context ?paths g =
  {
    g;
    n = G.size g;
    paths = (match paths with Some p -> p | None -> Path_intern.create g);
    seen = [];
    by_hash = Hashtbl.create 16;
    count = 0;
    disjoint = Hashtbl.create 16;
  }

(* Over every entry of the list, so lists that differ only in their last
   entry land in different buckets (the polymorphic hash would stop at a
   short prefix and put every variant of a long list in one bucket). *)
let hash_reports (reports : report list) =
  let mix h x = ((h * 31) + x) land max_int in
  List.fold_left
    (fun h (z, (m : Bit.t Flood.wire)) ->
      let h = mix (mix h z) (Bit.to_int m.Flood.value) in
      mix (List.fold_left (fun h u -> mix h (u + 2)) h m.Flood.path) 1)
    0 reports

let canon ctx (reports : report list) =
  match List.assq reports ctx.seen with
  | c -> c
  | exception Not_found ->
      let h = hash_reports reports in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt ctx.by_hash h) in
      let c =
        match
          List.find_opt (fun c -> compare_reports c.value reports = 0) bucket
        with
        | Some c -> c
        | None ->
            let c = { id = ctx.count; value = reports; claims = None } in
            ctx.count <- ctx.count + 1;
            Hashtbl.replace ctx.by_hash h (c :: bucket);
            c
      in
      ctx.seen <- (reports, c) :: ctx.seen;
      c

let canonical_id ctx reports = (canon ctx reports).id

let encode ctx ~z path = key ~n:ctx.n ~z ~pid:(Path_intern.intern ctx.paths path)

let encode_wire ctx ~z (m : Bit.t Flood.wire) =
  key ~n:ctx.n ~z ~pid:(Path_intern.resolve ctx.paths m.Flood.id m.Flood.path)

let claims_of ctx (reports : report list) =
  let keys = Array.make (List.length reports) 0 in
  let count = ref 0 and top = ref 0 and odd = ref [] in
  List.iter
    (fun ((z, m) as r : report) ->
      let k = encode_wire ctx ~z m in
      if k < 0 then odd := r :: !odd
      else begin
        let tk = tamper_key k m.Flood.value in
        keys.(!count) <- tk;
        incr count;
        top := Int.max !top tk
      end)
    reports;
  let bits = Bytes.make ((!top lsr 3) + 1) '\000' in
  for i = 0 to !count - 1 do
    let b = keys.(i) lsr 3 in
    Bytes.set bits b
      (Char.unsafe_chr
         (Char.code (Bytes.get bits b) lor (1 lsl (keys.(i) land 7))))
  done;
  { bits; odd = !odd }

let canon_claims ctx c =
  match c.claims with
  | Some cl -> cl
  | None ->
      let cl = claims_of ctx c.value in
      c.claims <- Some cl;
      cl

(* Attribution index at node [me].

   Positive attribution — "me reliably learns z transmitted m": the
   bitmasks of the z->me delivery paths whose reporter (z's neighbour,
   first path member) claims (z, m); Definition C.1 asks for f+1
   disjoint supporting paths, and the pigeonhole over whole records makes
   the answer genuine.

   Negative attribution — "me reliably learns z transmitted NOTHING whose
   path annotation is π": same structure, counting the disjoint reporter
   paths whose (entire, indivisible) report list contains no (z, ·-with-
   path-π) entry. One of f+1 disjoint such records is fault-free, so its
   report list is the reporter's genuine observation and z's silence on
   that key is real. Needed because the paper's fault discovery as
   literally stated only catches tampering ("forwarded 1−b") — a relay
   that omits the forward breaks Lemma C.4 undetected (found by our
   adversarial sweep; see DESIGN.md). *)
type probes = {
  ctx : context;
  sent_key : f:int -> z:int -> tk:int -> bool;
  silent_key : f:int -> z:int -> k:int -> bool;
}

type attribution = {
  sent : f:int -> z:int -> m:Bit.t Flood.wire -> bool;
  silent_on : f:int -> z:int -> path:int list -> bool;
  probes : probes;
}

(* The node's records are grouped by (reporter, canonical list): a
   group's claim set is the canonical list's, built once per execution,
   and a group holds one disjointness mask per record. Queries run
   lazily per probed claim — fault discovery probes only a small subset
   of the claim universe — and the packing certificate itself is
   memoised across claims that collect the same masks. *)
let attribution_index ?ctx g ~me ~heard ~store2 =
  let ctx = match ctx with Some c -> c | None -> context g in
  if ctx.g != g then
    invalid_arg "Algorithm2.attribution_index: context of another graph";
  let direct_claims = ref None in
  let direct () =
    match !direct_claims with
    | Some c -> c
    | None ->
        let c = claims_of ctx (with_defaults g ~who:me heard) in
        direct_claims := Some c;
        c
  in
  let by_reporter = Array.make ctx.n [] in
  Flood.iter_records store2
    (fun ~origin:reporter ~path:_ ~sans_me:mask ~value:(reports : report list) ->
      let c = canon ctx reports in
      let groups = by_reporter.(reporter) in
      match List.find_opt (fun (c', _) -> Int.equal c'.id c.id) groups with
      | Some (_, masks) -> masks := mask :: !masks
      | None -> by_reporter.(reporter) <- (c, ref [ mask ]) :: groups);
  (* The supporting masks for a claim about [z]: every record whose
     reporter is a neighbour of z, whose list passes [keep], and whose
     path avoids z (z's bit in the mask detects membership; me itself is
     excluded from the masks and handled upfront). *)
  let support_masks ~z ~keep =
    let masks = ref [] in
    Nodeset.iter
      (fun y ->
        List.iter
          (fun (c, group) ->
            if keep c then
              List.iter
                (fun mask ->
                  if not (Packing.mem mask z) then masks := mask :: !masks)
                !group)
          by_reporter.(y))
      (G.neighbors g z);
    !masks
  in
  let pcache = Packing.Cache.create () in
  let reliable ~f masks =
    Packing.Cache.count pcache masks ~limit:(f + 1) >= f + 1
  in
  let memo cache key compute =
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
        let r = compute () in
        Hashtbl.replace cache key r;
        r
  in
  let sent_cache = Hashtbl.create 64 and silent_cache = Hashtbl.create 64 in
  let sent_key ~f ~z ~tk =
    if z = me then false (* a node never accuses itself *)
    else if G.mem_edge g z me then mem_bit (direct ()).bits tk
    else
      memo sent_cache (f, tk) (fun () ->
          reliable ~f
            (support_masks ~z ~keep:(fun c ->
                 mem_bit (canon_claims ctx c).bits tk)))
  in
  let silent_key ~f ~z ~k =
    if z = me then false
    else if G.mem_edge g z me then not (mem_key (direct ()) k)
    else
      memo silent_cache (f, k) (fun () ->
          reliable ~f
            (support_masks ~z ~keep:(fun c ->
                 not (mem_key (canon_claims ctx c) k))))
  in
  (* The list-keyed fronts encode and delegate; an unencodable probe can
     only match an unencodable claim, so it is answered from the [odd]
     entries alone. *)
  let sent ~f ~z ~(m : Bit.t Flood.wire) =
    let k = encode_wire ctx ~z m in
    if k >= 0 then sent_key ~f ~z ~tk:(tamper_key k m.Flood.value)
    else
      let has c = List.exists (fun r -> compare_report r (z, m) = 0) c.odd in
      if z = me then false
      else if G.mem_edge g z me then has (direct ())
      else
        reliable ~f (support_masks ~z ~keep:(fun c -> has (canon_claims ctx c)))
  in
  let silent_on ~f ~z ~path =
    let k = encode ctx ~z path in
    if k >= 0 then silent_key ~f ~z ~k
    else
      let has c =
        List.exists
          (fun (z', (m : Bit.t Flood.wire)) ->
            z' = z && Lbc_sim.Det.compare_int_list m.Flood.path path = 0)
          c.odd
      in
      if z = me then false
      else if G.mem_edge g z me then not (has (direct ()))
      else
        reliable ~f
          (support_masks ~z ~keep:(fun c -> not (has (canon_claims ctx c))))
  in
  { sent; silent_on; probes = { ctx; sent_key; silent_key } }

(* The 2f disjoint w..u paths, memoised per context: every honest node
   scans the same ones. *)
let disjoint_paths ctx ~limit ~w ~u =
  let k = (((limit * ctx.n) + w) * ctx.n) + u in
  match Hashtbl.find_opt ctx.disjoint k with
  | Some ps -> ps
  | None ->
      let ps = Lbc_graph.Disjoint.disjoint_uv_paths ~limit ctx.g ~u:w ~v:u in
      Hashtbl.replace ctx.disjoint k ps;
      ps

let discover g ~f ~me ~store1 ~(learns : attribution)
    ?(trace = fun ~w:_ ~u:_ ~path:_ ~z:_ ~kind:_ -> ()) () =
  let { ctx; sent_key; silent_key } = learns.probes in
  if ctx.g != g then
    invalid_arg "Algorithm2.discover: attribution built over another graph";
  let detected = ref Nodeset.empty in
  let n = G.size g in
  for w = 0 to n - 1 do
    List.iter
      (fun b ->
        let bbar = Bit.flip b in
        for u = 0 to n - 1 do
          if u <> w then
            List.iter
              (fun p ->
                (* Scan w..u; the transmitted message of the node at
                   position i carries the path prefix before it, whose id
                   grows by one [extend] per step. The first node with
                   reliable tamper OR omission evidence is provably
                   faulty. *)
                let rec scan pid = function
                  | [] -> ()
                  | z :: rest ->
                      let k = key ~n ~z ~pid in
                      if z <> me && sent_key ~f ~z ~tk:(tamper_key k bbar)
                      then begin
                        trace ~w ~u ~path:p ~z ~kind:"tamper";
                        Lbc_obs.Obs.incr "a2.evidence.tamper";
                        detected := Nodeset.add z !detected
                      end
                      else if z <> me && silent_key ~f ~z ~k then begin
                        trace ~w ~u ~path:p ~z ~kind:"omission";
                        Lbc_obs.Obs.incr "a2.evidence.omission";
                        detected := Nodeset.add z !detected
                      end
                      else scan (Path_intern.extend ctx.paths pid z) rest
                in
                scan Path_intern.root p)
              (disjoint_paths ctx ~limit:(2 * f) ~w ~u)
        done)
      (Flood.reliable_values ~f store1 ~origin:w)
  done;
  !detected

(* ------------------------------------------------------------------ *)
(* Phase 3: decision.                                                   *)
(* ------------------------------------------------------------------ *)

let type_b_decision g ~f ~store1 =
  let vals =
    List.concat_map
      (fun w -> Flood.reliable_values ~f store1 ~origin:w)
      (G.nodes g)
  in
  Bit.majority vals

(* Type A: adopt a phase-3 decision received from a non-faulty node along
   a fault-free path, else majority of the non-faulty inputs read along
   fault-free phase-1 paths. *)
let type_a_decision g ~me ~detected ~store1 ~store3 =
  let candidate =
    Flood.records store3
    |> List.filter (fun (origin, path, _) ->
           origin <> me
           && (not (Nodeset.mem origin detected))
           && G.path_excludes path detected)
    |> List.sort (fun (o1, p1, d1) (o2, p2, d2) ->
           match Int.compare o1 o2 with
           | 0 -> (
               match Lbc_sim.Det.compare_int_list p1 p2 with
               | 0 -> Bit.compare d1 d2
               | c -> c)
           | c -> c)
  in
  match candidate with
  | (_, _, delta) :: _ -> delta
  | [] ->
      let vals =
        List.filter_map
          (fun w ->
            if Nodeset.mem w detected || w = me then None
            else
              match
                Lbc_graph.Traversal.shortest_path ~exclude:detected g ~src:w
                  ~dst:me
              with
              | None -> None
              | Some path -> Flood.value_along store1 ~path)
          (G.nodes g)
      in
      let own = Option.to_list (Flood.own_value store1) in
      Bit.majority (own @ vals)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let flip_reports (reports : report list) : report list =
  List.map
    (fun (z, (m : Bit.t Flood.wire)) ->
      (z, Flood.with_value m (Bit.flip m.Flood.value)))
    reports

(* Honest relays forward a flooded value allocation unchanged, so a
   tampering node flips the same (large) list object over and over;
   memoizing on physical identity allocates the flipped copy once, and
   the phase-2 context then hashes and compares it once instead of once
   per fresh copy. One memo per faulty role closure, so no state crosses
   a scenario (or a domain); the table stays small — one entry per
   distinct value object the node ever tampers. Purely an allocation/
   sharing change: the flipped lists are structurally identical. *)
let memoized_flip_reports () =
  let memo = ref [] in
  fun reports ->
    match List.assq reports !memo with
    | flipped -> flipped
    | exception Not_found ->
        let flipped = flip_reports reports in
        memo := (reports, flipped) :: !memo;
        flipped

let run_traced ~g ~f ~inputs ~faulty
    ?(strategy = fun _ -> Strategy.Flip_forwards) ?(seed = 0) () =
  let n = G.size g in
  if Array.length inputs <> n then
    invalid_arg "Algorithm2.run: inputs length mismatch";
  if f < 0 then invalid_arg "Algorithm2.run: negative f";
  let topo = Engine.topology_of_graph g in
  let per_phase = Flood.rounds_needed g in
  let is_faulty v = Nodeset.mem v faulty in
  (* One intern table for all three phases and the phase-2 context. *)
  let paths = Path_intern.create g in
  (* Phase 1 *)
  let roles1 =
    Array.init n (fun v ->
        if is_faulty v then
          Engine.Faulty
            (Strategy.fstep ~paths (strategy v) ~g ~me:v ~vcompare:Bit.compare
               ~input:inputs.(v) ~default:Bit.default ~flip:Bit.flip ~seed)
        else Engine.Honest (phase1_proc g ~paths ~me:v ~input:inputs.(v)))
  in
  let r1 =
    Engine.run ~record:true topo ~model:Engine.Local_broadcast
      ~rounds:(per_phase + 1) ~roles:roles1
  in
  let p1 v =
    match r1.Engine.outputs.(v) with
    | Some st -> st
    | None -> invalid_arg "Algorithm2: missing phase-1 state"
  in
  (* Phase 2 *)
  Engine.check_fuel ();
  let reports v =
    if is_faulty v then
      reports_of g ~who:v (heard_from_transcript g ~who:v r1.Engine.transcript)
    else reports_of g ~who:v (List.rev (p1 v).heard_rev)
  in
  let roles2 =
    Array.init n (fun v ->
        if is_faulty v then
          Engine.Faulty
            (Strategy.fstep ~paths (strategy v) ~g ~me:v
               ~vcompare:compare_reports
               ~input:(reports v) ~default:[] ~flip:(memoized_flip_reports ())
               ~seed:(seed + 1))
        else
          Engine.Honest
            (Flood.proc
               (Flood.create g ~me:v ~vcompare:compare_reports
                  ~initiate:(reports v) ~default:[] ~paths ())))
  in
  let r2 =
    Engine.run topo ~model:Engine.Local_broadcast ~rounds:per_phase
      ~roles:roles2
  in
  (* Fault discovery at each honest node, over one shared context *)
  let ctx = context ~paths g in
  let detected =
    Array.init n (fun v ->
        if is_faulty v then Nodeset.empty
        else begin
          let store2 =
            match r2.Engine.outputs.(v) with
            | Some s -> s
            | None -> invalid_arg "Algorithm2: missing phase-2 store"
          in
          let learns =
            attribution_index ~ctx g ~me:v
              ~heard:(List.rev (p1 v).heard_rev)
              ~store2
          in
          discover g ~f ~me:v ~store1:(p1 v).store1 ~learns ()
        end)
  in
  Array.iteri
    (fun v d ->
      if not (is_faulty v) then
        Lbc_obs.Obs.observe "a2.faults_discovered" (Nodeset.cardinal d))
    detected;
  let is_type_a v = Nodeset.cardinal detected.(v) = f in
  for v = 0 to n - 1 do
    if not (is_faulty v) then
      Lbc_obs.Obs.incr (if is_type_a v then "a2.type_a" else "a2.type_b")
  done;
  let b_decision =
    Array.init n (fun v ->
        if is_faulty v || is_type_a v then None
        else Some (type_b_decision g ~f ~store1:(p1 v).store1))
  in
  (* Phase 3 *)
  Engine.check_fuel ();
  let roles3 =
    Array.init n (fun v ->
        if is_faulty v then
          Engine.Faulty
            (Strategy.fstep ~paths (strategy v) ~g ~me:v ~vcompare:Bit.compare
               ~input:inputs.(v) ~default:Bit.default ~flip:Bit.flip
               ~seed:(seed + 2))
        else
          Engine.Honest
            (Flood.proc
               (Flood.create g ~me:v ~vcompare:Bit.compare
                  ?initiate:b_decision.(v) ~paths ())))
  in
  let r3 =
    Engine.run topo ~model:Engine.Local_broadcast ~rounds:per_phase
      ~roles:roles3
  in
  let decision =
    Array.init n (fun v ->
        if is_faulty v then None
        else
          match b_decision.(v) with
          | Some d -> Some d
          | None ->
              let store3 =
                match r3.Engine.outputs.(v) with
                | Some s -> s
                | None -> invalid_arg "Algorithm2: missing phase-3 store"
              in
              Some
                (type_a_decision g ~me:v ~detected:detected.(v)
                   ~store1:(p1 v).store1 ~store3))
  in
  let stats = [ r1.Engine.stats; r2.Engine.stats; r3.Engine.stats ] in
  let sum field = List.fold_left (fun acc s -> acc + field s) 0 stats in
  Lbc_obs.Obs.add "algo.phases" 3;
  let outcome =
    {
      Spec.outputs = decision;
      faulty;
      inputs;
      rounds = sum (fun s -> s.Engine.rounds);
      phases = 3;
      transmissions = sum (fun s -> s.Engine.transmissions);
      deliveries = sum (fun s -> s.Engine.deliveries);
    }
  in
  let node_reports =
    Array.init n (fun v ->
        if is_faulty v then None
        else
          Some
            {
              type_a = is_type_a v;
              detected = detected.(v);
              decision = Option.get decision.(v);
            })
  in
  {
    outcome;
    node_reports;
    store1 =
      Array.init n (fun v ->
          if is_faulty v then None else Some (p1 v).store1);
    heard =
      Array.init n (fun v ->
          if is_faulty v then [] else List.rev (p1 v).heard_rev);
    store2 = r2.Engine.outputs;
  }

let run_detailed ~g ~f ~inputs ~faulty ?strategy ?seed () =
  let t = run_traced ~g ~f ~inputs ~faulty ?strategy ?seed () in
  (t.outcome, t.node_reports)

let run ~g ~f ~inputs ~faulty ?strategy ?seed () =
  fst (run_detailed ~g ~f ~inputs ~faulty ?strategy ?seed ())
