(* Retained reference implementation of Algorithm 2's phase-2
   attribution: the structural, per-node index that lib/core/algorithm2.ml
   used before report lists were hash-consed per execution. Records are
   grouped per reporter by structurally equal report list (List.equal
   over lists of n·Σdeg entries), every group gets its own polymorphic
   claim tables, and discovery probes with freshly allocated path
   prefixes. test_attribution_equiv drives it in lock-step with the
   production index over live executions and asserts that every probe
   answer and every detected set is identical.

   Deliberately slow and simple: it states the semantics the production
   index must keep. *)

module Nodeset = Lbc_graph.Nodeset
module G = Lbc_graph.Graph
module Flood = Lbc_flood.Flood
module Packing = Lbc_flood.Packing
module Bit = Lbc_consensus.Bit

type report = int * Bit.t Flood.wire

(* A claim's observable content: wires also carry a path-id hint, which
   must not take part in equality or hashing. *)
let claim_key ((z, m) : report) = (z, (m.Flood.value, m.Flood.path))

type attribution = {
  sent : f:int -> z:int -> m:Bit.t Flood.wire -> bool;
  silent_on : f:int -> z:int -> path:int list -> bool;
}

(* Everything [who] heard in phase 1, with silent neighbours replaced by
   the default initiation. *)
let with_defaults g ~who heard =
  let initiated =
    List.filter_map
      (fun (z, (m : Bit.t Flood.wire)) ->
        if m.Flood.path = [] then Some z else None)
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

type group = {
  value : report list;
  claims : (int * (Bit.t * int list), unit) Hashtbl.t;
      (* full (z, m) claim keys *)
  keys : (int * int list, unit) Hashtbl.t; (* (z, path) keys, for omission *)
  mutable masks : Packing.mask list; (* one disjointness mask per record *)
}

let attribution_index g ~me ~heard ~store2 =
  let defaults = with_defaults g ~who:me heard in
  let direct = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace direct (claim_key r) ()) defaults;
  let heard_keys = Hashtbl.create 256 in
  List.iter
    (fun ((z, m) : report) -> Hashtbl.replace heard_keys (z, m.Flood.path) ())
    defaults;
  let by_reporter : (int, group list ref) Hashtbl.t = Hashtbl.create 64 in
  Flood.iter_records store2
    (fun ~origin:reporter ~path:_ ~sans_me:mask ~value:(reports : report list) ->
      let groups =
        match Hashtbl.find_opt by_reporter reporter with
        | Some gs -> gs
        | None ->
            let gs = ref [] in
            Hashtbl.replace by_reporter reporter gs;
            gs
      in
      let group =
        match
          List.find_opt
            (fun grp ->
              List.map claim_key grp.value = List.map claim_key reports)
            !groups
        with
        | Some grp -> grp
        | None ->
            let claims = Hashtbl.create 64 in
            let keys = Hashtbl.create 64 in
            List.iter
              (fun ((z, m) as claim : report) ->
                Hashtbl.replace claims (claim_key claim) ();
                Hashtbl.replace keys (z, m.Flood.path) ())
              reports;
            let grp = { value = reports; claims; keys; masks = [] } in
            groups := grp :: !groups;
            grp
      in
      group.masks <- mask :: group.masks);
  let groups_of y =
    match Hashtbl.find_opt by_reporter y with Some gs -> !gs | None -> []
  in
  let support_masks ~z ~keep =
    let masks = ref [] in
    Nodeset.iter
      (fun y ->
        List.iter
          (fun grp ->
            if keep grp then
              List.iter
                (fun mask ->
                  if not (Packing.mem mask z) then masks := mask :: !masks)
                grp.masks)
          (groups_of y))
      (G.neighbors g z);
    !masks
  in
  let pcache = Packing.Cache.create () in
  let reliable ~f masks = Packing.Cache.count pcache masks ~limit:(f + 1) >= f + 1 in
  let sent ~f ~z ~(m : Bit.t Flood.wire) =
    if z = me then false
    else if G.mem_edge g z me then Hashtbl.mem direct (claim_key (z, m))
    else
      reliable ~f
        (support_masks ~z ~keep:(fun grp ->
             Hashtbl.mem grp.claims (claim_key (z, m))))
  in
  let silent_on ~f ~z ~path =
    if z = me then false
    else if G.mem_edge g z me then not (Hashtbl.mem heard_keys (z, path))
    else
      reliable ~f
        (support_masks ~z ~keep:(fun grp ->
             not (Hashtbl.mem grp.keys (z, path))))
  in
  { sent; silent_on }

(* Fault discovery over list-keyed probes: scan each of the 2f disjoint
   w..u paths and mark the first node with reliable tamper or omission
   evidence. *)
let discover g ~f ~me ~store1 ~(learns : attribution) =
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
                let rec scan prefix_rev = function
                  | [] -> ()
                  | z :: rest ->
                      let prefix = List.rev prefix_rev in
                      if
                        z <> me
                        && learns.sent ~f ~z
                             ~m:(Flood.wire bbar prefix)
                      then detected := Nodeset.add z !detected
                      else if z <> me && learns.silent_on ~f ~z ~path:prefix
                      then detected := Nodeset.add z !detected
                      else scan (z :: prefix_rev) rest
                in
                scan [] p)
              (Lbc_graph.Disjoint.disjoint_uv_paths ~limit:(2 * f) g ~u:w
                 ~v:u)
        done)
      (Flood.reliable_values ~f store1 ~origin:w)
  done;
  !detected
