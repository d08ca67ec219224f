(* Per-execution interning of path annotations.

   Wire paths are the message payload of the flooding layer and were
   hashed polymorphically (as [int list]) on every table probe. This
   module maps each distinct path to a dense integer id via a trie over
   node ids: extending a known path by one node is an array probe, and
   every property the flooding rules and acceptance queries need —
   length, first/last node, the node bitset, simple-path validity — is
   computed once when the trie node is created and read back in O(1).

   One table serves a whole execution: every store of every phase
   interns into it, so a path is walked and allocated once, not once per
   store. Ids are meaningful only relative to the table that produced
   them (they are allocation-ordered); they ride on flood wires as a
   hint ({!resolve}) but are never serialized and never trusted across
   tables; see README.md "Performance". *)

module G = Lbc_graph.Graph

type id = int

let root = 0
let invalid = -1

(* [children.(id)] is either the unallocated sentinel [no_child] or an
   array of size [n] mapping the extending node to the child id (-1 when
   absent). Allocation is lazy: leaf paths never pay for a child table. *)
let no_child : int array = [||]

type t = {
  g : G.t;
  n : int;
  mutable count : int;
  mutable nodes : int list array; (* the path, origin first *)
  mutable lens : int array;
  mutable firsts : int array; (* -1 for the root *)
  mutable lasts : int array; (* -1 for the root *)
  mutable masks : Packing.mask array; (* set of nodes on the path *)
  mutable simple : bool array; (* is a simple path of [g] (root: true) *)
  mutable children : int array array;
}

let create g =
  let cap = 64 in
  {
    g;
    n = G.size g;
    count = 1;
    nodes = Array.make cap [];
    lens = Array.make cap 0;
    firsts = Array.make cap (-1);
    lasts = Array.make cap (-1);
    masks = Array.make cap Packing.empty;
    simple = Array.make cap true;
    children = Array.make cap no_child;
  }

let grow t =
  let cap = Array.length t.lens in
  let cap' = 2 * cap in
  let extend dummy a =
    let a' = Array.make cap' dummy in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.nodes <- extend [] t.nodes;
  t.lens <- extend 0 t.lens;
  t.firsts <- extend (-1) t.firsts;
  t.lasts <- extend (-1) t.lasts;
  t.masks <- extend Packing.empty t.masks;
  t.simple <- extend true t.simple;
  t.children <- extend no_child t.children

let extend t pid u =
  if pid < 0 || u < 0 || u >= t.n then invalid
  else begin
    let ch =
      let c = t.children.(pid) in
      if c != no_child then c
      else begin
        let c = Array.make t.n (-1) in
        t.children.(pid) <- c;
        c
      end
    in
    let existing = ch.(u) in
    if existing >= 0 then existing
    else begin
      if t.count = Array.length t.lens then grow t;
      let id = t.count in
      t.count <- id + 1;
      t.nodes.(id) <- t.nodes.(pid) @ [ u ];
      t.lens.(id) <- t.lens.(pid) + 1;
      t.firsts.(id) <- (if pid = root then u else t.firsts.(pid));
      t.lasts.(id) <- u;
      t.masks.(id) <- Packing.add t.masks.(pid) u;
      t.simple.(id) <-
        t.simple.(pid)
        && (not (Packing.mem t.masks.(pid) u))
        && (pid = root || G.mem_edge t.g t.lasts.(pid) u);
      ch.(u) <- id;
      id
    end
  end

let intern t path = List.fold_left (fun pid u -> extend t pid u) root path

(* Each id owns its own list allocation ([@] copies the prefix), and the
   root owns [[]], so [id] is the id of [path] exactly when the two are
   physically equal — whatever table the hint came from. *)
let resolve t id path =
  if id >= 0 && id < t.count && t.nodes.(id) == path then id
  else intern t path

let check_id t id =
  if id < 0 || id >= t.count then invalid_arg "Path_intern: invalid id"

let path t id =
  check_id t id;
  t.nodes.(id)

let length t id = if id < 0 then -1 else t.lens.(id)

let first t id =
  check_id t id;
  t.firsts.(id)

let last t id =
  check_id t id;
  t.lasts.(id)

let mask t id =
  check_id t id;
  t.masks.(id)

let is_path t id = id > root && id < t.count && t.simple.(id)
let mem t id u = id >= 0 && Packing.mem t.masks.(id) u
