(** Per-execution interning of flood path annotations.

    Maps each wire path ([int list], origin first) to a dense integer
    {!id} via a trie over node ids, so the flooding layer's tables key
    on ints instead of polymorphically-hashed lists. Every per-path
    property needed by the flooding rules and the acceptance queries is
    computed once, when a path is first seen, and read back in O(1):
    length (rule (i)'s timing check), simple-path validity (rule (i)'s
    structural check, incrementally: a path is simple iff its prefix is,
    the new node is fresh, and the new edge exists), the node bitset
    (rule (iii) and the packing masks) and the endpoints.

    One table serves one execution: the execution drivers
    ([Phase_driver], [Algorithm2], [Baseline_relay]) create it once and hand
    it to every honest and faulty flood store of that execution (all
    three phases of Algorithm 2, and its phase-2 attribution context),
    so each path is interned and allocated once rather than once per
    store. Stores created without a table get a private one.

    Invariants: ids are dense, allocation-ordered, and {e per table} —
    they mean nothing to any other table or execution. They ride on
    flood wires as a hint, checked by {!resolve} before use, but are
    never serialized (artifacts and fingerprints only ever see the
    underlying node lists, which {!path} returns in origin-first wire
    order).
    Interning never fails: a path mentioning a node outside
    [0 .. size g - 1] maps to {!invalid}, which all queries treat as
    "not a path of [g]". *)

type t
(** An intern table for paths over a fixed graph. *)

type id = int

val create : Lbc_graph.Graph.t -> t

val root : id
(** The id of the empty path. *)

val invalid : id
(** The id ([-1]) of every path containing an out-of-range node.
    [extend t invalid u = invalid]: invalidity is sticky. *)

val intern : t -> int list -> id
(** The id of a full path, interning it (and its prefixes) on first
    sight. [intern t [] = root]; {!invalid} when any element is outside
    [0 .. size g - 1]. *)

val resolve : t -> id -> int list -> id
(** [resolve t hint path] is [intern t path], in O(1) when [hint] is
    this table's id of that very allocation ([path t hint == path]).
    Any other hint — unknown, stale, forged, or from another table —
    costs one {!intern} and can never name the wrong path. *)

val extend : t -> id -> int -> id
(** [extend t pid u] is the id of [path pid · u] in O(1) (one array
    probe after the first time). {!invalid} when [pid] is {!invalid} or
    [u] is out of range. *)

(** {1 Cached properties}

    All of these are O(1) reads of values computed at intern time.
    Except for {!length}, {!is_path} and {!mem} (total, see below), they
    raise [Invalid_argument] on {!invalid}. *)

val path : t -> id -> int list
(** The interned path, origin first — structurally equal to the list
    that was interned, and shared: repeated lookups return the same
    allocation. *)

val length : t -> id -> int
(** Number of nodes on the path; [0] for {!root}, [-1] for {!invalid}. *)

val first : t -> id -> int
(** The origin ([-1] for {!root}). *)

val last : t -> id -> int
(** The final node ([-1] for {!root}). *)

val mask : t -> id -> Packing.mask
(** The set of nodes on the path, as a packing bitset. *)

val is_path : t -> id -> bool
(** Is this a non-empty simple path of the graph — exactly
    [Graph.is_path g (path t id)]? [false] for {!root} and {!invalid}. *)

val mem : t -> id -> int -> bool
(** Is node [u] on the path? [false] for {!invalid}. *)
