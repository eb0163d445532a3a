(** Activity traces and the symbolic execution tree.

    Each simulated cycle is summarized by the set of nets that changed
    value (with old/new trits) and the set of nets that are {e active}
    without a visible change (X-valued and driven by an active gate —
    the paper's conservative activity rule). Probe buses (PC, FSM state,
    instruction register) are sampled per cycle for end-of-application
    detection and COI reporting. *)

type cycle = {
  deltas : int array;  (** packed net/old/new, see {!pack} *)
  x_active : int array;  (** nets active with an X->X "transition" *)
  pc : Tri.Word.t;
  state : Tri.Word.t;
  ir : Tri.Word.t;
}

val pack : net:int -> old_v:int -> new_v:int -> int

(** The fields of a packed delta, read without allocating. *)

val net : int -> int
val old_v : int -> int
val new_v : int -> int

(** Number of active nets in the cycle (changed + X-active). *)
val activity : cycle -> int

(** {1 Execution tree}

    [Run] is a straight-line stretch of cycles. [Fork] is an
    input-dependent branch (an X reached the branch-decision net); the
    forked cycle itself is the first cycle of each child. [Seen] is a
    dedup edge to a previously explored architectural state, keyed by
    digest (Algorithm 1, line 19). *)

type node =
  | Run of { cycles : cycle array; next : node }
  | Fork of { not_taken : node; taken : node }
  | End_path
  | Seen of string

type tree = {
  root : node;
  registry : (string, node ref) Hashtbl.t;
      (** digest -> continuation explored from that state *)
  initial : int array;  (** net values (trit codes) at cycle 0 *)
}

(** Fold over every straight-line segment in DFS order ([Seen] edges are
    not followed). *)
val iter_segments : tree -> (cycle array -> unit) -> unit

(** All cycles of all segments in DFS order — the "flattened execution
    trace" of Algorithm 2. *)
val flatten : tree -> cycle array

(** Root-to-leaf paths (each a list of segments); [Seen] leaves are
    reported with their digest. Used by peak-energy analysis. *)
val iter_paths : tree -> (cycle array list -> [ `End | `Seen of string ] -> unit) -> unit

val count_cycles : tree -> int
val count_paths : tree -> int
