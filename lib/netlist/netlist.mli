(** Gate-level netlist intermediate representation.

    A netlist is a flat array of gates; each gate drives exactly one net
    and the gate's index {e is} the net id. State elements are single-clock
    D flip-flops ([Dff]); synchronous enables and resets are built from
    muxes by the {!Rtl} layer. Every gate carries a module tag
    (e.g. ["exec_unit"], ["multiplier"]) used for per-module power
    breakdowns (paper, Fig. 3.6). *)

type cell =
  | Input  (** primary input; value driven externally each cycle *)
  | Const of Tri.t
  | Buf
  | Inv
  | And2
  | Or2
  | Nand2
  | Nor2
  | Xor2
  | Xnor2
  | Mux2  (** fanins [[|sel; a; b|]]: [a] when [sel=0], [b] when [sel=1] *)
  | Dff  (** fanins [[|d|]]; output updates to [d] at the clock edge *)
  | Dffe
      (** fanins [[|en; d|]]; loads [d] when [en]=1, holds when [en]=0.
          Holds are first-class (not a mux back to the output) so the
          symbolic activity analysis can see that a held unknown value
          cannot toggle. *)

val cell_name : cell -> string
val cell_arity : cell -> int
val is_sequential : cell -> bool

type gate = {
  id : int;  (** equals the driven net id *)
  cell : cell;
  fanins : int array;
  module_id : int;
}

type t = private {
  gates : gate array;
  module_names : string array;
  net_names : (string * int) list;  (** probe name -> net id *)
  topo : int array;
      (** combinational gates, fanins-first order, partitioned by logic
          level (see {!field-level_starts}); ids ascend within a level *)
  dffs : int array;
  inputs : int array;
  fanouts : int array array;  (** per net: ids of gates reading it *)
  levels : int array;
      (** logic level per gate: 0 for sources (inputs, constants,
          flops), [1 + max fanin level] for combinational gates *)
  level_starts : int array;
      (** level [l]'s combinational gates are
          [topo.(level_starts.(l)) .. topo.(level_starts.(l+1) - 1)];
          length is [level_count + 1] *)
}

val gate_count : t -> int
val dff_count : t -> int

(** Number of logic levels (deepest combinational level + 1). *)
val level_count : t -> int
val find_net : t -> string -> int

(** [module_of nl id] is the module name of gate [id]. *)
val module_of : t -> int -> string

(** [fanin_cone nl roots] — per net id, whether the net reaches one of
    [roots] through combinational gates only: the roots themselves, the
    combinational gates on the way, and the sources (inputs, constants,
    flop outputs) where the walk stops. *)
val fanin_cone : t -> int array -> bool array

exception Combinational_loop of int list

(** {1 Building}

    A mutable builder; [freeze] levelizes and checks the design.
    Raises {!Combinational_loop} (with a witness cycle) if a
    combinational path feeds back on itself. *)

module Builder : sig
  type netlist = t
  type t

  val create : unit -> t

  (** [set_module b name] makes [name] the module tag for subsequently
      added gates. *)
  val set_module : t -> string -> unit

  val add_input : t -> int
  val add_const : t -> Tri.t -> int

  (** [add_gate b cell fanins] returns the new net id. Fanin net ids may
      be forward references only for [Dff] data inputs — combinational
      fanins must already exist. [Dff] data inputs may be patched later
      with [set_dff_input]. *)
  val add_gate : t -> cell -> int array -> int

  (** [add_dff b] creates a flip-flop with a dangling data input, to be
      connected with [set_dff_input] (needed for feedback paths such as
      the PC). *)
  val add_dff : t -> int

  (** [add_dffe b] creates an enable-flop with dangling enable and data
      inputs, to be connected with [set_dffe_inputs]. *)
  val add_dffe : t -> int

  val set_dff_input : t -> int -> int -> unit
  val set_dffe_inputs : t -> int -> en:int -> d:int -> unit

  val name_net : t -> string -> int -> unit
  val freeze : t -> netlist
end

(** {1 Statistics} *)

module Stats : sig
  type counts = {
    total : int;
    sequential : int;
    combinational : int;
    by_cell : (string * int) list;
    by_module : (string * int) list;
  }

  val compute : t -> counts
  val pp : Format.formatter -> counts -> unit
end

(** {1 Application-specific constant analysis}

    A ternary reset-protocol simulation plus a greatest-fixpoint
    demotion loop computes an {e inductively invariant} partial value
    vector: every "folded" net is proven to hold a definite constant
    from the moment the real simulation reaches a state agreeing with
    the vector (with reset deasserted) — for any values on the remaining
    inputs, by Kleene monotonicity. Folded nets contribute zero
    switching activity; their leakage stays in the power model's base
    power. The result depends only on the netlist and the reset
    protocol, not on the program image, so it is computed once per
    netlist and shared across analyses. *)
module Specialize : sig
  type netlist = t
  type t

  (** [compute ?pre ?settle nl ~reset] — simulate [pre] cycles with
      [reset] asserted then [settle] cycles deasserted (matching the
      driver's reset sequence), extract fold candidates, and demote to
      the greatest inductive fixpoint. [reset] must be an [Input] net.
      O(cycles · gates). *)
  val compute : ?pre:int -> ?settle:int -> netlist -> reset:int -> t

  (** Nets proven constant (all kinds, including [Const] cells, the
      reset input and folded flops). *)
  val folded_count : t -> int

  (** Folded combinational gates. *)
  val folded_comb : t -> int

  (** Folded combinational gates whose entire fanout is also folded
      (a fully dead cone; reported as a statistic). *)
  val swept : t -> int

  val is_folded : t -> int -> bool

  (** Invariant value of a net as a {!Tri.I} code; [Tri.I.x] when the
      net is not folded. *)
  val code : t -> int -> int
end
