(** Three-valued (Kleene) logic: the value domain of symbolic gate-level
    simulation. [X] stands for "unknown", used for every signal the
    application binary does not constrain (paper, Section 3.1). *)

type t = Zero | One | X

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_char : t -> char

(** [of_char c] parses ['0'], ['1'], ['x'], ['X']. Raises
    [Invalid_argument] otherwise. *)
val of_char : char -> t

val of_bool : bool -> t

val is_x : t -> bool

(** {1 Kleene connectives} *)

val lnot : t -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val xor : t -> t -> t
val lnand : t -> t -> t
val lnor : t -> t -> t
val lxnor : t -> t -> t

(** [mux sel a b] is [a] when [sel = Zero], [b] when [sel = One]; when
    [sel = X] it is [a] if [a = b] (the output is determined either way)
    and [X] otherwise. *)
val mux : t -> t -> t -> t

(** {1 Dense integer encoding}

    The gate simulator stores trits as unboxed ints for speed:
    [0 -> Zero], [1 -> One], [2 -> X]. The [I] module provides the same
    connectives directly on the encoding. *)

val to_int : t -> int
val of_int : int -> t

module I : sig
  val zero : int
  val one : int
  val x : int
  val lnot : int -> int
  val land_ : int -> int -> int
  val lor_ : int -> int -> int
  val lxor_ : int -> int -> int
  val lnand : int -> int -> int
  val lnor : int -> int -> int
  val lxnor : int -> int -> int
  val mux : int -> int -> int -> int
end

(** {1 Packed ternary planes}

    A vector of trits as two parallel bit arrays ("value" and "unknown"
    planes), 32 trits per [int] word: trit [i] is bit [i land 31] of
    word [i lsr 5]. Codes are the {!I} encoding with the invariant that
    an X trit carries a 0 value bit, so planes are element-wise equal
    iff equal word by word — the representation behind the gate
    simulator's compiled kernel, where snapshots and diffs are
    word-wide operations. *)

module Plane : sig
  (** [words n] — plane length in words for [n] trits. *)
  val words : int -> int

  (** [make n] — a [(v, x)] plane pair of [n] trits, all [Zero]. *)
  val make : int -> int array * int array

  (** Index of the lowest set bit of a nonzero 32-bit word. *)
  val ctz : int -> int
end

(** {1 Trit words}

    Fixed-width little-endian trit vectors with X-propagating arithmetic.
    Representation: [(v, x)] bit pairs packed in two ints — bit [i] is
    unknown iff bit [i] of [x] is set; otherwise its value is bit [i] of
    [v]. Unknown positions keep [v] normalized to 0. *)

module Word : sig
  type tri = t

  type t = private { v : int; x : int; width : int }

  val make : width:int -> v:int -> x:int -> t

  (** [of_int ~width n] is the fully-known word for [n] truncated to
      [width] bits. *)
  val of_int : width:int -> int -> t

  (** [all_x ~width] is the fully-unknown word. *)
  val all_x : width:int -> t

  (** [to_int w] is [Some n] when no bit is X. *)
  val to_int : t -> int option

  val is_known : t -> bool
  val has_x : t -> bool
  val equal : t -> t -> bool
  val width : t -> int

  val bit : t -> int -> tri
  val set_bit : t -> int -> tri -> t
  val of_trits : tri array -> t
  val to_trits : t -> tri array
  val pp : Format.formatter -> t -> unit

  (** {2 Bitwise} *)

  val lnot : t -> t
  val logand : t -> t -> t
  val logor : t -> t -> t
  val logxor : t -> t -> t

  (** {2 Arithmetic (ripple X propagation)} *)

  val add : t -> t -> t

  (** [add_carry a b cin] is the sum and carry-out. *)
  val add_carry : t -> t -> tri -> t * tri

  val sub : t -> t -> t

  (** Low [width] bits of the product. *)
  val mul : t -> t -> t

  (** The [2*width]-bit product. *)
  val mul_full : t -> t -> t

  (** {2 Shifts} *)

  val shift_left : t -> int -> t
  val shift_right_logical : t -> int -> t
  val shift_right_arith : t -> int -> t

  (** {2 Comparisons (trit-valued)} *)

  val eq : t -> t -> tri
  val lt_unsigned : t -> t -> tri
  val lt_signed : t -> t -> tri

  (** [merge a b] is the least upper bound: agreeing known bits stay
      known, disagreeing or unknown bits become X. Used when joining
      memory states from different execution paths. *)
  val merge : t -> t -> t
end
