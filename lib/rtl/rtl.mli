(** Structural RTL builder.

    A thin typed layer over {!Netlist.Builder}: signals are net ids, buses
    are little-endian signal arrays, and every combinator elaborates
    directly to gates. This is the substitute for the Verilog + Design
    Compiler flow that produced the paper's openMSP430 netlist — the CPU
    in {!Cpu} is described with these combinators and ends up as a flat
    gate-level netlist with per-module attribution. *)

type ctx
type signal = int
type bus = signal array

val create : unit -> ctx
val builder : ctx -> Netlist.Builder.t

(** [set_module ctx name] tags subsequently created gates with [name]. *)
val set_module : ctx -> string -> unit

val freeze : ctx -> Netlist.t
val name_signal : ctx -> string -> signal -> unit

(** [name_bus ctx "pc" b] names each bit [pc\[i\]]. *)
val name_bus : ctx -> string -> bus -> unit

(** {1 Sources} *)

val gnd : ctx -> signal
val vdd : ctx -> signal
val input : ctx -> signal
val input_bus : ctx -> int -> bus
val const : ctx -> width:int -> int -> bus

(** {1 Single-bit logic} *)

val not_ : ctx -> signal -> signal
val and_ : ctx -> signal -> signal -> signal
val or_ : ctx -> signal -> signal -> signal
val nor_ : ctx -> signal -> signal -> signal
val xor_ : ctx -> signal -> signal -> signal
val xnor_ : ctx -> signal -> signal -> signal

(** [mux ctx ~sel a b] is [a] when [sel] is 0, [b] when 1. *)
val mux : ctx -> sel:signal -> signal -> signal -> signal

val and_many : ctx -> signal list -> signal
val or_many : ctx -> signal list -> signal

(** {1 Bus utilities} *)

val width : bus -> int

(** [slice b lo len] is bits [lo .. lo+len-1]. *)
val slice : bus -> int -> int -> bus

(** Least-significant part first. *)
val concat : bus list -> bus

val repeat : signal -> int -> bus
val zext : ctx -> bus -> int -> bus
val sext : ctx -> bus -> int -> bus

(** {1 Bus logic} *)

val bnot : ctx -> bus -> bus
val band : ctx -> bus -> bus -> bus
val bor : ctx -> bus -> bus -> bus
val bxor : ctx -> bus -> bus -> bus
val bmux : ctx -> sel:signal -> bus -> bus -> bus

(** [mux_tree ctx sel cases] selects [cases.(n)] where [n] is the value
    of the [sel] bus; [cases] is padded with its last element up to
    [2^width sel]. *)
val mux_tree : ctx -> bus -> bus array -> bus

(** [pmux ctx cases default] is a priority mux: the first case whose
    condition holds wins. *)
val pmux : ctx -> (signal * bus) list -> bus -> bus

(** [decode ctx sel] is the [2^w] one-hot decode of [sel]. *)
val decode : ctx -> bus -> signal array

(** {1 Arithmetic} *)

val adder : ctx -> bus -> bus -> cin:signal -> bus * signal
val add : ctx -> bus -> bus -> bus
val sub : ctx -> bus -> bus -> bus
val inc : ctx -> bus -> bus
val neg : ctx -> bus -> bus
val eq : ctx -> bus -> bus -> signal
val eq_const : ctx -> bus -> int -> signal
val is_zero : ctx -> bus -> signal
val lt_unsigned : ctx -> bus -> bus -> signal

(** Combinational array multiplier (unsigned); result has width
    [w a + w b]. *)
val mul_array : ctx -> bus -> bus -> bus

(** Two's-complement array multiplier; operands must have equal width
    [n], result has width [2n]. *)
val mul_array_signed : ctx -> bus -> bus -> bus

(** {1 State} *)

type reg

(** [reg ctx ~width] creates flip-flops with dangling data inputs; read
    the outputs with {!q} immediately, connect the next-state function
    later with {!connect}. *)
val reg : ctx -> width:int -> reg

val q : reg -> bus

(** [connect ctx r ?reset ?reset_to ?enable d]: when [reset] is high the
    register loads [reset_to] (default 0); otherwise when [enable]
    (default always) is high it loads [d], else it holds. *)
val connect :
  ctx -> reg -> ?reset:signal -> ?reset_to:int -> ?enable:signal -> bus -> unit
