(** The ultra-low-power processor, as a gate-level netlist.

    A multi-cycle implementation of the MSP430-subset ISA ({!Isa.Insn}),
    elaborated from {!Rtl} combinators into a flat {!Netlist.t}. The
    module inventory mirrors the openMSP430 breakdown used by the
    paper's per-module power analysis: [clk_module], [dbg], [exec_unit],
    [frontend], [mem_backbone], [multiplier], [sfr] (incl. port 1) and
    [watchdog].

    The micro-architecture is the state machine documented in
    {!Isa.Insn.cycles}: RESET, VECTOR, FETCH, SRC_EXT, SRC_READ,
    DST_EXT, DST_READ, EXEC, WRITE, POP1, POP2. {!Isa.Iss} is its
    executable specification; the two are kept in lockstep by the test
    suite. *)

type t = {
  netlist : Netlist.t;
  ports : Gatesim.Engine.ports;
  reg_nets : int array array;  (** [reg_nets.(r)] = net ids of register r *)
  sr_nets : int array;
  state_nets : int array;
  mult_active_net : int;  (** multiplier array-active strobe (s2) *)
  bus_nets : int array;
      (** address/data bus nets that drive the memory macros; power
          analysis puts the lumped flash/SRAM access capacitance here *)
}

(** FSM state encodings (value of the [state] probe bus). *)

val st_reset : int
val st_vector : int
val st_fetch : int
val st_src_ext : int
val st_src_read : int
val st_dst_ext : int
val st_dst_read : int
val st_exec : int
val st_write : int
val st_pop1 : int
val st_pop2 : int

val state_name : int -> string

(** Elaborate the processor. The result is deterministic; building twice
    gives identical netlists. *)
val build : unit -> t

(** [is_end ~halt_addr ~state ~pc] — the standard end-of-application
    predicate over the sampled state and PC probes: fetching the halt
    self-jump. *)
val is_end : halt_addr:int -> state:Tri.Word.t -> pc:Tri.Word.t -> bool

(** [is_end_cycle ~halt_addr cycle] — {!is_end} on a cycle record's
    probes. *)
val is_end_cycle : halt_addr:int -> Gatesim.Trace.cycle -> bool

(** [check_memory_ports nl ports] raises [Failure] when the memory's
    read data can reach its address or read enable within one cycle,
    which {!Gatesim.Engine.begin_cycle}'s single read assumes they
    cannot. Read-data influence is followed through the ternary values
    of a cycle in each defined FSM state ([ports.state] bus, reset low)
    and under reset (state X), so a structural path that no state
    sensitizes passes. {!build} calls it. *)
val check_memory_ports : Netlist.t -> Gatesim.Engine.ports -> unit

(** [mem_of_image image] — a {!Gatesim.Mem.t} loaded with an assembled
    program (ROM + reset vector), RAM all X. *)
val mem_of_image : Isa.Asm.image -> Gatesim.Mem.t

(** [zero_ram mem] — concretize all RAM words to 0 (ISS-equivalent
    baseline for concrete runs). *)
val zero_ram : Gatesim.Mem.t -> unit
