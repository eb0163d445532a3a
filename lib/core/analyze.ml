(* End-to-end driver: application binary + processor netlist ->
   guaranteed application-specific peak power and energy requirements
   (the tool of Figure 3.1). *)

type config = {
  revisit_limit : int;
  loop_bound : int;
  max_paths : int;
  max_cycles_per_path : int;
}

let default_config =
  { revisit_limit = 0; loop_bound = 16; max_paths = 4096; max_cycles_per_path = 20_000 }

type t = {
  image : Isa.Asm.image;
  tree : Gatesim.Trace.tree;
  sym_stats : Gatesim.Sym.stats;
  flattened : Gatesim.Trace.cycle array;
  power_trace : float array;  (** per-cycle peak power bound, W *)
  peak_power : float;  (** W *)
  peak_index : int;
  peak_energy : Peak_energy.result;
}

(* Standard power-analysis context for a built CPU: 100 MHz, default
   library, memory-bus capacitance on the external bus pins. *)
let poweran_for ?(lib = Stdcell.default) ?(period = 1e-8) cpu =
  (* The 17x17 array's partial-product routing is wire-dominated; scale
     its switching energy accordingly (the multiplier is the paper's
     "relatively large, high-power module"). *)
  Poweran.create ~bus:cpu.Cpu.bus_nets
    ~module_scale:[ ("multiplier", 1.6) ]
    cpu.Cpu.netlist lib ~period

(* The specialization depends only on the netlist and the reset
   protocol (not on the program image), so one result serves every
   report over a CPU — memoized by CPU identity, like the digests in
   [Key]. *)
let specialization_for =
  Parallel.identity_memo (fun cpu ->
      Telemetry.span "specialize" @@ fun () ->
      Netlist.Specialize.compute cpu.Cpu.netlist
        ~reset:cpu.Cpu.ports.Gatesim.Engine.reset)

(* Membership test for folded nets: [Explain] labels folded gates as a
   "constant" class. *)
let folded_pred cpu =
  let sp = specialization_for cpu in
  Netlist.Specialize.is_folded sp

let engine_for cpu image ~symbolic =
  let mem = Cpu.mem_of_image image in
  if not symbolic then Cpu.zero_ram mem;
  let e = Gatesim.Engine.create cpu.Cpu.netlist ~ports:cpu.Cpu.ports ~mem in
  if not symbolic then Gatesim.Engine.set_port_in e (Array.make 16 Tri.Zero);
  e

(* Symbolic analysis: Algorithm 1 then the Section 3.2/3.3
   computations. [pool] defaults to the ambient pool (see [Parallel]);
   results are bit-identical at any job count, and — because cached
   entries are Marshal round-trips of the same floats — also bit
   identical between cached and fresh runs.

   With a cache, the whole result is one "analysis" entry. Marshal keeps
   sharing, so [flattened] costs nothing on top of the tree whose
   records it holds, and the entry is the size of the tree alone. *)
let run ?(config = default_config) ?pool ?cache pa cpu
    (image : Isa.Asm.image) =
  Telemetry.span "analyze" @@ fun () ->
  let pool = match pool with Some _ as p -> p | None -> Parallel.auto () in
  let explore () =
    Telemetry.span "explore" @@ fun () ->
    let e = engine_for cpu image ~symbolic:true in
    let sym_config =
      {
        (Gatesim.Sym.default_config
           ~is_end:(Cpu.is_end_cycle ~halt_addr:image.Isa.Asm.halt_addr))
        with
        Gatesim.Sym.max_cycles_per_path = config.max_cycles_per_path;
        max_paths = config.max_paths;
        revisit_limit = config.revisit_limit;
      }
    in
    Gatesim.Sym.run ?pool e sym_config
  in
  let compute () =
    let tree, sym_stats = explore () in
    let pp_result =
      Telemetry.span "peak-power" (fun () -> Peak_power.of_tree pa tree)
    in
    let pe =
      Telemetry.span "peak-energy" (fun () ->
          Peak_energy.of_tree pa tree ~trace:pp_result.Peak_power.trace
            ~loop_bound:config.loop_bound)
    in
    {
      image;
      tree;
      sym_stats;
      flattened = pp_result.Peak_power.flattened;
      power_trace = pp_result.Peak_power.trace;
      peak_power = pp_result.Peak_power.peak;
      peak_index = pp_result.Peak_power.peak_index;
      peak_energy = pe;
    }
  in
  match cache with
  | None -> compute ()
  | Some c ->
    Cache.memo c ~ns:"analysis"
      ~key:
        (Key.analysis ~revisit_limit:config.revisit_limit
           ~max_paths:config.max_paths
           ~max_cycles_per_path:config.max_cycles_per_path
           ~loop_bound:config.loop_bound pa cpu image)
      compute

(* Symbolic execution of a program fragment: boot the machine with the
   reset vector pointed at [entry] and explore until [is_end]. Because
   every register, SR and RAM word starts X (only the PC has a reset
   value), booting straight into a basic block is exactly the
   conservative "entered from any machine state" entry the static tier
   needs — no prologue, no state surgery. *)
let run_fragment ?pool ~is_end ~max_cycles_per_path ~max_paths cpu
    (image : Isa.Asm.image) ~entry =
  Telemetry.span "fragment" @@ fun () ->
  let pool = match pool with Some _ as p -> p | None -> Parallel.auto () in
  (* Boot through a thunk placed past the program's last ROM word: stop
     the watchdog, then jump to [entry]. Without it the free-running
     watchdog counter gives every cycle a distinct state digest, so a
     loop inside the fragment never dedups. Every program in this
     repository (like any real MSP430 application) stops the watchdog
     in its prologue and leaves it stopped, so the fragment bound still
     dominates every reachable entry into the fragment. *)
  let thunk_base =
    List.fold_left
      (fun m (a, _) -> if a < Isa.Memmap.reset_vector then max m (a + 2) else m)
      Isa.Memmap.rom_base image.Isa.Asm.words
  in
  let lookup _ = 0 in
  let wdt_stop =
    Isa.Insn.encode ~lookup ~pc:thunk_base
      (Isa.Insn.I1
         ( Isa.Insn.MOV,
           Isa.Insn.S_imm (Isa.Insn.Lit 0x5A80),
           Isa.Insn.D_abs (Isa.Insn.Lit Isa.Memmap.wdtctl) ))
  in
  let br_pc = thunk_base + (2 * List.length wdt_stop) in
  let br =
    Isa.Insn.encode ~lookup ~pc:br_pc
      (Isa.Insn.br (Isa.Insn.S_imm (Isa.Insn.Lit entry)))
  in
  let thunk_words =
    List.mapi (fun k w -> (thunk_base + (2 * k), w)) (wdt_stop @ br)
  in
  let thunk_limit = thunk_base + (2 * List.length (wdt_stop @ br)) in
  assert (thunk_limit <= Isa.Memmap.reset_vector);
  let image =
    {
      image with
      Isa.Asm.entry_addr = entry;
      words =
        List.map
          (fun (a, w) ->
            if a = Isa.Memmap.reset_vector then (a, thunk_base) else (a, w))
          image.Isa.Asm.words
        @ thunk_words;
    }
  in
  (* Thunk fetches must not trip the caller's end predicate. *)
  let is_end cy =
    match
      (Tri.Word.to_int cy.Gatesim.Trace.state, Tri.Word.to_int cy.Gatesim.Trace.pc)
    with
    | Some s, Some p when s = Cpu.st_fetch && p >= thunk_base && p < thunk_limit
      ->
      false
    | _ -> is_end cy
  in
  let e = engine_for cpu image ~symbolic:true in
  let sym_config =
    {
      (Gatesim.Sym.default_config ~is_end) with
      Gatesim.Sym.max_cycles_per_path;
      max_paths;
    }
  in
  Gatesim.Sym.run ?pool e sym_config

(* Concrete (input-based) execution for profiling and validation: both
   variants run one engine through [Sym]'s concrete loop, with one
   cycle limit and one end test. *)
let concrete_engine cpu (image : Isa.Asm.image) ~inputs =
  let e = engine_for cpu image ~symbolic:false in
  List.iter
    (fun (addr, ws) ->
      List.iteri
        (fun k w -> Gatesim.Mem.poke (Gatesim.Engine.mem e) (addr + (2 * k)) w)
        ws)
    inputs;
  e

let concrete_limit = 200_000
let concrete_end (image : Isa.Asm.image) =
  Cpu.is_end ~halt_addr:image.Isa.Asm.halt_addr

(* Each cycle's observed power is summed straight from the engine's
   scratch deltas, so the run allocates its trace and no cycle
   records. *)
let run_concrete pa cpu image ~inputs =
  Telemetry.span "concrete" @@ fun () ->
  let e = concrete_engine cpu image ~inputs in
  let trace = ref (Array.make 1024 0.) and n = ref 0 in
  Gatesim.Sym.concrete e ~is_end:(concrete_end image) ~max_cycles:concrete_limit
    (fun () ->
      if !n = Array.length !trace then begin
        let bigger = Array.make (2 * !n) 0. in
        Array.blit !trace 0 bigger 0 !n;
        trace := bigger
      end;
      Array.unsafe_set !trace !n
        (Poweran.observed_power pa (Gatesim.Engine.last_deltas e)
           (Gatesim.Engine.last_delta_count e));
      incr n);
  Array.sub !trace 0 !n

let run_concrete_records cpu image ~inputs =
  Telemetry.span "concrete" @@ fun () ->
  Gatesim.Sym.run_concrete
    (concrete_engine cpu image ~inputs)
    ~is_end:(concrete_end image) ~max_cycles:concrete_limit

let cois ?(top = 4) ?(min_gap = 5) pa t =
  Coi.find ~image:t.image pa ~flattened:t.flattened ~trace:t.power_trace ~top
    ~min_gap
