(* Genetic stressmark generation (paper, Section 4.2; after Kim et al.,
   MICRO'12 "AUDIT").

   A genome is a short instruction sequence drawn from an alphabet of
   high-activity templates (alternating-pattern ALU ops, memory
   traffic, hardware-multiplier bursts, stack ops). Fitness is measured
   on the gate-level simulator: either the peak per-cycle power or the
   average power of the phenotype's execution. Tournament selection,
   single-point crossover, per-gene mutation, elitism. *)

type gene =
  | G_alu_imm of Isa.Insn.op1 * int * int  (** op, pattern, reg *)
  | G_alu_rr of Isa.Insn.op1 * int * int
  | G_load_abs of int  (** scratch slot *)
  | G_store_abs of int * int  (** reg, slot *)
  | G_load_idx of int  (** offset slot, via r12 *)
  | G_mul of int * int  (** pattern indexes for op1/op2 *)
  | G_mul_flip  (** back-to-back complementary multiplies: max array toggling *)
  | G_mul_read
  | G_push of int
  | G_pop of int
  | G_swpb of int
  | G_nop

type genome = gene array

type config = {
  genome_len : int;
  population : int;
  generations : int;
  tournament : int;
  mutation_rate : float;
  elite : int;
  repeats : int;  (** times the genome body is repeated in the phenotype *)
  seed : int;
}

let default_config =
  {
    genome_len = 32;
    population = 20;
    generations = 12;
    tournament = 3;
    mutation_rate = 0.15;
    elite = 2;
    repeats = 3;
    seed = 0xC0FFEE;
  }

(* deterministic PRNG (xorshift) so stressmark results are reproducible *)
type rng = { mutable s : int }

let mk_rng seed = { s = (seed lor 1) land 0x3FFFFFFFFFFFFFF }

let next r =
  let x = r.s in
  let x = x lxor (x lsl 13) land 0x3FFFFFFFFFFFFFF in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) land 0x3FFFFFFFFFFFFFF in
  r.s <- x;
  x

let rand_int r n = next r mod n
let rand_float r = float_of_int (next r land 0xFFFFFF) /. float_of_int 0x1000000

let patterns = [| 0xAAAA; 0x5555; 0xFFFF; 0x0000; 0xA5A5; 0x7FFF; 0xCCCC; 0x3333 |]
let work_regs = [| 4; 5; 6; 7; 8; 9; 10; 11 |]
let alu_ops = Isa.Insn.[| ADD; SUB; XOR; AND; BIS; ADDC; BIC |]
let scratch = Benchprogs.Bench.input_base

let random_gene r =
  match rand_int r 11 with
  | 0 | 1 ->
    G_alu_imm
      ( alu_ops.(rand_int r (Array.length alu_ops)),
        rand_int r (Array.length patterns),
        work_regs.(rand_int r (Array.length work_regs)) )
  | 2 ->
    G_alu_rr
      ( alu_ops.(rand_int r (Array.length alu_ops)),
        work_regs.(rand_int r (Array.length work_regs)),
        work_regs.(rand_int r (Array.length work_regs)) )
  | 3 -> G_load_abs (rand_int r 8)
  | 4 -> G_store_abs (work_regs.(rand_int r (Array.length work_regs)), rand_int r 8)
  | 5 -> G_load_idx (rand_int r 8)
  | 6 -> G_mul (rand_int r (Array.length patterns), rand_int r (Array.length patterns))
  | 7 -> G_mul_flip
  | 8 -> G_mul_read
  | 9 -> G_push work_regs.(rand_int r (Array.length work_regs))
  | _ -> G_pop work_regs.(rand_int r (Array.length work_regs))

let items_of_gene g =
  let open Benchprogs.Bench.E in
  match g with
  | G_alu_imm (op, p, rd) ->
    [ i (Isa.Insn.I1 (op, imm patterns.(p), dreg rd)) ]
  | G_alu_rr (op, rs, rd) -> [ i (Isa.Insn.I1 (op, reg rs, dreg rd)) ]
  | G_load_abs slot -> [ mov (abs (scratch + (2 * slot))) (dreg 14) ]
  | G_store_abs (r, slot) -> [ mov (reg r) (dabs (scratch + (2 * slot))) ]
  | G_load_idx slot -> [ mov (idx (2 * slot) 12) (dreg 14) ]
  | G_mul (p1, p2) ->
    [
      mov (imm patterns.(p1)) (dabs Isa.Memmap.mpy);
      mov (imm patterns.(p2)) (dabs Isa.Memmap.op2);
    ]
  | G_mul_flip ->
    [
      mov (imm 0xAAAA) (dabs Isa.Memmap.mpy);
      mov (imm 0x5555) (dabs Isa.Memmap.op2);
      mov (imm 0x5555) (dabs Isa.Memmap.mpy);
      mov (imm 0xAAAA) (dabs Isa.Memmap.op2);
    ]
  | G_mul_read -> [ mov (abs Isa.Memmap.reslo) (dreg 14); mov (abs Isa.Memmap.reshi) (dreg 15) ]
  | G_push r -> [ push (reg r) ]
  | G_pop r -> [ pop r ]
  | G_swpb r -> [ swpb r ]
  | G_nop -> [ nop ]

(* Balanced stack: count pushes/pops and pad so SP ends where it
   started (keeps repeats bounded in RAM). *)
let phenotype config genome =
  let open Benchprogs.Bench.E in
  let body_once =
    let items = List.concat_map items_of_gene (Array.to_list genome) in
    let pushes =
      Array.fold_left
        (fun a g -> match g with G_push _ -> a + 1 | G_pop _ -> a - 1 | _ -> a)
        0 genome
    in
    let fixup =
      if pushes > 0 then List.init pushes (fun _ -> pop 15)
      else if pushes < 0 then List.init (-pushes) (fun _ -> push (reg 15))
      else []
    in
    items @ fixup
  in
  let init =
    [ mov (imm scratch) (dreg 12) ]
    @ List.concat
        (List.mapi
           (fun k r -> [ mov (imm patterns.(k mod Array.length patterns)) (dreg r) ])
           (Array.to_list work_regs))
    @ List.concat (List.init 8 (fun k -> [ mov (imm patterns.(k)) (dabs (scratch + (2 * k))) ]))
    @ [ mov (imm 0) (dreg 14); mov (imm 0) (dreg 15) ]
  in
  init @ List.concat (List.init config.repeats (fun _ -> body_once))

type fitness = Peak | Average

(* The paper reports stressmark baselines guardbanded ("GB-Stress",
   Figure 4); we apply the same 4/3 factor as the profiling baseline
   (margin for operating conditions — a stressmark has no inputs, but a
   deployed system still needs headroom over bench conditions). *)
let guardband = 4. /. 3.

type result = {
  best_genome : genome;
  best_fitness : float;  (** W *)
  peak_power : float;
  avg_power : float;
  evaluations : int;
}

let evaluate pa cpu config genome =
  let body = phenotype config genome in
  let img =
    Isa.Asm.assemble
      {
        Isa.Asm.name = "stressmark";
        entry = "start";
        sections =
          [
            {
              Isa.Asm.org = Isa.Memmap.rom_base;
              items =
                ((Isa.Asm.Label "start" :: Benchprogs.Bench.E.prologue) @ body)
                @ Isa.Asm.halt_items;
            };
          ];
      }
  in
  let trace = Core.Analyze.run_concrete pa cpu img ~inputs:[] in
  let peak, _ = Poweran.peak_of trace in
  (* average power over the steady-state tail (the register/scratch
     initialization prologue would otherwise dilute the average) *)
  let n = Array.length trace in
  let from = n / 3 in
  let tail = Array.sub trace from (n - from) in
  let avg = Array.fold_left ( +. ) 0. tail /. float_of_int (Array.length tail) in
  (peak, avg)

let run ?(config = default_config) ~fitness pa cpu =
  let r = mk_rng config.seed in
  let evals = ref 0 in
  let score genome =
    let peak, avg = evaluate pa cpu config genome in
    match fitness with Peak -> (peak, avg) | Average -> (avg, peak)
  in
  (* Fitness evaluation — a full concrete gate-level run per genome — is
     the expensive, independent part: map it over the pool in submission
     order. The RNG only ever advances on this domain (selection,
     crossover, mutation), so the generation sequence and therefore the
     whole GA trajectory is identical at any job count. *)
  let score_all pop =
    evals := !evals + Array.length pop;
    Parallel.map_array_auto score pop
  in
  let random_genome () = Array.init config.genome_len (fun _ -> random_gene r) in
  let pop = Array.init config.population (fun _ -> random_genome ()) in
  let fitnesses = score_all pop in
  let by_fitness () =
    let idx = Array.init config.population (fun k -> k) in
    Array.sort (fun a b -> Float.compare (fst fitnesses.(b)) (fst fitnesses.(a))) idx;
    idx
  in
  for _gen = 1 to config.generations do
    let order = by_fitness () in
    let tournament () =
      let best = ref (rand_int r config.population) in
      for _ = 2 to config.tournament do
        let c = rand_int r config.population in
        if fst fitnesses.(c) > fst fitnesses.(!best) then best := c
      done;
      pop.(!best)
    in
    let next_pop =
      Array.init config.population (fun k ->
          if k < config.elite then Array.copy pop.(order.(k))
          else begin
            let a = tournament () and b = tournament () in
            let cut = rand_int r config.genome_len in
            let child =
              Array.init config.genome_len (fun j ->
                  if j < cut then a.(j) else b.(j))
            in
            Array.map
              (fun g -> if rand_float r < config.mutation_rate then random_gene r else g)
              child
          end)
    in
    Array.blit next_pop 0 pop 0 config.population;
    Array.blit (score_all pop) 0 fitnesses 0 config.population
  done;
  let order = by_fitness () in
  let best = order.(0) in
  let fit, other = fitnesses.(best) in
  let peak, avg = match fitness with Peak -> (fit, other) | Average -> (other, fit) in
  {
    best_genome = Array.copy pop.(best);
    best_fitness = fit;
    peak_power = peak;
    avg_power = avg;
    evaluations = !evals;
  }
