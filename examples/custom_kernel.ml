(* Bringing your own application to the tool.

   Write a kernel with the assembly EDSL, check it against a golden
   model on the reference ISS, then bound its peak power and energy —
   including the input-independence guarantee: the bound holds for
   every possible content of the input region.

   The kernel: an exponentially-weighted moving average (EWMA) over 6
   unknown samples, y += (x - y) / 4, a classic sensor smoother.

   Run with: dune exec examples/custom_kernel.exe *)

open Benchprogs.Bench.E

let n = 6
let in_at k = Benchprogs.Bench.input_base + (2 * k)
let out_addr = Benchprogs.Bench.output_base

let body =
  [
    mov (imm 0) (dreg 5) (* y *);
    mov (imm Benchprogs.Bench.input_base) (dreg 4);
    mov (imm n) (dreg 10);
    lbl "ewma";
    mov (indinc 4) (dreg 6);
    sub (reg 5) (dreg 6) (* x - y *);
    rra 6;
    rra 6 (* (x - y) / 4, arithmetic *);
    add (reg 6) (dreg 5);
    sub (imm 1) (dreg 10);
    jne "ewma";
    mov (reg 5) (dabs out_addr);
  ]

(* golden model, mirroring the 16-bit arithmetic *)
let reference inputs =
  let m16 v = v land 0xFFFF in
  let sra v = (v lsr 1) lor (v land 0x8000) in
  List.fold_left (fun y x -> m16 (y + sra (sra (m16 (x - y))))) 0 inputs

let () =
  let image =
    Isa.Asm.assemble
      {
        Isa.Asm.name = "ewma";
        entry = "start";
        sections =
          [
            {
              Isa.Asm.org = Isa.Memmap.rom_base;
              items = ((Isa.Asm.Label "start" :: prologue) @ body) @ Isa.Asm.halt_items;
            };
          ];
      }
  in
  (* 1. functional check on the reference ISS *)
  List.iter
    (fun seed ->
      let inputs = Benchprogs.Bench.lcg_words ~seed n in
      let iss = Isa.Iss.create image in
      List.iteri (fun k w -> Isa.Iss.write_word iss (in_at k) w) inputs;
      Isa.Iss.run iss;
      let got = Isa.Iss.read_word iss out_addr in
      let want = reference inputs in
      if got <> want then failwith (Printf.sprintf "mismatch: %d vs %d" got want);
      Printf.printf "seed %2d: ewma = 0x%04x (matches golden model)\n" seed got)
    [ 1; 2; 3 ];

  (* 2. input-independent peak power/energy bounds *)
  let cpu = Cpu.build () in
  let pa = Core.Analyze.poweran_for cpu in
  let a = Core.Analyze.run pa cpu image in
  Printf.printf
    "\nX-based analysis: %d paths (every possible input), %d cycles\n"
    a.Core.Analyze.sym_stats.Gatesim.Sym.paths
    a.Core.Analyze.sym_stats.Gatesim.Sym.total_cycles;
  Printf.printf "peak power bound:  %.4f mW\n" (a.Core.Analyze.peak_power *. 1e3);
  Printf.printf "peak energy bound: %.4f nJ\n"
    (a.Core.Analyze.peak_energy.Core.Peak_energy.energy *. 1e9);

  (* 3. the bound really is input-independent: adversarial inputs stay
     below it *)
  List.iter
    (fun (label, inputs) ->
      let trace =
        Core.Analyze.run_concrete pa cpu image
          ~inputs:[ (Benchprogs.Bench.input_base, inputs) ]
      in
      let peak, _ = Poweran.peak_of trace in
      Printf.printf "%-12s concrete peak %.4f mW (<= bound: %b)\n" label
        (peak *. 1e3)
        (peak <= a.Core.Analyze.peak_power))
    [
      ("zeros", List.init n (fun _ -> 0));
      ("alternating", List.init n (fun k -> if k mod 2 = 0 then 0xAAAA else 0x5555));
      ("all-ones", List.init n (fun _ -> 0xFFFF));
    ]
