(* Focused tests for the symbolic memory model and engine state
   management (snapshot/restore, forking corner cases), plus
   Chapter-6-style analyses: unknown peripheral input pins. *)

open Isa

let i x = Asm.I x
let mov_imm n r = i (Insn.I1 (Insn.MOV, Insn.S_imm (Insn.Lit n), Insn.D_reg r))
let input_addr = Memmap.ram_base + 0x80

(* ---- Mem ---- *)

let mk_mem () =
  Gatesim.Mem.create
    ~rom:[ (0xE000, 0x1234); (0xFFFE, 0xE000) ]
    ~ram_base:Memmap.ram_base ~ram_bytes:Memmap.ram_size

let w16 n = Tri.Word.of_int ~width:16 n
let xw = Tri.Word.all_x ~width:16

let tri_word = Alcotest.testable Tri.Word.pp Tri.Word.equal

let test_mem_rom_and_ram () =
  let m = mk_mem () in
  Alcotest.check tri_word "rom read" (w16 0x1234) (Gatesim.Mem.read m (w16 0xE000));
  Alcotest.check tri_word "vector" (w16 0xE000) (Gatesim.Mem.read m (w16 0xFFFE));
  Alcotest.check tri_word "uninitialized ram is X" xw
    (Gatesim.Mem.read m (w16 Memmap.ram_base));
  Gatesim.Mem.poke m Memmap.ram_base 0xBEEF;
  Alcotest.check tri_word "poked" (w16 0xBEEF) (Gatesim.Mem.read m (w16 Memmap.ram_base));
  (* unmapped: X *)
  Alcotest.check tri_word "unmapped" xw (Gatesim.Mem.read m (w16 0x4000))

let test_mem_write_strobes () =
  let m = mk_mem () in
  let a = w16 (Memmap.ram_base + 4) in
  Gatesim.Mem.write m ~strobe:Tri.One a (w16 0x1111);
  Alcotest.check tri_word "write one" (w16 0x1111) (Gatesim.Mem.read m a);
  Gatesim.Mem.write m ~strobe:Tri.Zero a (w16 0x2222);
  Alcotest.check tri_word "strobe zero ignored" (w16 0x1111) (Gatesim.Mem.read m a);
  (* X strobe: merge old and new *)
  Gatesim.Mem.write m ~strobe:Tri.X a (w16 0x1110);
  let v = Gatesim.Mem.read m a in
  Alcotest.(check bool) "merged has X on differing bit" true
    (Tri.is_x (Tri.Word.bit v 0));
  Alcotest.check Alcotest.char "agreeing bit stays" '1'
    (Tri.to_char (Tri.Word.bit v 4))

let test_mem_x_address_smears () =
  let m = mk_mem () in
  Gatesim.Mem.poke m Memmap.ram_base 0xAAAA;
  Gatesim.Mem.poke m (Memmap.ram_base + 10) 0x5555;
  Gatesim.Mem.write m ~strobe:Tri.One xw (w16 0x1234);
  (* every RAM word must now be unknown (any address could alias) *)
  Alcotest.check tri_word "smeared" xw (Gatesim.Mem.read m (w16 Memmap.ram_base));
  Alcotest.check tri_word "smeared 2" xw
    (Gatesim.Mem.read m (w16 (Memmap.ram_base + 10)));
  (* ROM unaffected *)
  Alcotest.check tri_word "rom intact" (w16 0x1234) (Gatesim.Mem.read m (w16 0xE000))

let test_mem_snapshot_restore () =
  let m = mk_mem () in
  Gatesim.Mem.poke m Memmap.ram_base 0x7777;
  let snap = Gatesim.Mem.snapshot m in
  let d1 = Gatesim.Mem.digest m in
  Gatesim.Mem.write m ~strobe:Tri.One xw (w16 0) (* smear *);
  Alcotest.(check bool) "digest changed" true (Gatesim.Mem.digest m <> d1);
  Gatesim.Mem.restore m snap;
  Alcotest.(check string) "digest restored" d1 (Gatesim.Mem.digest m);
  Alcotest.check tri_word "content restored" (w16 0x7777)
    (Gatesim.Mem.read m (w16 Memmap.ram_base))

let test_mem_x_word_count () =
  let m = mk_mem () in
  let total = Memmap.ram_size / 2 in
  Alcotest.(check int) "all X initially" total (Gatesim.Mem.x_word_count m);
  Gatesim.Mem.poke m Memmap.ram_base 1;
  Alcotest.(check int) "one concretized" (total - 1) (Gatesim.Mem.x_word_count m)

(* ---- engine snapshot/restore across a fork ---- *)

let branch_program =
  Tsupport.prologue
  @ [
      i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 4));
      i (Insn.tst 4);
      i (Insn.J (Insn.JEQ, Insn.Sym "z"));
      mov_imm 1 5;
      i (Insn.J (Insn.JMP, Insn.Sym "_halt"));
      Asm.Label "z";
      mov_imm 2 5;
    ]

let test_engine_snapshot_roundtrip () =
  let img = Tsupport.assemble_body branch_program in
  let e = Tsupport.fresh_engine ~concrete:false img in
  Gatesim.Engine.set_reset e Tri.One;
  ignore (Gatesim.Engine.step e);
  ignore (Gatesim.Engine.step e);
  Gatesim.Engine.set_reset e Tri.Zero;
  (* run to the fork *)
  let rec to_fork n =
    if n > 200 then Alcotest.fail "no fork found";
    match Gatesim.Engine.begin_cycle e with
    | `Ok ->
      ignore (Gatesim.Engine.finish_cycle e);
      to_fork (n + 1)
    | `Fork -> ()
  in
  to_fork 0;
  let snap = Gatesim.Engine.snapshot e in
  Gatesim.Engine.force_fork e Tri.Zero;
  let c0 = Gatesim.Engine.finish_cycle e in
  let d0 = Gatesim.Engine.arch_digest e in
  (* restore and take the same branch again: identical results *)
  Gatesim.Engine.restore e snap;
  Gatesim.Engine.force_fork e Tri.Zero;
  let c0' = Gatesim.Engine.finish_cycle e in
  let d0' = Gatesim.Engine.arch_digest e in
  Alcotest.(check string) "same digest" d0 d0';
  Alcotest.(check int) "same delta count"
    (Array.length c0.Gatesim.Trace.deltas)
    (Array.length c0'.Gatesim.Trace.deltas);
  (* the other branch must differ *)
  Gatesim.Engine.restore e snap;
  Gatesim.Engine.force_fork e Tri.One;
  ignore (Gatesim.Engine.finish_cycle e);
  let d1 = Gatesim.Engine.arch_digest e in
  Alcotest.(check bool) "branches diverge" true (d0 <> d1)

let test_force_without_fork_rejected () =
  let img = Tsupport.assemble_body (Tsupport.prologue @ [ mov_imm 1 4 ]) in
  let e = Tsupport.fresh_engine img in
  Alcotest.check_raises "not mid-cycle"
    (Invalid_argument "Engine.force_fork: not mid-cycle") (fun () ->
      Gatesim.Engine.force_fork e Tri.Zero)

(* ---- unknown peripheral pins (paper, Chapter 6) ---- *)

let test_port_pin_x_forks () =
  (* polling an external pin: under symbolic analysis the pin is X, so
     both the loop and the exit are explored *)
  let body =
    Tsupport.prologue
    @ [
        i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit Memmap.p1in), Insn.D_reg 4));
        i (Insn.I1 (Insn.AND, Insn.S_imm (Insn.Lit 1), Insn.D_reg 4));
        i (Insn.J (Insn.JEQ, Insn.Sym "low"));
        mov_imm 1 5;
        i (Insn.J (Insn.JMP, Insn.Sym "_halt"));
        Asm.Label "low";
        mov_imm 0 5;
      ]
  in
  let img = Tsupport.assemble_body body in
  let e = Tsupport.fresh_engine ~concrete:false img in
  let cfg =
    Gatesim.Sym.default_config
      ~is_end:(Cpu.is_end_cycle ~halt_addr:img.Asm.halt_addr)
  in
  let _, stats = Gatesim.Sym.run e cfg in
  Alcotest.(check int) "pin value forks" 2 stats.Gatesim.Sym.paths;
  (* concretely driving the pin resolves the branch *)
  let e2 = Tsupport.fresh_engine ~concrete:true img in
  Gatesim.Engine.set_port_in e2
    (Array.init 16 (fun k -> if k = 0 then Tri.One else Tri.Zero));
  let cycles =
    Gatesim.Sym.run_concrete e2
      ~is_end:(Cpu.is_end ~halt_addr:img.Asm.halt_addr)
      ~max_cycles:1000
  in
  Alcotest.(check bool) "concrete run completes" true (Array.length cycles > 10)

let () =
  Alcotest.run "mem-engine"
    [
      ( "mem",
        [
          Alcotest.test_case "rom/ram/unmapped" `Quick test_mem_rom_and_ram;
          Alcotest.test_case "write strobes" `Quick test_mem_write_strobes;
          Alcotest.test_case "x address smear" `Quick test_mem_x_address_smears;
          Alcotest.test_case "snapshot/restore" `Quick test_mem_snapshot_restore;
          Alcotest.test_case "x word count" `Quick test_mem_x_word_count;
        ] );
      ( "engine",
        [
          Alcotest.test_case "snapshot across fork" `Quick
            test_engine_snapshot_roundtrip;
          Alcotest.test_case "force guard" `Quick test_force_without_fork_rejected;
        ] );
      ( "pins",
        [ Alcotest.test_case "x pin forks" `Quick test_port_pin_x_forks ] );
    ]
