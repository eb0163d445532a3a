(* Gate-level MSP430-subset processor.

   Micro-architecture: a multi-cycle state machine
     RESET -> VECTOR -> FETCH -> [SRC_EXT] -> [SRC_READ] -> [DST_EXT]
           -> [DST_READ] -> EXEC -> [WRITE] -> FETCH
   with POP1/POP2 for RETI. One shared ALU adder, plus small dedicated,
   operand-isolated adders: the PC incrementer, the address generator
   (indexed modes), the +/-2 incrementer (auto-increment, stack), and
   the jump-target adder. The operand isolation matters for the paper's
   peak-power optimizations: OPT1 (indexed loads light up the address
   generator in the same cycle as the memory read) and OPT2 (POP drives
   bus and incrementer simultaneously) are real activity phenomena here,
   not modelling artifacts. *)

let st_reset = 0
let st_vector = 1
let st_fetch = 2
let st_src_ext = 3
let st_src_read = 4
let st_dst_ext = 5
let st_dst_read = 6
let st_exec = 7
let st_write = 8
let st_pop1 = 9
let st_pop2 = 10
let n_states = 11

let state_name = function
  | 0 -> "RESET"
  | 1 -> "VECTOR"
  | 2 -> "FETCH"
  | 3 -> "SRC_EXT"
  | 4 -> "SRC_READ"
  | 5 -> "DST_EXT"
  | 6 -> "DST_READ"
  | 7 -> "EXEC"
  | 8 -> "WRITE"
  | 9 -> "POP1"
  | 10 -> "POP2"
  | n -> Printf.sprintf "STATE_%d" n

type t = {
  netlist : Netlist.t;
  ports : Gatesim.Engine.ports;
  reg_nets : int array array;
  sr_nets : int array;
  state_nets : int array;
  mult_active_net : int;
  bus_nets : int array;
}

(* [Gatesim.Engine.begin_cycle] reads the memory once, at the address
   and read enable its first settle gives, before the read data are
   driven; that is exact only if read data cannot reach the address or
   the read enable within a cycle. Structurally they can: the fetch
   bypass decodes the read-data bus during FETCH, and that decode feeds
   the operand-address muxes. The path is never sensitized (in FETCH the
   address mux selects the PC; in every other state the decoder reads
   the IR), so the check follows read-data influence through one cycle's
   ternary values instead of the bare fan-in cone: every source is X
   except the FSM state (each defined state in turn, reset low) or the
   reset (high, state X). A net is influenced when it is X and an
   influenced fanin can reach it: any fanin of a logic gate, the
   selected input of a mux with a known select. The check fails closed:
   it raises when the read enable is influenced, or the address is
   while the read enable is not known 0. *)
let check_memory_ports nl (p : Gatesim.Engine.ports) =
  let roots = Array.append p.mem_addr [| p.mem_ren |] in
  let cone = Netlist.fanin_cone nl roots in
  if Array.exists (fun id -> cone.(id)) p.mem_rdata then begin
    let n = Netlist.gate_count nl in
    let gates = nl.Netlist.gates in
    let x = Tri.I.x in
    let v0 = Array.make n x in
    Array.iter
      (fun (g : Netlist.gate) ->
        match g.Netlist.cell with
        | Netlist.Const k -> v0.(g.Netlist.id) <- Tri.to_int k
        | _ -> ())
      gates;
    let order =
      List.filter (fun id -> cone.(id)) (Array.to_list nl.Netlist.topo)
    in
    let settle ~reset ~state =
      let v = Array.copy v0 and inf = Array.make n false in
      v.(p.reset) <- reset;
      Option.iter
        (fun s -> Array.iteri (fun i id -> v.(id) <- (s lsr i) land 1) p.state)
        state;
      Array.iter (fun id -> inf.(id) <- true) p.mem_rdata;
      List.iter
        (fun id ->
          let f = gates.(id).Netlist.fanins in
          let a = v.(f.(0)) and ia = inf.(f.(0)) in
          let out, reach =
            match gates.(id).Netlist.cell with
            | Netlist.Buf -> (a, ia)
            | Netlist.Inv -> (Tri.I.lnot a, ia)
            | Netlist.Mux2 ->
              let b = v.(f.(1)) and c = v.(f.(2)) in
              let ib = inf.(f.(1)) and ic = inf.(f.(2)) in
              ( Tri.I.mux a b c,
                ia || (if a = 0 then ib else if a = 1 then ic else ib || ic) )
            | cell ->
              let b = v.(f.(1)) in
              let op =
                match cell with
                | Netlist.And2 -> Tri.I.land_
                | Netlist.Or2 -> Tri.I.lor_
                | Netlist.Nand2 -> Tri.I.lnand
                | Netlist.Nor2 -> Tri.I.lnor
                | Netlist.Xor2 -> Tri.I.lxor_
                | _ -> Tri.I.lxnor
              in
              (op a b, ia || inf.(f.(1)))
          in
          v.(id) <- out;
          inf.(id) <- reach && out = x)
        order;
      let fail what =
        failwith
          (Printf.sprintf
             "Cpu.check_memory_ports: read data reach the %s combinationally \
              (%s)"
             what
             (match state with
             | Some s -> "state " ^ state_name s
             | None -> "reset"))
      in
      if inf.(p.mem_ren) then fail "read enable";
      if v.(p.mem_ren) <> 0 && Array.exists (fun id -> inf.(id)) p.mem_addr then
        fail "address"
    in
    settle ~reset:1 ~state:None;
    for s = 0 to n_states - 1 do
      settle ~reset:0 ~state:(Some s)
    done
  end

let build () =
  let c = Rtl.create () in
  let open Rtl in
  (* ---------------- external interface ---------------- *)
  set_module c "mem_backbone";
  let reset = input c in
  let ext_rdata = input_bus c 16 in
  set_module c "sfr";
  let port_in = input_bus c 16 in

  (* ---------------- registers (created first for feedback) -------- *)
  set_module c "frontend";
  let pc = reg c ~width:16 in
  let state = reg c ~width:4 in
  let ir = reg c ~width:16 in
  let ext_s = reg c ~width:16 in
  let ext_d = reg c ~width:16 in
  set_module c "exec_unit";
  let sr = reg c ~width:16 in
  let tmp_s = reg c ~width:16 in
  let tmp_d = reg c ~width:16 in
  let res = reg c ~width:16 in
  (* register file: r1 (SP), r3..r15; r0 is the PC, r2 the SR *)
  let rf = Array.make 16 None in
  for i = 0 to 15 do
    if i <> 0 && i <> 2 then rf.(i) <- Some (reg c ~width:16)
  done;
  let rf_q i =
    match rf.(i) with Some r -> q r | None -> invalid_arg "rf_q"
  in
  let sp_val = rf_q 1 in

  (* ---------------- decode (frontend) ---------------- *)
  set_module c "frontend";
  let irq = q ir in
  let stq = q state in
  let pcq = q pc in
  let st = Array.init n_states (fun i -> eq_const c stq i) in
  (* Fetch bypass: during FETCH the next-state logic must decode the
     word being fetched (the IR only latches at the cycle's end).
     Instructions always come from program ROM, never peripherals, so
     the bypass taps the external read-data bus directly. *)
  let dec = bmux c ~sel:st.(st_fetch) irq ext_rdata in
  let is_jump = eq_const c (slice dec 13 3) 0b001 in
  let is_fmt2 = eq_const c (slice dec 10 6) 0b000100 in
  let op2f = slice dec 7 3 in
  let is_reti = and_ c is_fmt2 (eq_const c op2f 6) in
  let is_fmt2_op = and_ c is_fmt2 (not_ c (eq_const c (slice dec 8 2) 0b11)) in
  (* fmt2 with op2f in 0..5 *)
  let op1 = slice dec 12 4 in
  let is_fmt1 =
    (* top nibble >= 4 *)
    and_many c
      [
        or_many c [ dec.(15); dec.(14); and_ c dec.(13) dec.(12) ];
        not_ c is_jump;
        not_ c is_fmt2;
      ]
  in
  let rs_f = slice dec 8 4 in
  let ad = dec.(7) in
  let as_f = slice dec 4 2 in
  let rd_f = slice dec 0 4 in
  (* unified operand register field: fmt2's single operand lives in the
     dst field *)
  let o_rs = bmux c ~sel:is_fmt2 rs_f rd_f in
  let ors_eq2 = eq_const c o_rs 2 in
  let ors_eq3 = eq_const c o_rs 3 in
  let ors_eq0 = eq_const c o_rs 0 in
  let as00 = eq_const c as_f 0b00 in
  let as01 = eq_const c as_f 0b01 in
  let as10 = eq_const c as_f 0b10 in
  let as11 = eq_const c as_f 0b11 in
  let src_is_cg =
    or_ c ors_eq3 (and_ c ors_eq2 as_f.(1))
  in
  let src_is_imm = and_ c ors_eq0 as11 in
  let src_is_abs = and_ c ors_eq2 as01 in
  let src_is_idx = and_many c [ as01; not_ c src_is_abs; not_ c ors_eq3 ] in
  let src_is_ind = and_ c as10 (not_ c src_is_cg) in
  let src_is_indinc =
    and_many c [ as11; not_ c src_is_cg; not_ c src_is_imm ]
  in
  let src_is_reg = and_ c as00 (not_ c ors_eq3) in
  let cg_val =
    (* index = as + 4*rs3: [_; _; 4; 8; 0; 1; 2; -1] *)
    mux_tree c
      (concat [ as_f; [| ors_eq3 |] ])
      [|
        const c ~width:16 0;
        const c ~width:16 0;
        const c ~width:16 4;
        const c ~width:16 8;
        const c ~width:16 0;
        const c ~width:16 1;
        const c ~width:16 2;
        const c ~width:16 0xFFFF;
      |]
  in
  let has_operand = or_ c is_fmt1 is_fmt2_op in
  let needs_src_ext =
    and_ c has_operand (or_many c [ src_is_imm; src_is_abs; src_is_idx ])
  in
  let needs_src_read =
    and_ c has_operand
      (or_many c [ src_is_abs; src_is_idx; src_is_ind; src_is_indinc ])
  in
  let rd_eq0 = eq_const c rd_f 0 in
  let rd_eq2 = eq_const c rd_f 2 in
  let dst_is_abs = and_many c [ is_fmt1; ad; rd_eq2 ] in
  let dst_is_idx = and_many c [ is_fmt1; ad; not_ c rd_eq2 ] in
  let needs_dst_ext = and_ c is_fmt1 ad in
  let op_is_mov = eq_const c op1 0x4 in
  let op_is_cmp = eq_const c op1 0x9 in
  let op_is_bit = eq_const c op1 0xB in
  let op_reads_dst = not_ c op_is_mov in
  let op_writes = nor_ c op_is_cmp op_is_bit in
  let needs_dst_read = and_ c needs_dst_ext op_reads_dst in
  let fmt2_is_push = and_ c is_fmt2 (eq_const c op2f 4) in
  let fmt2_is_call = and_ c is_fmt2 (eq_const c op2f 5) in
  let fmt2_rmw = and_ c is_fmt2 (not_ c (or_many c [ fmt2_is_push; fmt2_is_call; is_reti ])) in
  let fmt2_mem_operand =
    and_ c fmt2_rmw (or_many c [ src_is_idx; src_is_abs; src_is_ind ])
  in
  let push_or_call = or_ c fmt2_is_push fmt2_is_call in
  let writes_mem =
    or_many c
      [
        and_many c [ is_fmt1; ad; op_writes ];
        fmt2_mem_operand;
        push_or_call;
      ]
  in

  (* ---------------- next state ---------------- *)
  let sconst v = const c ~width:4 v in
  let after_operand_src =
    (* once the source is in hand *)
    pmux c
      [ (needs_dst_ext, sconst st_dst_ext) ]
      (sconst st_exec)
  in
  let after_fetch =
    pmux c
      [
        (is_reti, sconst st_pop1);
        (is_jump, sconst st_exec);
        (needs_src_ext, sconst st_src_ext);
        (needs_src_read, sconst st_src_read);
        (needs_dst_ext, sconst st_dst_ext);
      ]
      (sconst st_exec)
  in
  let state_next =
    pmux c
      [
        (st.(st_reset), sconst st_vector);
        (st.(st_vector), sconst st_fetch);
        (st.(st_fetch), after_fetch);
        ( st.(st_src_ext),
          pmux c [ (needs_src_read, sconst st_src_read) ] after_operand_src );
        (st.(st_src_read), after_operand_src);
        ( st.(st_dst_ext),
          pmux c [ (needs_dst_read, sconst st_dst_read) ] (sconst st_exec) );
        (st.(st_dst_read), sconst st_exec);
        ( st.(st_exec),
          pmux c [ (writes_mem, sconst st_write) ] (sconst st_fetch) );
        (st.(st_write), sconst st_fetch);
        (st.(st_pop1), sconst st_pop2);
        (st.(st_pop2), sconst st_fetch);
      ]
      (sconst st_fetch)
  in
  connect c state ~reset ~reset_to:st_reset state_next;

  (* ---------------- register file read (exec_unit) ---------------- *)
  set_module c "exec_unit";
  let srq = q sr in
  let read_port sel =
    let entries =
      Array.init 16 (fun i ->
          if i = 0 then pcq else if i = 2 then srq else rf_q i)
    in
    mux_tree c sel entries
  in
  let o_rs_val = read_port o_rs in
  let rd_val = read_port rd_f in

  (* ---------------- dedicated adders (frontend) ---------------- *)
  set_module c "frontend";
  let zero16 = const c ~width:16 0 in
  (* PC incrementer *)
  let pc_inc_use = or_many c [ st.(st_fetch); st.(st_src_ext); st.(st_dst_ext) ] in
  let pc_plus2 =
    add c (bmux c ~sel:pc_inc_use zero16 pcq) (const c ~width:16 2)
  in
  (* +/-2 incrementer: auto-increment, RETI pops, PUSH/CALL stack *)
  let indinc_now = and_ c st.(st_src_read) src_is_indinc in
  let sp_dec_now = and_ c st.(st_exec) push_or_call in
  let sp_inc_now = or_ c st.(st_pop1) st.(st_pop2) in
  let inc2_in =
    pmux c
      [ (indinc_now, o_rs_val); (or_ c sp_dec_now sp_inc_now, sp_val) ]
      zero16
  in
  let inc2_addend =
    bmux c ~sel:sp_dec_now (const c ~width:16 2) (const c ~width:16 0xFFFE)
  in
  let inc2_out = add c inc2_in inc2_addend in
  (* jump target adder *)
  let jmp_use = and_ c st.(st_exec) is_jump in
  let jmp_off =
    (* sign-extended 10-bit word offset, times two *)
    concat [ [| gnd c |]; sext c (slice dec 0 10) 15 ]
  in
  let jmp_target =
    add c (bmux c ~sel:jmp_use zero16 pcq) (bmux c ~sel:jmp_use zero16 jmp_off)
  in
  (* address generator for indexed modes *)
  let use_agen_src =
    and_ c
      (or_ c st.(st_src_read) (and_ c st.(st_write) fmt2_mem_operand))
      src_is_idx
  in
  let use_agen_dst =
    and_ c (or_ c st.(st_dst_read) (and_ c st.(st_write) is_fmt1)) dst_is_idx
  in
  let agen_a = pmux c [ (use_agen_src, o_rs_val); (use_agen_dst, rd_val) ] zero16 in
  let agen_b =
    pmux c [ (use_agen_src, q ext_s); (use_agen_dst, q ext_d) ] zero16
  in
  let agen_sum = add c agen_a agen_b in

  (* ---------------- ALU (exec_unit) ---------------- *)
  set_module c "exec_unit";
  let src_operand =
    pmux c
      [
        (src_is_cg, cg_val);
        (src_is_imm, q ext_s);
        (src_is_reg, o_rs_val);
      ]
      (q tmp_s)
  in
  let dst_operand = bmux c ~sel:ad rd_val (q tmp_d) in
  let a = src_operand and b = dst_operand in
  let c_flag = srq.(0) in
  let op_is_addc = eq_const c op1 0x6 in
  let op_is_subc = eq_const c op1 0x7 in
  let op_is_sub = eq_const c op1 0x8 in
  let sub_type = or_many c [ op_is_subc; op_is_sub; op_is_cmp ] in
  let adder_a = bmux c ~sel:sub_type a (bnot c a) in
  let adder_cin =
    pmux c
      [
        (or_ c op_is_addc op_is_subc, [| c_flag |]);
        (or_ c op_is_sub op_is_cmp, [| vdd c |]);
      ]
      [| gnd c |]
  in
  let sum, cout = adder c adder_a b ~cin:adder_cin.(0) in
  let and_ab = band c a b in
  let xor_ab = bxor c a b in
  let bic_ab = band c b (bnot c a) in
  let bis_ab = bor c a b in
  let alu_result =
    mux_tree c op1
      [|
        a; a; a; a;
        (* 4 MOV *) a;
        (* 5..9 arithmetic *) sum; sum; sum; sum; sum;
        (* A unused *) a;
        (* B BIT *) and_ab;
        (* C BIC *) bic_ab;
        (* D BIS *) bis_ab;
        (* E XOR *) xor_ab;
        (* F AND *) and_ab;
      |]
  in
  let alu_z = is_zero c alu_result in
  let alu_n = alu_result.(15) in
  let v_add =
    and_ c (not_ c (xor_ c a.(15) b.(15))) (xor_ c b.(15) sum.(15))
  in
  let v_sub = and_ c (xor_ c a.(15) b.(15)) (xor_ c b.(15) sum.(15)) in
  let op_is_add = eq_const c op1 0x5 in
  let op_is_xor = eq_const c op1 0xE in
  let op_is_and = eq_const c op1 0xF in
  let add_type = or_ c op_is_add op_is_addc in
  let logic_flags = or_many c [ op_is_and; op_is_bit; op_is_xor ] in
  let new_c =
    pmux c
      [
        (add_type, [| cout |]);
        (sub_type, [| cout |]);
        (logic_flags, [| not_ c alu_z |]);
      ]
      [| c_flag |]
  in
  let new_v =
    pmux c
      [
        (add_type, [| v_add |]);
        (sub_type, [| v_sub |]);
        (op_is_xor, [| and_ c a.(15) b.(15) |]);
        (logic_flags, [| gnd c |]);
      ]
      [| srq.(8) |]
  in
  let sets_flags_fmt1 =
    and_ c is_fmt1
      (or_many c [ add_type; sub_type; logic_flags ])
  in

  (* fmt2 unit *)
  let o = src_operand in
  let rrc_res = Array.append (slice o 1 15) [| c_flag |] in
  let rra_res = Array.append (slice o 1 15) [| o.(15) |] in
  let swpb_res = concat [ slice o 8 8; slice o 0 8 ] in
  let sxt_res = concat [ slice o 0 8; repeat o.(7) 8 ] in
  let f2_result =
    mux_tree c op2f [| rrc_res; swpb_res; rra_res; sxt_res; o; o; o; o |]
  in
  let f2_z = is_zero c f2_result in
  let f2_n = f2_result.(15) in
  let op2_is_rr = not_ c (or_ c op2f.(1) op2f.(0)) in
  (* 0 RRC *)
  let op2_is_rra = and_ c op2f.(1) (not_ c op2f.(0)) in
  (* 2 *)
  let op2_is_swpb = and_ c op2f.(0) (not_ c op2f.(1)) in
  (* 1 *)
  let f2_sets_flags =
    and_ c fmt2_rmw (not_ c (and_ c op2_is_swpb (not_ c op2f.(2))))
  in
  let f2_shift = or_ c (and_ c op2_is_rr (not_ c op2f.(2))) (and_ c op2_is_rra (not_ c op2f.(2))) in
  let f2_c = bmux c ~sel:f2_shift [| not_ c f2_z |] [| o.(0) |] in

  (* ---------------- condition codes / jump decision --------------- *)
  set_module c "frontend";
  let z_flag = srq.(1) and n_flag = srq.(2) and v_flag = srq.(8) in
  let cond = slice dec 10 3 in
  let cond_met =
    (mux_tree c cond
       [|
         [| not_ c z_flag |];
         [| z_flag |];
         [| not_ c c_flag |];
         [| c_flag |];
         [| n_flag |];
         [| xnor_ c n_flag v_flag |];
         [| xor_ c n_flag v_flag |];
         [| vdd c |];
       |]).(0)
  in
  let jump_sel = and_many c [ st.(st_exec); is_jump; cond_met; not_ c reset ] in

  (* ---------------- peripherals ---------------- *)
  (* Multiplier: memory-mapped, 2-cycle latency after OP2 is written.
     The 17x17 array is operand-isolated behind the s2 strobe, so its
     (large) activity lands exactly one/two cycles after the triggering
     store -- the overlap targeted by OPT3. *)
  (* Two-cycle multiplier: writing OP2 (cycle t) latches the operands
     into the compute stage at t+1, and the 17x17 signed array burns its
     (large) switching energy during t+2, with results registered at the
     end of t+2. There is no return-to-zero gating, so the array
     switches exactly once per multiply — the single high-power cycle
     that OPT3 moves off the next instruction's bus activity. *)
  set_module c "multiplier";
  let mpy_op1 = reg c ~width:16 in
  let mpy_op2 = reg c ~width:16 in
  let mpy_signed = reg c ~width:1 in
  let mpy_s1 = reg c ~width:1 in
  let mpy_s2 = reg c ~width:1 in
  let mpy_a = reg c ~width:17 in
  let mpy_b = reg c ~width:17 in
  let mpy_reslo = reg c ~width:16 in
  let mpy_reshi = reg c ~width:16 in
  let mpy_sumext = reg c ~width:16 in
  let s1 = (q mpy_s1).(0) in
  let s2 = (q mpy_s2).(0) in
  let sext17 signed_bit bus = Array.append bus [| and_ c signed_bit bus.(15) |] in
  connect c mpy_a ~reset ~reset_to:0 ~enable:s1 (sext17 (q mpy_signed).(0) (q mpy_op1));
  connect c mpy_b ~reset ~reset_to:0 ~enable:s1 (sext17 (q mpy_signed).(0) (q mpy_op2));
  let prod34 = mul_array_signed c (q mpy_a) (q mpy_b) in
  let prod = slice prod34 0 32 in

  (* Watchdog *)
  set_module c "watchdog";
  let wdt_ctl = reg c ~width:8 in
  let wdt_cnt = reg c ~width:16 in
  let wdt_hold = (q wdt_ctl).(7) in

  (* Clock module: reset synchronizer and clock-gate qualifier. A
     free-running divider would defeat Algorithm 1's state dedup (no two
     visits to a loop head would ever compare equal), so the background
     activity budget lives in the watchdog counter instead, which
     benchmarks stop explicitly. *)
  set_module c "clk_module";
  let rst_sync = reg c ~width:2 in
  connect c rst_sync ~reset ~reset_to:3
    (concat [ [| gnd c |]; [| (q rst_sync).(0) |] ]);
  let _mclk_ok = nor_ c (q rst_sync).(0) (q rst_sync).(1) in

  (* SFR + port 1 *)
  set_module c "sfr";
  let sfr_ie1 = reg c ~width:16 in
  let sfr_ifg1 = reg c ~width:16 in
  let p1out = reg c ~width:16 in

  (* Debug unit: idle hardware breakpoint comparator *)
  set_module c "dbg";
  let dbg_bp = reg c ~width:16 in
  connect c dbg_bp ~reset ~reset_to:0 ~enable:(gnd c) (q dbg_bp);
  let _dbg_hit = eq c (q dbg_bp) pcq in

  (* ---------------- memory backbone ---------------- *)
  set_module c "mem_backbone";
  let src_addr =
    pmux c [ (src_is_idx, agen_sum); (src_is_abs, q ext_s) ] o_rs_val
  in
  let dst_addr = pmux c [ (dst_is_abs, q ext_d) ] agen_sum in
  let write_addr =
    pmux c [ (push_or_call, sp_val); (fmt2_mem_operand, src_addr) ] dst_addr
  in
  let mab =
    pmux c
      [
        (st.(st_vector), const c ~width:16 Isa.Memmap.reset_vector);
        (or_many c [ st.(st_fetch); st.(st_src_ext); st.(st_dst_ext) ], pcq);
        (st.(st_src_read), src_addr);
        (st.(st_dst_read), dst_addr);
        (st.(st_write), write_addr);
        (or_ c st.(st_pop1) st.(st_pop2), sp_val);
      ]
      pcq
  in
  let ren =
    or_many c
      [
        st.(st_vector);
        st.(st_fetch);
        st.(st_src_ext);
        st.(st_dst_ext);
        st.(st_src_read);
        st.(st_dst_read);
        st.(st_pop1);
        st.(st_pop2);
      ]
  in
  let wen = st.(st_write) in
  let hit addr = eq_const c mab addr in
  let hit_ie1 = hit Isa.Memmap.sfr_ie1 in
  let hit_ifg1 = hit Isa.Memmap.sfr_ifg1 in
  let hit_p1in = hit Isa.Memmap.p1in in
  let hit_p1out = hit Isa.Memmap.p1out in
  let hit_wdt = hit Isa.Memmap.wdtctl in
  let hit_mpy = hit Isa.Memmap.mpy in
  let hit_mpys = hit Isa.Memmap.mpys in
  let hit_op2 = hit Isa.Memmap.op2 in
  let hit_reslo = hit Isa.Memmap.reslo in
  let hit_reshi = hit Isa.Memmap.reshi in
  let hit_sumext = hit Isa.Memmap.sumext in
  let periph_hit =
    or_many c
      [
        hit_ie1; hit_ifg1; hit_p1in; hit_p1out; hit_wdt; hit_mpy; hit_mpys;
        hit_op2; hit_reslo; hit_reshi; hit_sumext;
      ]
  in
  let wdt_read =
    concat [ q wdt_ctl; const c ~width:8 0x69 ]
  in
  let periph_rdata =
    pmux c
      [
        (hit_p1in, port_in);
        (hit_p1out, q p1out);
        (hit_wdt, wdt_read);
        (hit_ie1, q sfr_ie1);
        (hit_ifg1, q sfr_ifg1);
        (or_ c hit_mpy hit_mpys, q mpy_op1);
        (hit_op2, q mpy_op2);
        (hit_reslo, q mpy_reslo);
        (hit_reshi, q mpy_reshi);
        (hit_sumext, q mpy_sumext);
      ]
      zero16
  in
  let rdata_final = bmux c ~sel:periph_hit ext_rdata periph_rdata in
  (* Bus strobes are gated by reset: before the state machine leaves its
     X initial value the strobes must be driven inactive, or the first
     cycle would look like a write at an unknown address. *)
  let ext_ren = and_many c [ ren; not_ c periph_hit; not_ c reset ] in
  let ext_wen = and_many c [ wen; not_ c periph_hit; not_ c reset ] in
  let wdata = q res in

  (* ---------------- register next-state ---------------- *)
  set_module c "frontend";
  let dst_is_pc = and_many c [ is_fmt1; not_ c ad; rd_eq0; op_writes ] in
  let pc_next =
    pmux c
      [
        (st.(st_vector), rdata_final);
        (pc_inc_use, pc_plus2);
        (jump_sel, jmp_target);
        (and_ c st.(st_exec) dst_is_pc, alu_result);
        (and_ c st.(st_write) fmt2_is_call, src_operand);
        (st.(st_pop2), rdata_final);
      ]
      pcq
  in
  connect c pc ~reset ~reset_to:0 pc_next;
  connect c ir ~enable:st.(st_fetch) rdata_final;
  connect c ext_s ~enable:st.(st_src_ext) rdata_final;
  connect c ext_d ~enable:st.(st_dst_ext) rdata_final;

  set_module c "exec_unit";
  connect c tmp_s ~enable:st.(st_src_read) rdata_final;
  connect c tmp_d ~enable:st.(st_dst_read) rdata_final;
  let res_next =
    pmux c
      [
        (fmt2_is_push, src_operand);
        (fmt2_is_call, pcq);
        (is_fmt2, f2_result);
      ]
      alu_result
  in
  connect c res ~enable:(and_ c st.(st_exec) writes_mem) res_next;

  (* register file write port *)
  let f2_reg_write =
    and_many c [ fmt2_rmw; src_is_reg ]
  in
  let rf_write_exec =
    and_many c
      [ is_fmt1; not_ c ad; op_writes; not_ c rd_eq0; not_ c rd_eq2 ]
  in
  let wr_cases =
    [
      (indinc_now, (o_rs, inc2_out));
      (and_ c st.(st_exec) rf_write_exec, (rd_f, alu_result));
      (and_ c st.(st_exec) f2_reg_write, (o_rs, f2_result));
      (and_ c st.(st_exec) push_or_call, (const c ~width:4 1, inc2_out));
      (sp_inc_now, (const c ~width:4 1, inc2_out));
    ]
  in
  let wr_en = or_many c (List.map fst wr_cases) in
  let wr_sel =
    pmux c (List.map (fun (g, (s, _)) -> (g, s)) wr_cases) (const c ~width:4 0)
  in
  let wr_data =
    pmux c (List.map (fun (g, (_, d)) -> (g, d)) wr_cases) zero16
  in
  let wr_onehot = decode c wr_sel in
  for i = 0 to 15 do
    match rf.(i) with
    | None -> ()
    | Some r ->
      let en = and_ c wr_en wr_onehot.(i) in
      connect c r ~enable:en wr_data
  done;

  (* status register *)
  let flags_fmt1 =
    let b = Array.copy srq in
    b.(0) <- new_c.(0);
    b.(1) <- alu_z;
    b.(2) <- alu_n;
    b.(8) <- new_v.(0);
    b
  in
  let flags_fmt2 =
    let b = Array.copy srq in
    b.(0) <- f2_c.(0);
    b.(1) <- f2_z;
    b.(2) <- f2_n;
    b.(8) <- gnd c;
    b
  in
  let sr_write_dst =
    and_many c [ is_fmt1; not_ c ad; rd_eq2; op_writes ]
  in
  let sr_cases =
    [
      (st.(st_pop1), rdata_final);
      (and_ c st.(st_exec) sr_write_dst, alu_result);
      ( and_ c st.(st_exec) (and_ c sets_flags_fmt1 (not_ c sr_write_dst)),
        flags_fmt1 );
      (and_ c st.(st_exec) (and_ c f2_sets_flags is_fmt2), flags_fmt2);
    ]
  in
  let sr_next = pmux c sr_cases srq in
  connect c sr ~enable:(or_many c (List.map fst sr_cases)) sr_next;

  (* ---------------- peripheral register next-state ---------------- *)
  set_module c "multiplier";
  let w_mpy = and_ c st.(st_write) hit_mpy in
  let w_mpys = and_ c st.(st_write) hit_mpys in
  let w_op2 = and_ c st.(st_write) hit_op2 in
  (* Peripheral registers have power-on reset (as on real silicon); the
     first multiply's switching is then proportional to the operands'
     weight rather than a full-swing X transient. *)
  connect c mpy_op1 ~reset ~reset_to:0 ~enable:(or_ c w_mpy w_mpys) wdata;
  connect c mpy_op2 ~reset ~reset_to:0 ~enable:w_op2 wdata;
  connect c mpy_signed ~reset ~reset_to:0 ~enable:(or_ c w_mpy w_mpys) [| w_mpys |];
  connect c mpy_s1 ~reset ~reset_to:0 [| w_op2 |];
  connect c mpy_s2 ~reset ~reset_to:0 (q mpy_s1);
  connect c mpy_reslo ~reset ~reset_to:0 ~enable:s2 (slice prod 0 16);
  connect c mpy_reshi ~reset ~reset_to:0 ~enable:s2 (slice prod 16 16);
  connect c mpy_sumext ~reset ~reset_to:0 ~enable:s2
    (repeat (and_ c (q mpy_signed).(0) prod.(31)) 16);

  set_module c "watchdog";
  let w_wdt = and_ c st.(st_write) hit_wdt in
  connect c wdt_ctl ~reset ~reset_to:0 ~enable:w_wdt (slice wdata 0 8);
  connect c wdt_cnt ~reset ~reset_to:0 ~enable:(not_ c wdt_hold)
    (inc c (q wdt_cnt));

  set_module c "sfr";
  connect c sfr_ie1 ~reset ~reset_to:0
    ~enable:(and_ c st.(st_write) hit_ie1)
    wdata;
  connect c sfr_ifg1 ~reset ~reset_to:0
    ~enable:(and_ c st.(st_write) hit_ifg1)
    wdata;
  connect c p1out ~reset ~reset_to:0
    ~enable:(and_ c st.(st_write) hit_p1out)
    wdata;

  (* ---------------- naming and ports ---------------- *)
  name_bus c "pc" pcq;
  name_bus c "state" stq;
  name_bus c "ir" irq;
  name_bus c "sr" srq;
  name_bus c "mab" mab;
  name_signal c "jump_sel" jump_sel;
  name_signal c "mult_active" s2;
  name_signal c "mem_ren" ext_ren;
  name_signal c "mem_wen" ext_wen;
  let netlist = freeze c in
  let reg_nets =
    Array.init 16 (fun i ->
        if i = 0 then pcq else if i = 2 then srq else rf_q i)
  in
  let ports =
    {
      Gatesim.Engine.reset;
      port_in;
      mem_addr = mab;
      mem_rdata = ext_rdata;
      mem_wdata = wdata;
      mem_ren = ext_ren;
      mem_wen = ext_wen;
      pc = pcq;
      state = stq;
      ir = irq;
      fork_net = Some jump_sel;
    }
  in
  check_memory_ports netlist ports;
  {
    netlist;
    ports;
    reg_nets;
    sr_nets = srq;
    state_nets = stq;
    mult_active_net = s2;
    bus_nets = Array.concat [ mab; ext_rdata; wdata ];
  }

let is_end ~halt_addr ~state ~pc =
  (match Tri.Word.to_int state with Some s -> s = st_fetch | None -> false)
  && match Tri.Word.to_int pc with Some p -> p = halt_addr | None -> false

let is_end_cycle ~halt_addr (cy : Gatesim.Trace.cycle) =
  is_end ~halt_addr ~state:cy.Gatesim.Trace.state ~pc:cy.Gatesim.Trace.pc

let mem_of_image (img : Isa.Asm.image) =
  Gatesim.Mem.create ~rom:img.Isa.Asm.words ~ram_base:Isa.Memmap.ram_base
    ~ram_bytes:Isa.Memmap.ram_size

let zero_ram mem =
  let open Isa.Memmap in
  let a = ref ram_base in
  while !a < ram_limit do
    Gatesim.Mem.poke mem !a 0;
    a := !a + 2
  done
